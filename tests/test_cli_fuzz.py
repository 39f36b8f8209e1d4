"""Hostile input files for every ``thermo`` subcommand that reads one.

Each case gives a command arbitrary bytes, or one of its valid inputs with
a few bytes changed, in place of an input file.  Whatever the bytes, the
command must exit 0, 1 or 2 and print no traceback: bad input is exit 2
with a message, a fit or transform that fails on it is exit 1.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermopower.cli import main
from thermopower.powermodel import builtin_set, derive_params

GOLDEN = Path(__file__).parent / "golden" / "inputs"
TRACE = (GOLDEN / "a7_c2_s2.csv").read_bytes()
SERIES = (GOLDEN / "sensor3.csv").read_bytes()
SENSOR_MODEL = (GOLDEN / "sensor_model.json").read_bytes()
COEFFS = json.dumps(builtin_set("A7").to_dict()).encode()
OBSERVATIONS = json.dumps([
    {"freq_ghz": f, "cores": c, **dict(zip(("a0", "a1", "a2"), (p.a0, p.a1, p.a2)))}
    for f in (0.4, 0.6, 0.8) for c in (1, 2, 3)
    for p in [derive_params(builtin_set("A7"), f, c)]
]).encode()

# name -> (argv with IN standing for the fuzzed file, a valid input for it,
# the files the command reads besides IN)
COMMANDS = {
    "fit": (["fit", "IN"], TRACE, {}),
    "fit-exp": (["fit", "IN", "--model", "exp", "--plot", "plot.csv"], TRACE, {}),
    "fit-pair": (["fit", "IN", "ok.csv", "--group-by", "proc-cores"], TRACE,
                 {"ok.csv": TRACE}),
    "debias-exp": (["debias", "IN", "--kind", "exp", "--ref-temp", "55", "--out", "out.csv",
                    "--plot", "plot.csv"], TRACE, {}),
    "debias-linear": (["debias", "IN", "--kind", "linear", "--ref-temp", "55",
                       "--out", "out.csv"], TRACE, {}),
    "debias-quad": (["debias", "IN", "--ref-temp", "55", "--out", "out.csv"], TRACE, {}),
    "sensor-series": (["sensor-correct", "IN", "--model-json", "model.json",
                       "--out", "out.csv"], SERIES, {"model.json": SENSOR_MODEL}),
    "sensor-model": (["sensor-correct", "series.csv", "--model-json", "IN",
                      "--out", "out.csv"], SENSOR_MODEL, {"series.csv": SERIES}),
    "model-eval": (["model", "eval", "--coeffs", "IN", "--temp", "55", "--freq", "1.0",
                    "--cores", "2"], COEFFS, {}),
    "model-calibrate": (["model", "calibrate", "IN", "--out", "cal.json"], OBSERVATIONS, {}),
}


NUMBER = re.compile(rb"-?[0-9][0-9.e+-]*")
# numbers that parse but strain a computation
HOSTILE_NUMBERS = [b"0", b"-1", b"1e-320", b"1e161", b"1e300", b"-1e300", b"4.0", b"55.0",
                   b"0.5", b"1e-9"]


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """valid with a few numbers swapped for hostile ones, or bytes replaced,
    inserted or deleted."""
    data = bytes(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["number", "number", "replace", "insert", "delete"]))
        new = draw(st.sampled_from([b"-", b"0", b"e", b"9", b",", b"\n", b"nan", b"inf",
                                    b"#", b"\xff", b" ", b'"', b"1e999", b"."]))
        numbers = list(NUMBER.finditer(data))
        if edit == "number" and numbers:
            hit = numbers[at % len(numbers)]
            data = data[:hit.start()] + draw(st.sampled_from(HOSTILE_NUMBERS)) + data[hit.end():]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)):]
        elif edit == "insert":
            data = data[:at] + new + data[at:]
        else:
            data = data[:at] + new + data[at + len(new):]
    return data


@st.composite
def hostile(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    valid = COMMANDS[name][1]
    data = draw(st.binary(max_size=300) | mutated(valid))
    return name, data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=hostile())
def test_hostile_input_files_exit_0_1_or_2_without_a_traceback(case, tmp_path, monkeypatch):
    name, data = case
    argv, _, others = COMMANDS[name]
    monkeypatch.chdir(tmp_path)
    Path("IN").write_bytes(data)
    for file, content in others.items():
        Path(file).write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([*argv, "--json"])
        except SystemExit as stop:  # argparse's exit
            code = stop.code
    assert code in (0, 1, 2), (name, data, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (name, data)
    if code != 2:
        json.loads(out.getvalue())  # the report is still emitted
