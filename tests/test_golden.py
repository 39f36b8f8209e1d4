"""Golden corpus: fixed ``thermo`` invocations and their byte-exact outputs.

Each case runs in a scratch directory holding a copy of ``golden/inputs``,
so every path in a report is relative and the bytes do not depend on where
the repository lives.  The human stdout, the ``--out-report`` JSON and every
CSV a case writes must equal the files under ``golden/expected/<case>/``.

The expected files are a record of behaviour, not a specification: a change
that means to alter an output regenerates the cases it names with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

and the diff of ``tests/golden/expected`` shows exactly what moved.  Only
the named cases are rewritten, so adding a case leaves the others as they
were recorded.

``golden/inputs/fleet`` is a small fleet: f00-f39 are 20-sample traces of
the built-in A7/A15 power models at assorted operating points, with 2, 5
or 10 mW of noise (seeds 0-39, every fourth rounded to 0.5 mW), and
concave0-2 fall away from a parabola's peak, which the exponential family
cannot fit.  ``observations.json`` holds 18 (freq, cores, a0, a1, a2)
observations of the built-in A15 model over 5 frequencies, rounded to 4
significant digits, with a2 moved by up to 0.8%.
"""

import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import thermopower
from thermopower.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(thermopower.__file__).parents[1]
TRACES = ["a15_c4_s5.csv", "a15_c4_s9.csv", "a7_c2_s2.csv"]
FLEET = sorted(f"fleet/{p.name}" for p in (GOLDEN / "inputs" / "fleet").iterdir())
REF = ["--ref-temp", "55"]

# name -> (argv, exit code, files the command writes besides the report)
CASES = {
    "gen": (
        ["gen", "--params", "0.3,100.0,33.0", "--sweep", "25,85,40", "--noise",
         "0.002", "--quantum", "0.0005", "--seed", "11", "--processor", "A15",
         "--freq", "1.2", "--cores", "4", "--out", "gen.csv"],
        0, ["gen.csv"]),
    "fit_all_grouped": (["fit", *TRACES, "--group-by", "proc-cores"], 0, []),
    "fit_fleet_grouped": (["fit", *FLEET, *TRACES, "--group-by", "proc-cores"],
                          1, []),
    "fit_fleet_exp": (["fit", *FLEET, *TRACES, "--model", "exp"], 1, []),
    "fit_exp_plot": (["fit", TRACES[0], "--model", "exp", "--plot", "plot.csv"],
                     0, ["plot.csv"]),
    "debias_linear": (
        ["debias", TRACES[0], "--kind", "linear", *REF, "--out", "out.csv",
         "--plot", "plot.csv"], 0, ["out.csv", "plot.csv"]),
    "debias_quad": (
        ["debias", TRACES[1], "--kind", "quad", *REF, "--out", "out.csv",
         "--plot", "plot.csv"], 0, ["out.csv", "plot.csv"]),
    "debias_exp": (
        ["debias", TRACES[2], "--kind", "exp", "--ref-temp", "90", "--out",
         "out.csv", "--plot", "plot.csv"], 0, ["out.csv", "plot.csv"]),
    "sensor_power": (
        ["sensor-correct", "sensor3.csv", "--model-json", "sensor_model.json",
         "--out", "out.csv"], 0, ["out.csv"]),
    "sensor_no_power": (
        ["sensor-correct", "sensor2.csv", "--model-json", "sensor_model.json",
         "--out", "out.csv"], 0, ["out.csv"]),
    "model_eval": (
        ["model", "eval", "--proc", "A15", "--temp", "63.5", "--freq", "1.4",
         "--cores", "3"], 0, []),
    "model_calibrate": (
        ["model", "calibrate", "observations.json", "--label", "A15obs",
         "--out", "coeffs.json"], 0, ["coeffs.json"]),
}


def run_case(name: str, work: Path, child: bool = False) -> tuple[int, dict[str, bytes]]:
    """Run one case in ``work`` and return its exit code and output bytes:
    in this process, or as ``python -X dev -W error -m thermopower.cli``
    without cached bytecode, which must print nothing to stderr."""
    argv, _, written = CASES[name]
    shutil.copytree(GOLDEN / "inputs", work, dirs_exist_ok=True)
    argv = [*argv, "--out-report", "report.json"]
    if child:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "thermopower.cli", *argv],
            cwd=work, env=env, capture_output=True)
        assert done.stderr == b""
        code = done.returncode
        (work / "stdout").write_bytes(done.stdout)
    else:
        with open(work / "stdout", "w", encoding="utf-8") as out, redirect_stdout(out):
            code = main(argv)
    files = ["stdout", "report.json", *written]
    return code, {f: (work / f).read_bytes() for f in files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_are_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check(name, *run_case(name, tmp_path))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_through_the_console_entry_in_dev_mode(name, tmp_path):
    # as the benchmark starts thermo; an unclosed file or a deprecated call
    # fails here as a warning turned error
    check(name, *run_case(name, tmp_path, child=True))


def check(name: str, code: int, outputs: dict[str, bytes]) -> None:
    assert code == CASES[name][1]
    expected = GOLDEN / "expected" / name
    assert sorted(outputs) == sorted(p.name for p in expected.iterdir())
    for file, data in outputs.items():
        assert data == (expected / file).read_bytes(), f"{name}/{file} differs"


def regenerate(names: list[str]) -> None:
    import os
    import tempfile

    unknown = sorted(set(names) - set(CASES))
    if not names or unknown:
        sys.exit(f"usage: test_golden.py CASE [CASE ...]; cases: {' '.join(sorted(CASES))}"
                 + (f"; unknown: {' '.join(unknown)}" if unknown else ""))
    here = os.getcwd()
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                code, outputs = run_case(name, Path(tmp))
            finally:
                os.chdir(here)
        assert code == CASES[name][1], f"{name} exited {code}"
        out_dir = GOLDEN / "expected" / name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        for file, data in outputs.items():
            (out_dir / file).write_bytes(data)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
