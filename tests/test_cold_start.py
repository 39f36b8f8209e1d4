"""What one ``thermo`` process pays for, each case in a fresh interpreter:
a command imports only the modules it uses, the array CSV writer only for
a table of a block or more (or a fleet that reaches ARRAY_BYTES, whose
batches, checked in-process, then all skip float()), ``import thermopower`` loads
no submodule until one of its names is looked up, importing ``cli`` leaves
the cyclic collector as it found it, and ``cli.run`` exits as ``cli.main``
returns, with the heap frozen for the interpreter's teardown.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import thermopower
from thermopower import trace as trace_module
from thermopower.cli import main
from thermopower.trace import (
    ARRAY_BYTES,
    BLOCK_ROWS,
    TraceMeta,
    generate_synthetic_trace,
    write_table,
    write_trace,
)

SRC = Path(thermopower.__file__).parents[1]
INPUTS = Path(__file__).parent / "golden" / "inputs"
GOLDEN_TRACE = INPUTS / "a7_c2_s2.csv"
CONCAVE = INPUTS / "fleet" / "concave0.csv"  # its exponential fit fails
# argparse wraps its usage text at the terminal's width
ENV = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True)


def probe(source: str) -> str:
    """Run source in a fresh interpreter and return what it printed."""
    done = python("-c", textwrap.dedent(source))
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


# each command's argv, and the submodules it uses besides errors, trace and fitting
COMMANDS = {
    "fit": (["fit", str(GOLDEN_TRACE), "--json"], set()),
    "gen": (["gen", "--params", "0.3,100.0,33.0", "--sweep", "25,85,20", "--seed", "0",
             "--out", "gen.csv"], set()),
    "model eval": (["model", "eval", "--proc", "A7", "--temp", "50", "--freq", "0.5",
                    "--cores", "3"], {"powermodel"}),
    "model calibrate": (["model", "calibrate", str(INPUTS / "observations.json")],
                        {"powermodel"}),
    "debias": (["debias", str(GOLDEN_TRACE), "--ref-temp", "55", "--kind", "exp",
                "--out", "out.csv"], {"debias"}),
    "sensor-correct": (["sensor-correct", str(INPUTS / "sensor3.csv"), "--model-json",
                        str(INPUTS / "sensor_model.json"), "--out", "out.csv"], {"sensor"}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_imports_only_the_modules_it_uses(command, tmp_path):
    argv, uses = COMMANDS[command]
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "thermopower.cli", *argv],
                          env=ENV, cwd=tmp_path, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    imported = {line.split("|")[-1].strip()
                for line in done.stderr.decode().splitlines() if line.startswith("import time:")}
    package = {name for name in imported if name.startswith("thermopower.")}
    assert package == {f"thermopower.{name}" for name in ("errors", "trace", "fitting", *uses)}
    assert "numpy" in imported
    assert not imported & {"fractions", "decimal"}


@pytest.mark.parametrize("argv, loads", [
    (["gen", "--params", "0.3,100.0,33.0", "--sweep", f"25,85,{BLOCK_ROWS}", "--seed", "0",
      "--out", "gen.csv"], True),
    (["--version"], False),
    (["fit", "small.csv"], False),
    (["sensor-correct", "series.csv", "--model-json", str(INPUTS / "sensor_model.json"),
      "--out", "out.csv"], False),
    (["fit", "block.csv"], False),
    (["fit", "long.csv"], True),
    (["fit", "block.csv", "block.csv", "block.csv"], True),
    (["fit", "@reaches.txt"], True),
    (["fit", "@below.txt"], False),
], ids=["gen of a block", "version", "fit of 20 rows", "sensor-correct of 20 rows",
        "fit of a block", "fit of 4 blocks", "fit of 3 files of a block",
        "fit of small files reaching ARRAY_BYTES", "fit of small files below it"])
def test_the_array_writer_loads_for_a_table_of_a_block_or_more(argv, loads, tmp_path):
    """The array CSV writer and reader share one module, which a command
    loads to write a table of BLOCK_ROWS rows or more, or once it has read,
    or expects to read, ARRAY_BYTES of CSV text, in one file or in several."""
    for name, rows in (("small.csv", 20), ("block.csv", BLOCK_ROWS), ("long.csv", 4 * BLOCK_ROWS)):
        trace = generate_synthetic_trace(TraceMeta("A15", 1.2, 4), (0.3, 100.0, 33.0),
                                         (25.0, 85.0, rows), noise=0.002, seed=1)
        (tmp_path / name).write_text(write_trace(trace))
    size = (tmp_path / "block.csv").stat().st_size
    assert size < ARRAY_BYTES <= min(3 * size, (tmp_path / "long.csv").stat().st_size)
    names = small_fleet(tmp_path, ARRAY_BYTES)
    (tmp_path / "reaches.txt").write_text("".join(f"{name}\n" for name in names))
    (tmp_path / "below.txt").write_text("".join(f"{name}\n" for name in names[::2]))
    (tmp_path / "series.csv").write_text(write_table(
        {}, ("time_s", "temp_c"), (0.2 * np.arange(1, 21), np.linspace(40.0, 60.0, 20))))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "thermopower.cli", *argv],
                          env=ENV, cwd=tmp_path, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    imported = {line.split("|")[-1].strip()
                for line in done.stderr.decode().splitlines() if line.startswith("import time:")}
    assert ("thermopower._shortest" in imported) == loads


def small_fleet(directory: Path, total: int) -> list[str]:
    """Names of 20-sample trace files written in directory, fewest that
    hold at least total bytes."""
    trace = generate_synthetic_trace(TraceMeta("A7", 1.0, 2), (0.3, 100.0, 33.0),
                                     (25.0, 85.0, 20), noise=0.002, seed=2)
    text = write_trace(trace).encode()
    names = [f"s{i:04d}.csv" for i in range(-(-total // len(text)))]
    for name in names:
        (directory / name).write_bytes(text)
    return names


def test_a_fleet_expected_to_reach_array_bytes_reads_no_batch_with_float(
        tmp_path, monkeypatch, capsys):
    """thermo fit foretells a fleet's size from its first chunk, so the
    array kernel reads every batch of a fleet that reaches ARRAY_BYTES,
    the first included, and float() none."""
    names = small_fleet(tmp_path, ARRAY_BYTES)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(trace_module, "_read_bytes", 0)  # as in a new process
    calls = []
    float_rows = trace_module._float_rows
    monkeypatch.setattr(trace_module, "_float_rows", lambda *a: calls.append(a) or float_rows(*a))
    assert main(["fit", *names, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["traces"][-1]["path"] == names[-1]
    assert calls == []


def test_import_thermopower_loads_no_submodule():
    loaded = probe("""
        import json, sys
        import thermopower
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("thermopower."))))
        print(thermopower.trace is sys.modules["thermopower.trace"])
    """)
    before, trace = loaded.splitlines()
    assert json.loads(before) == []
    assert trace == "True"  # a submodule still loads as an attribute


def test_every_public_name_resolves_to_its_submodules_object():
    assert probe("""
        import sys
        import thermopower
        names = thermopower.__all__
        assert names[0] == "__version__" and len(set(names)) == len(names) == 61
        assert set(names) <= set(dir(thermopower))
        for name in names[1:]:
            value = getattr(thermopower, name)
            assert value is getattr(sys.modules[value.__module__], name), name
        star = {}
        exec("from thermopower import *", star)
        assert all(star[name] is getattr(thermopower, name) for name in names)
        try:
            thermopower.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("thermopower.no_such_name resolved")
        print("ok")
    """) == "ok\n"


def test_the_debias_function_keeps_its_name_after_its_module_is_imported():
    # the import system binds each submodule it loads to the package
    assert probe("""
        import sys
        import thermopower.debias
        from thermopower import debias
        assert debias is thermopower.debias is sys.modules["thermopower.debias"].debias
        print("ok")
    """) == "ok\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_importing_cli_pauses_the_collector_and_leaves_it_as_it_found_it(enabled):
    seen = probe(f"""
        import gc, json, sys
        collecting = {{}}  # whether the collector ran as each module began to load
        sys.addaudithook(lambda event, args: event == "import"
                         and collecting.setdefault(args[0], gc.isenabled()))
        {"gc.enable()" if enabled else "gc.disable()"}
        import thermopower.cli
        print(json.dumps([gc.isenabled(), collecting]))
    """)
    after, collecting = json.loads(seen)
    assert after == enabled
    assert collecting["thermopower.cli"] == enabled
    for name in ("numpy", "thermopower.errors", "thermopower.fitting", "thermopower.trace"):
        assert collecting[name] is False, name


# the variable as the process sees it, and the threads it runs, on Linux
THREADS_PROBE = """
import os
import {module}
status = "/proc/self/status"
lines = open(status).readlines() if os.path.exists(status) else []
print(os.environ.get("OPENBLAS_NUM_THREADS"), *[line.split()[1] for line in lines
                                                if line.startswith("Threads:")])
"""


@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "set by the user"])
def test_cli_runs_openblas_on_one_thread_unless_the_user_set_a_number(threads):
    """Importing cli before numpy sets OPENBLAS_NUM_THREADS to 1 when it is
    unset and keeps a value the user set; the process then runs as many
    threads as importing numpy alone does under that value."""
    env = {key: value for key, value in ENV.items() if key != "OPENBLAS_NUM_THREADS"}

    def seen(module: str, env: dict) -> list[str]:
        done = subprocess.run([sys.executable, "-c", THREADS_PROBE.format(module=module)],
                              env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout.decode().split()

    told = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
    cli = seen("thermopower.cli", told)
    assert cli[0] == (threads or "1")
    assert cli == seen("numpy", dict(env, OPENBLAS_NUM_THREADS=threads or "1"))


FREEZE_PROBE = """
import atexit, gc, sys
from thermopower import cli

def freeze_count(path=sys.argv.pop(1)):
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(freeze_count)
cli.run()
"""


@pytest.mark.parametrize("case", ["version", "usage", "failing fit", "fit"])
def test_run_exits_as_main_returns_with_the_heap_frozen(case, tmp_path, capsys, monkeypatch):
    argv = {"version": ["--version"], "usage": ["fit"],
            "failing fit": ["fit", str(CONCAVE), "--model", "exp"],
            "fit": ["fit", str(GOLDEN_TRACE), "--json"]}[case]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's exits
        code = exc.code
    out, err = capsys.readouterr()
    assert code == {"version": 0, "usage": 2, "failing fit": 1, "fit": 0}[case]

    count = tmp_path / "freeze_count"
    done = python("-c", FREEZE_PROBE, str(count), *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
    assert int(count.read_text()) > 0
