"""The benchmark's own output checks, on each of its workloads.

``perfbench/run.py`` builds every workload's commands from a seeded corpus
and refuses a run whose outputs fail its checks (``Runner._verify``).  Here
the first pass of each plan runs in-process through ``cli.main`` under the
same checks, so a report the benchmark would refuse fails this suite first;
and the benchmark's own self-tests run as its docstring says to run them.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thermopower import cli

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SEED = 3


def load_run(monkeypatch):
    """perfbench/run.py as the module run; it imports checks and corpus
    from its own directory, which it puts first on sys.path."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "run", run)  # its dataclass looks the module up
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload", ["fleet-fit", "long-trace", "cli-small"])
def test_first_pass_passes_the_benchmark_checks(workload, tmp_path, monkeypatch):
    run = load_run(monkeypatch)
    monkeypatch.chdir(tmp_path)  # the commands name their files relative to the corpus
    plan = run.PLANS[workload](SEED, str(tmp_path))
    for cmd in plan.commands(0):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd.argv)
        report_bytes = (tmp_path / cmd.report).read_bytes()
        results = json.loads(report_bytes)["results"]
        outputs = {name: (tmp_path / name).read_bytes() for name in cmd.outputs}
        inputs = {name: (tmp_path / name).read_bytes() for name in cmd.inputs}
        problems = run.checks.process(code, err.getvalue(), 1 if results.get("failures") else 0)
        problems += run.checks.report_envelope(json.loads(report_bytes), out.getvalue().encode(),
                                               report_bytes, inputs)
        problems += cmd.check(results, outputs)
        assert problems == [], (cmd.tag, cmd.argv[:2])


def test_the_benchmarks_own_self_tests_pass():
    """perfbench's unittest suite, run from the repository root in a child
    process against this checkout's src, writing no bytecode there: a
    package change that breaks the benchmark's own checks fails here."""
    root = RUN_PY.parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
