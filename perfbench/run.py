"""Benchmark of the ``thermo`` command-line tool, run as users run it.

Each workload drives the CLI closed-loop from one client: one
``python -m thermopower.cli`` process at a time, against the ``src/`` of
the checkout it is started from, on inputs from the benchmark's own
seeded generator (corpus.py).  Every command's outputs are checked
(checks.py).  Times are scaled to a host of fixed speed by runs of
reference.py between the passes (see README.md).  The last line printed is
a JSON result; the lines before it name every metric with its unit.

    python3 perfbench/run.py --workload fleet-fit --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 1`` reruns the workload's first pass with a span recorder in
each CLI process (tracer.py) and reports per-layer metrics instead of the
end-to-end ones.  See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("fleet-fit", "long-trace", "cli-small")
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_STARTS = 7  # cold starts per run behind setup_s
IMPORTTIME_STARTS = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
REFERENCE = os.path.join(HERE, "reference.py")
REFERENCE_NOMINAL_S = 0.25  # reference.py's time on the host the time metrics are scaled to


@dataclass
class Command:
    """One CLI invocation and how to check what it produced."""

    tag: str
    argv: list[str]
    report: str
    check: Callable[[dict, dict], list[str]]
    inputs: list[str]
    outputs: list[str] = field(default_factory=list)
    traces: int = 1  # trace or series files it reads or writes
    fits: int = 0  # fits it attempts (trace x family)


def _report_args(name: str) -> list[str]:
    return ["--json", "--out-report", f"{name}.report.json"]


def _read(work: str, name: str) -> bytes:
    with open(os.path.join(work, name), "rb") as fh:
        return fh.read()


def _rows(work: str, name: str):
    return checks.read_csv(_read(work, name).decode("utf-8"))[2]


def _fit(name: str, paths: list[str], extra: list[str], check) -> Command:
    return Command("fit", ["fit", *paths, *extra, *_report_args(name)], f"{name}.report.json",
                   check, list(paths), traces=len(paths), fits=3 * len(paths))


def _gen(gen: dict) -> Command:
    (proc, freq, cores), params, n = gen["meta"], gen["params"], gen["n"]
    argv = ["gen", "--params", ",".join(repr(p) for p in params),
            "--sweep", f"{corpus.SWEEP_C[0]!r},{corpus.SWEEP_C[1]!r},{n}",
            "--noise", repr(corpus.NOISE_W), "--seed", str(gen["seed"]),
            "--processor", proc, "--freq", repr(freq), "--cores", str(cores),
            "--out", "gen.csv", *_report_args("gen")]
    return Command("gen", argv, "gen.report.json",
                   lambda r, out: checks.gen_output(r, out["gen.csv"], n),
                   [], ["gen.csv"])


def _debias(work: str, path: str, kind: list[str], name: str) -> Command:
    out = f"{name}.csv"
    argv = ["debias", path, *kind, "--ref-temp", repr(corpus.REF_TEMP_C), "--out", out,
            *_report_args(name)]
    return Command("debias", argv, f"{name}.report.json",
                   lambda r, o: checks.debias_output(r, _rows(work, path), o[out].decode()),
                   [path], [out])


def _sensor(work: str, inputs: dict) -> Command:
    series, model = inputs["series"], inputs["sensor_model"]
    argv = ["sensor-correct", series, "--model-json", model, "--out", "corrected.csv",
            *_report_args("sensor")]
    return Command(
        "sensor", argv, "sensor.report.json",
        lambda r, o: checks.sensor_output(
            r, corpus.SENSOR_MODEL, _rows(work, series), o["corrected.csv"].decode()),
        [series, model], ["corrected.csv"])


class FleetFit:
    """`thermo fit` over 4000 short traces, grouped by processor and cores."""

    def __init__(self, seed: int, work: str):
        inputs = corpus.fleet(seed, work)
        self.corpus = inputs["corpus"]
        paths = inputs["paths"]
        groups: dict[str, list[int]] = {}
        for i, (proc, _, cores) in enumerate(inputs["metas"]):
            groups.setdefault(f"{proc}/c{cores}", []).append(i)
        self.command = _fit("fleet", paths, ["--group-by", "proc-cores"],
                            lambda r, o: checks.fit_report(r, paths, groups))

    def commands(self, i: int) -> list[Command]:
        return [self.command]


class LongTrace:
    """gen, fit, debias --kind exp and sensor-correct on 100k-sample inputs."""

    def __init__(self, seed: int, work: str):
        inputs = corpus.long_trace(seed, work)
        self.corpus = inputs["corpus"]
        self.gen = _gen(inputs["gen"])
        self.sensor = _sensor(work, inputs)
        self.per_trace = []
        for k, tr in enumerate(inputs["traces"]):
            path, params = tr["path"], tr["params"]
            fit = _fit(f"fit{k}", [path], [], lambda r, o, path=path, params=params: (
                checks.fit_report(r, [path], None) + checks.fit_recovery(r, params)))
            debias = _debias(work, path, ["--kind", "exp"], f"debias{k}")
            self.per_trace.append((fit, debias))

    def commands(self, i: int) -> list[Command]:
        fit, debias = self.per_trace[i % len(self.per_trace)]
        return [self.gen, fit, debias, self.sensor]


class CliSmall:
    """Short invocations, one process each, through every subcommand."""

    def __init__(self, seed: int, work: str):
        inputs = corpus.cli_small(seed, work)
        self.corpus = inputs["corpus"]
        proc, temp, freq, cores = inputs["eval_point"]
        point = ["--temp", repr(temp), "--freq", repr(freq), "--cores", str(cores)]
        builtin = corpus.derive(*corpus.COEFFS[proc], freq, cores)
        cs = inputs["coeffs_set"]
        own = corpus.derive(cs["m"], cs["a2"], freq, cores)
        path = inputs["traces"][0]["path"]
        self.cycle = [
            Command("eval", ["model", "eval", "--proc", proc, *point, *_report_args("eval")],
                    "eval.report.json", lambda r, o: checks.model_eval(r, builtin, temp), [],
                    traces=0),
            Command("eval", ["model", "eval", "--coeffs", inputs["coeffs"], *point,
                             *_report_args("eval-coeffs")],
                    "eval-coeffs.report.json", lambda r, o: checks.model_eval(r, own, temp),
                    [inputs["coeffs"]], traces=0),
            Command("calibrate", ["model", "calibrate", inputs["observations"], "--label",
                                  cs["label"], *_report_args("calibrate")],
                    "calibrate.report.json",
                    lambda r, o: checks.model_calibrate(r, cs, inputs["n_observations"]),
                    [inputs["observations"]], traces=0),
            _gen(inputs["gen"]),
            _fit("fit", [path], [], lambda r, o: checks.fit_report(r, [path], None)),
            _debias(work, path, [], "debias"),
            _sensor(work, inputs),
        ]

    def commands(self, i: int) -> list[Command]:
        return self.cycle


PLANS = {"fleet-fit": FleetFit, "long-trace": LongTrace, "cli-small": CliSmall}


class Runner:
    """Starts CLI processes one at a time and checks each one's outputs."""

    def __init__(self, root: str, work: str, deadline: float):
        self.work, self.deadline = work, deadline
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), THERMO_NO_COLOR="1")
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "spawner.py")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.first: dict[tuple, str] = {}  # argv -> digest of its first outputs
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.references: list[float] = []  # wall s of each reference.py run

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=30)

    def spawn(self, argv: list[str], stdout: str, stderr: str):
        """(wall s, exit code, peak RSS MB) of one process, killed at the deadline."""
        request = {"argv": argv, "cwd": self.work, "stdout": stdout, "stderr": stderr,
                   "timeout": max(self.deadline - time.monotonic(), 0.1)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        answer = json.loads(self.spawner.stdout.readline())
        return answer["wall_s"], answer["code"], answer["maxrss_kb"] / 1024.0

    def python(self, args: list[str]) -> tuple[float, int, str]:
        err = os.path.join(self.work, "python.err")
        wall, code, _ = self.spawn([sys.executable, *args], os.devnull, err)
        with open(err, encoding="utf-8", errors="replace") as fh:
            return wall, code, fh.read()

    def reference(self) -> int:
        """One run of reference.py, the yardstick for host speed; its index."""
        wall, code, err = self.python([REFERENCE])
        if code != 0:
            self.problems.append("reference.py failed: " + err.strip()[-200:])
        self.references.append(wall)
        return len(self.references) - 1

    def execute(self, cmd: Command, spans: str | None = None) -> dict:
        for name in (cmd.report, *cmd.outputs):
            if os.path.exists(os.path.join(self.work, name)):
                os.remove(os.path.join(self.work, name))
        prefix = ([tracer.__file__, spans, "--"] if spans else ["-m", "thermopower.cli"])
        out, err = os.path.join(self.work, "cmd.out"), os.path.join(self.work, "cmd.err")
        wall, code, rss = self.spawn([sys.executable, *prefix, *cmd.argv], out, err)
        record = {"tag": cmd.tag, "wall_s": wall, "code": code, "rss_mb": rss,
                  "traces": cmd.traces, "fits": cmd.fits, "failed_fits": 0, "exp_converged": 0}
        problems = self._verify(cmd, code, out, err, record)
        record["ok"] = not problems
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{cmd.tag} {' '.join(cmd.argv[:2])}: {p}" for p in problems[:5]]
        return record

    def _verify(self, cmd: Command, code: int, out: str, err: str, record: dict) -> list[str]:
        with open(err, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        try:
            report_bytes = _read(self.work, cmd.report)
            results = json.loads(report_bytes)["results"]
            outputs = {name: _read(self.work, name) for name in cmd.outputs}
        except (OSError, ValueError, KeyError) as exc:
            return [f"no usable report or output ({exc})"] + checks.process(code, stderr, 0)
        failures = results.get("failures", [])
        record["failed_fits"] = len(failures)
        record["exp_converged"] = sum(
            bool((t["fits"].get("exponential") or {}).get("converged"))
            for t in results.get("traces", []) if isinstance(t, dict) and "fits" in t)
        problems = checks.process(code, stderr, 1 if failures else 0)
        digest = hashlib.sha256(report_bytes)
        for name in cmd.outputs:
            digest.update(outputs[name])
        key = tuple(cmd.argv)
        if key in self.first:
            if self.first[key] != digest.hexdigest():
                problems.append("outputs differ from the first invocation of the same command")
            return problems
        self.first[key] = digest.hexdigest()
        with open(out, "rb") as fh:
            stdout = fh.read()
        inputs = {name: _read(self.work, name) for name in cmd.inputs}
        problems += checks.report_envelope(json.loads(report_bytes), stdout, report_bytes, inputs)
        try:
            return problems + cmd.check(results, outputs)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            return problems + [f"outputs do not have the expected shape: {exc!r}"]


def tail(values: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], f"p{100 * rank // n} of {n}"


def environment(root: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "thermopower")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src.update(name.encode() + b"\0" + _read(pkg, name))
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True).stdout.strip()
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "cpu": cpu,
            "nproc": os.cpu_count(), "commit": commit, "src_sha256": src.hexdigest()}


def measure(runner: Runner, plan, seconds: float) -> dict:
    """Closed-loop passes until the next one would overrun --seconds.

    The cold starts behind setup_s are spread between the passes, so that
    their median spans the whole run rather than one moment of it.  A run
    of reference.py precedes every pass and every cold start, and one ends
    the run; each pass and cold start records the index of the one before it.
    """
    version = ["-m", "thermopower.cli", "--version"]
    starts = []

    def cold_starts(upto: int) -> None:
        while len(starts) < upto:
            ref = runner.reference()
            wall, code, err = runner.python(version)
            if code != 0:
                runner.problems.append("thermo --version failed: " + err.strip()[-200:])
            starts.append({"wall_s": wall, "ref": ref})

    runner.python(version)  # warm-up: byte-compiles src/ once, as an install would
    runner.python([REFERENCE])
    cold_starts(1)
    records, passes = [], []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        ref = runner.reference()
        done = [dict(runner.execute(cmd), ref=ref) for cmd in plan.commands(len(passes))]
        records += done
        passes.append({"wall_s": sum(r["wall_s"] for r in done),
                       "traces": sum(r["traces"] for r in done),
                       "span_s": time.monotonic() - t0, "ref": ref})
        typical = statistics.median(p["span_s"] for p in passes)
        now = time.monotonic()
        if now - begin + typical > seconds or now + typical > runner.deadline:
            break
        cold_starts(min(SETUP_STARTS, round(SETUP_STARTS * (now - begin + typical) / seconds)))
    cold_starts(SETUP_STARTS)
    runner.reference()
    return {"setup": starts, "records": records, "passes": passes,
            "references": runner.references}


def end_to_end(m: dict) -> tuple[dict, dict]:
    """(bounded metrics, further figures) from the untraced passes.

    The host's speed changes within a run, so each pass and cold start is
    scaled by the mean of the reference.py runs just before and just after
    it, over REFERENCE_NOMINAL_S: its time then reads as on a host of fixed
    speed.  The unscaled figures are printed with a ``raw_`` prefix.
    """
    refs = m["references"]

    def host(item: dict) -> float:
        return (refs[item["ref"]] + refs[item["ref"] + 1]) / (2 * REFERENCE_NOMINAL_S)

    recs = m["records"]
    walls = [r["wall_s"] / host(r) for r in recs]
    by_tag: dict[str, list[float]] = {}
    for r, wall in zip(recs, walls):
        by_tag.setdefault(r["tag"], []).append(wall)
    fits = sum(r["fits"] for r in recs)
    failed = sum(not r["ok"] for r in recs) + sum(r["failed_fits"] for r in recs)
    tail_ms, tail_label = tail(walls)
    metrics = {
        "setup_s": (statistics.median(c["wall_s"] / host(c) for c in m["setup"]), "s"),
        "traces_per_s": (statistics.median(p["traces"] * host(p) / p["wall_s"]
                                           for p in m["passes"]), "1/s"),
        "cmd_p50_ms": (statistics.median(walls) * 1000.0, "ms"),
        "cmd_tail_ms": (tail_ms * 1000.0, "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in recs), "MB"),
        "ops_ok_ratio": (1.0 - failed / (len(recs) + fits), "ratio"),
    }
    extra = {
        "ops_failed_ratio": (failed / (len(recs) + fits), "ratio"),
        "exp_converged_ratio": (sum(r["exp_converged"] for r in recs) / (fits / 3), "ratio"),
        "cmd_tail_percentile": (tail_label, ""),
        "passes": (len(m["passes"]), "count"),
        "commands": (len(recs), "count"),
        "host_factor": (statistics.median(refs) / REFERENCE_NOMINAL_S, "ratio"),
        "references": (len(refs), "count"),
    }
    for tag, name in (("gen", "gen_s"), ("fit", "fit_s"), ("debias", "debias_s"),
                      ("sensor", "sensor_s")):
        if tag in by_tag:
            extra[name] = (statistics.median(by_tag[tag]), "s")
    raw_walls = [r["wall_s"] for r in recs]
    extra["raw_setup_s"] = (statistics.median(c["wall_s"] for c in m["setup"]), "s")
    extra["raw_traces_per_s"] = (
        statistics.median(p["traces"] / p["wall_s"] for p in m["passes"]), "1/s")
    extra["raw_cmd_p50_ms"] = (statistics.median(raw_walls) * 1000.0, "ms")
    extra["raw_cmd_tail_ms"] = (tail(raw_walls)[0] * 1000.0, "ms")
    return metrics, extra


def traced(runner: Runner, plan, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: first-pass commands alternately untraced and traced."""
    splits = []
    for _ in range(IMPORTTIME_STARTS):
        _, code, err = runner.python(["-X", "importtime", "-c", "import thermopower.cli"])
        if code != 0:
            runner.problems.append("import thermopower.cli failed: " + err.strip()[-200:])
            return {}, {}
        splits.append(tracer.import_split(err))
    cmds = plan.commands(0)
    plain, spans_per_pass, traced_walls, details = [], [], [], []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(sum(runner.execute(c)["wall_s"] for c in cmds))
        summaries, report_bytes = [], 0
        for n, cmd in enumerate(cmds):
            spans = os.path.join(runner.work, f"spans{n}.json")
            rec = runner.execute(cmd, spans)
            if not rec["ok"]:  # the failed check is already in runner.problems
                return {}, {}
            with open(spans, encoding="utf-8") as fh:
                summaries.append(tracer.command_summary(json.load(fh), rec["wall_s"]))
            report_bytes += os.path.getsize(os.path.join(runner.work, cmd.report))
        spans_per_pass.append(tracer.pass_metrics(summaries))
        spans_per_pass[-1]["cli.report_bytes"] = report_bytes
        traced_walls.append(sum(s["wall_s"] - s["replay_s"] for s in summaries))
        details.append([{"tag": c.tag, "wall_s": s["wall_s"], "replay_s": s["replay_s"],
                         "unattributed_s": s["unattributed_s"]} for c, s in zip(cmds, summaries)])
        span = time.monotonic() - t0
        now = time.monotonic()
        if now - begin + span > seconds or now + span > runner.deadline:
            break
    metrics = {}
    for name in spans_per_pass[0]:
        values = [p[name] for p in spans_per_pass]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                runner.problems.append(f"{name} differs between identical passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.import_numpy_s"] = statistics.median(s[0] for s in splits)
    metrics["cli.import_thermopower_s"] = statistics.median(s[1] for s in splits)
    metrics["tracing.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain)
    return ({k: (v, unit_of(k)) for k, v in metrics.items()},
            {"traced_passes": (len(spans_per_pass), "count"), "traced_commands": (details, "")})


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("us_per_row", "us_per_sample")):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(("bytes", "bytes_written")):
        return "B"
    return "count"


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        t0 = time.monotonic()
        plan = PLANS[workload](seed, work)
        corpus_s = time.monotonic() - t0
        runner = Runner(root, work, deadline)
        try:
            if trace:
                metrics, extra = traced(runner, plan, seconds)
            else:
                raw = measure(runner, plan, seconds)
                metrics, extra = end_to_end(raw)
                extra["raw"] = (raw, "")
        finally:
            runner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(root), "corpus": plan.corpus, "corpus_s": corpus_s,
        "metrics": metrics, "extra": extra, "problems": runner.problems,
        "attempted": runner.attempted, "failed": runner.failed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thermopower", "cli.py")):
        print(f"error: no src/thermopower/cli.py under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        res = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=2, default=str)
        env = res["environment"]
        print(f"# {workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
              f"corpus={json.dumps(res['corpus'], sort_keys=True)}")
        print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
        for problem in res["problems"]:
            print(f"# CHECK FAILED {workload}: {problem}")
        for name, (value, unit) in {**res["metrics"], **res["extra"]}.items():
            if not isinstance(value, (list, dict)):
                print(f"{workload} {name} {value} {unit}".rstrip())
        prefix = f"{workload}." if args.workload == "all" else ""
        summary["metrics"].update(
            {prefix + k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()})
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["correct"] = summary["correct"] and not res["problems"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
