"""Output checks for the benchmark's CLI invocations.

Each check takes what a command produced and returns a list of problems;
an empty list means the output is correct.  Expected values are
recomputed here with the standard library (``math.exp``, ``math.erf``,
exact integer binomials), never taken from the program under test, and
compared with tolerances rather than golden digests so that a legitimate
last-ulp change (``np.exp`` in place of ``math.exp``) still passes.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

KINDS = ("linear", "quadratic", "exponential")
# pairs compared by `thermo fit`, keyed as in the report's sign_tests
PAIRS = (("exponential", "quadratic"), ("quadratic", "linear"), ("exponential", "linear"))
AGG_REL_TOL = 1e-9
P_REL_TOL = 1e-12
P_ABS_TOL = 1e-300  # below this a p-value is zero for every purpose
TRANSFORM_REL_TOL = 1e-12
# acceptance criterion 2's bounds for a noisy exponential recovery
A0_REL, A1_ABS, A2_REL = 0.05, 1.0, 0.02
CALIBRATE_REL_TOL = 1e-6


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def close(a, b, rel: float, abs_tol: float = 0.0) -> bool:
    return (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
        and math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)
    )


def read_csv(text: str):
    """(meta dict, column names, rows of floats) of a thermo CSV file."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return meta, columns or [], rows


def process(code: int, stderr: str, expected: int) -> list[str]:
    problems = []
    if code != expected:
        problems.append(f"exit code {code}, expected {expected}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    return problems


def report_envelope(report: dict, stdout: bytes, report_bytes: bytes, inputs: dict) -> list[str]:
    """The printed report equals the written one and digests its inputs."""
    problems = []
    if stdout != report_bytes:
        problems.append("--json output differs from --out-report file")
    digests = report.get("inputs", {})
    for path, data in inputs.items():
        if digests.get(path) != sha256(data):
            problems.append(f"input digest for {path} is {digests.get(path)!r}")
    return problems


# --- fit ---

def sign_test_oracle(errors_a, errors_b):
    """Exact two-sided sign test: twice the smaller binomial tail, at most 1."""
    wins = sum(1 for a, b in zip(errors_a, errors_b) if a < b)
    losses = sum(1 for a, b in zip(errors_a, errors_b) if a > b)
    n = wins + losses
    if n == 0:
        return None
    term, tail = 1, 1
    for j in range(min(wins, losses)):
        term = term * (n - j) // (j + 1)
        tail += term
    return float(min(Fraction(2 * tail, 2**n), Fraction(1)))


def _pooled(errors) -> float:
    return math.sqrt(math.fsum(e * e for e in errors))


def fit_report(results: dict, paths: list[str], groups: dict[str, list[int]] | None) -> list[str]:
    """`thermo fit --model all`: per-trace entries, pooled errors, sign tests.

    ``groups`` maps a proc-cores key to trace indices when --group-by was used.
    """
    problems = []
    traces = results.get("traces", [])
    if [t.get("path") for t in traces] != paths:
        return [f"{len(traces)} report entries for {len(paths)} traces"]
    fits = [t["fits"] for t in traces]
    failed = {(f["trace"], f["kind"]) for f in results.get("failures", [])}
    for path, row in zip(paths, fits):
        for kind in KINDS:
            fd = row.get(kind)
            if (fd is None) != ((path, kind) in failed):
                problems.append(f"{path} {kind}: fit and failures list disagree")
            elif fd is not None and not (isinstance(fd["error"], float) and fd["error"] >= 0):
                problems.append(f"{path} {kind}: bad error {fd['error']!r}")
    if problems:
        return problems

    def pooled(kind, idxs):
        errs = [fits[i][kind]["error"] for i in idxs if fits[i][kind] is not None]
        return _pooled(errs) if errs else None

    everyone = range(len(fits))
    for kind in KINDS:
        want, got = pooled(kind, everyone), results["aggregated"].get(kind)
        if not (want == got or close(got, want, AGG_REL_TOL)):
            problems.append(f"aggregated[{kind}] = {got!r}, pooled errors give {want!r}")
    for a, b in PAIRS:
        both = [r for r in fits if r[a] is not None and r[b] is not None]
        want = sign_test_oracle([r[a]["error"] for r in both], [r[b]["error"] for r in both])
        got = results["sign_tests"].get(f"{a}_vs_{b}")
        if not (want == got or close(got, want, P_REL_TOL, P_ABS_TOL)):
            problems.append(f"sign test {a}_vs_{b} p = {got!r}, exact oracle {want!r}")
    if groups is not None:
        reported = results.get("groups", {})
        if sorted(reported) != sorted(groups):
            problems.append(f"groups {sorted(reported)} != {sorted(groups)}")
        for key, idxs in groups.items():
            for kind in KINDS:
                want, got = pooled(kind, idxs), reported.get(key, {}).get(kind)
                if not (want == got or close(got, want, AGG_REL_TOL)):
                    problems.append(f"groups[{key}][{kind}] = {got!r}, pooled {want!r}")
    return problems


def fit_recovery(results: dict, params) -> list[str]:
    """The exponential fit lands within criterion 2's noisy-recovery bounds."""
    fd = results["traces"][0]["fits"].get("exponential")
    if fd is None:
        return ["exponential fit failed"]
    a0, a1, a2 = fd["coeffs"]
    g0, g1, g2 = params
    if abs(a0 - g0) / g0 <= A0_REL and abs(a1 - g1) <= A1_ABS and abs(a2 - g2) / g2 <= A2_REL:
        return []
    return [f"exponential fit {fd['coeffs']} misses generating {list(params)}"]


# --- debias ---

def _shift(kind: str, eta, ref: float, temp: float) -> float:
    if kind == "linear":
        (eta1,) = eta
        return eta1 * (ref - temp)
    if kind == "quadratic":
        eta2, eta1 = eta
        return eta2 * (ref * ref - temp * temp) + eta1 * (ref - temp)
    a1, a2 = eta
    return math.exp((ref - a1) / a2) - math.exp((temp - a1) / a2)


def debias_output(results: dict, source_rows, out_text: str) -> list[str]:
    """Input columns come back bit-exact; power_ref_w is P plus the shift."""
    spec = results["spec"]
    meta, columns, rows = read_csv(out_text)
    if columns != ["time_s", "temp_c", "power_w", "power_ref_w"]:
        return [f"debias columns {columns}"]
    if len(rows) != len(source_rows):
        return [f"{len(rows)} debiased rows for {len(source_rows)} input rows"]
    ref = spec["ref_temp_c"]
    for i, (row, src) in enumerate(zip(rows, source_rows)):
        if row[:3] != src:
            return [f"row {i}: input columns changed: {row[:3]} != {src}"]
        want = src[2] + _shift(spec["kind"], spec["eta"], ref, src[1])
        if not close(row[3], want, TRANSFORM_REL_TOL):
            return [f"row {i}: power_ref_w {row[3]!r}, expected {want!r}"]
    return []


# --- sensor-correct ---

def b_factor(model: dict, t: float) -> float:
    delta = model["t_inf_c"] - model["t_init_c"]
    num = delta * (1.0 - math.exp(-t / model["b"])) + model["t_init_c"]
    den = delta * math.erf(model["a"] / math.sqrt(4.0 * model["alpha"] * t)) + model["t_init_c"]
    return num / den


def sensor_output(results: dict, model: dict, source_rows, out_text: str) -> list[str]:
    """Each corrected temperature is B(t) times the sensor reading."""
    _, columns, rows = read_csv(out_text)
    if columns != ["time_s", "temp_c"]:
        return [f"sensor-correct columns {columns}"]
    if len(rows) != len(source_rows) or results.get("n_samples") != len(rows):
        return [f"{len(rows)} corrected rows for {len(source_rows)} input rows"]
    for i, ((t, temp), src) in enumerate(zip(rows, source_rows)):
        if t != src[0]:
            return [f"row {i}: time {t!r} != input {src[0]!r}"]
        want = b_factor(model, t) * src[1]
        if not close(temp, want, TRANSFORM_REL_TOL):
            return [f"row {i}: corrected temp {temp!r}, expected {want!r}"]
    for key, t in (("b_first", rows[0][0]), ("b_last", rows[-1][0])):
        if not close(results.get(key), b_factor(model, t), TRANSFORM_REL_TOL):
            return [f"{key} = {results.get(key)!r}, expected {b_factor(model, t)!r}"]
    return []


# --- gen ---

def gen_output(results: dict, out_bytes: bytes, n_samples: int) -> list[str]:
    problems = []
    if results.get("sha256") != sha256(out_bytes):
        problems.append(f"reported {results.get('sha256')} does not match the file")
    _, columns, rows = read_csv(out_bytes.decode("utf-8"))
    if columns != ["time_s", "temp_c", "power_w"] or len(rows) != n_samples:
        problems.append(f"gen wrote {len(rows)} rows of {columns}")
    elif results.get("n_samples") != n_samples:
        problems.append(f"gen reports {results.get('n_samples')} samples")
    return problems


# --- model eval / calibrate ---

def model_eval(results: dict, params, temp: float) -> list[str]:
    a0, a1, a2 = params
    got = results["params"]
    problems = [
        f"{name} = {got[name]!r}, expected {want!r}"
        for name, want in (("a0", a0), ("a1", a1), ("a2", a2))
        if not close(got[name], want, TRANSFORM_REL_TOL)
    ]
    want = math.exp((temp - a1) / a2) + a0
    if not close(results["power_w"], want, TRANSFORM_REL_TOL):
        problems.append(f"power_w = {results['power_w']!r}, expected {want!r}")
    return problems


def model_calibrate(results: dict, coeffs: dict, n_obs: int) -> list[str]:
    """Noiseless observations of a coefficient set calibrate back to it."""
    got = results["coeffs"]
    want = list(coeffs["m"]) + [coeffs["a2"]]
    have = list(got["m"]) + [got["a2"]]
    problems = [
        f"coefficient {i}: {h!r}, generated from {w!r}"
        for i, (h, w) in enumerate(zip(have, want))
        if not close(h, w, CALIBRATE_REL_TOL)
    ]
    if len(have) != len(want):
        problems.append(f"{len(have)} coefficients")
    if results["diagnostics"]["n_observations"] != n_obs:
        problems.append(f"calibrated from {results['diagnostics']['n_observations']} observations")
    return problems
