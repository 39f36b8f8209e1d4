"""Seeded input corpora for the benchmark workloads.

Every input comes from ``numpy.random.default_rng`` seeded with the
workload seed and is written with ``repr`` formatting, so the same seed
gives byte-identical files.  Nothing here imports ``thermopower``: a
change to the program (its trace writer or its synthetic generator, say)
cannot change what it is fed.  The built-in coefficient sets are copied
below as plain data for the same reason.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# label: (m1..m7, a2), the package's two built-in calibrations
COEFFS = {
    "A7": ((0.028, -0.093, 0.371, 2.202, -38.242, 187.668, 8.430), 33.105),
    "A15": ((0.220, -0.315, 0.467, 2.202, -56.652, 165.896, 8.430), 33.105),
}
# operating points (GHz) covered per processor
FREQS = {
    "A7": (0.6, 0.8, 1.0, 1.2, 1.4),
    "A15": (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
}
HEADER = "time_s,temp_c,power_w"
SAMPLE_PERIOD_S = 0.2  # 5 Hz, as in the paper's traces
SWEEP_C = (25.0, 85.0)
NOISE_W = 0.002
REF_TEMP_C = 55.0  # debias reference, inside SWEEP_C

FLEET_TRACES = 4000
FLEET_SAMPLES = 20
LONG_SAMPLES = 100_000
LONG_TRACES = 3  # noise realisations the long-trace passes rotate through
SMALL_SAMPLES = 20
# distant-sensor constants whose B(t) runs through every erf branch
SENSOR_MODEL = {"alpha": 4.125e-7, "a": 8.25e-3, "b": 36.7, "t_init_c": 25.0, "t_inf_c": 55.0}


def derive(m, a2, freq, cores):
    """(a0, a1, a2) of the power model at (freq, cores); see powermodel.py."""
    m1, m2, m3, m4, m5, m6, m7 = m
    g_s = m1 + m2 * freq + m3 * freq * freq
    a0 = g_s * cores + g_s / m4
    a1 = m5 * freq + m6 + (5 - cores) * m7
    return a0, a1, a2


def _rows(*columns) -> str:
    return "".join(
        ",".join(repr(v) for v in row) + "\n" for row in zip(*(c.tolist() for c in columns))
    )


def _trace_text(meta, times, temps, powers) -> str:
    proc, freq, cores = meta
    return f"#processor={proc}\n#freq_ghz={freq!r}\n#cores={cores}\n{HEADER}\n" + _rows(
        times, temps, powers
    )


class Digest:
    """Writes a corpus's files and keeps their count, size and a sha256 over all."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files = self.bytes = self.lines = 0
        self._h = hashlib.sha256()
        os.makedirs(out_dir, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        data = text.encode("utf-8")
        path = os.path.join(self.out_dir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        self.files += 1
        self.bytes += len(data)
        self.lines += text.count("\n")
        self._h.update(name.encode() + b"\0" + data)
        return name

    def record(self) -> dict:
        return {"files": self.files, "bytes": self.bytes, "lines": self.lines,
                "sha256": self._h.hexdigest()}


def _operating_point(rng, proc: str):
    freqs = FREQS[proc]
    return proc, freqs[int(rng.integers(len(freqs)))], int(rng.integers(1, 5))


def _exp_trace(rng, meta, n: int, noise_w: float, lo: float, hi: float):
    params = derive(*COEFFS[meta[0]], meta[1], meta[2])
    a0, a1, a2 = params
    temps = np.linspace(lo, hi, n)
    powers = np.exp((temps - a1) / a2) + a0 + rng.normal(0.0, noise_w, n)
    return params, (np.arange(n) * SAMPLE_PERIOD_S, temps, powers)


def fleet(seed: int, out_dir: str) -> dict:
    """4000 short traces over A7/A15 operating points at 2-10 mW noise."""
    rng = np.random.default_rng([seed, 1])
    files = Digest(out_dir)
    paths, metas = [], []
    for i in range(FLEET_TRACES):
        meta = _operating_point(rng, ("A7", "A15")[int(rng.integers(2))])
        noise_w = float(rng.uniform(0.002, 0.010))
        lo, hi = float(rng.uniform(25.0, 30.0)), float(rng.uniform(80.0, 85.0))
        _, cols = _exp_trace(rng, meta, FLEET_SAMPLES, noise_w, lo, hi)
        paths.append(files.write(f"t{i:04d}.csv", _trace_text(meta, *cols)))
        metas.append(meta)
    return {"paths": paths, "metas": metas, "corpus": files.record()}


def _series(rng, n: int):
    """A distant sensor warming towards the step temperature, with power."""
    times = (np.arange(n) + 1) * SAMPLE_PERIOD_S
    temps = 40.0 + 30.0 * (1.0 - np.exp(-3.0 * times / times[-1])) + rng.normal(0.0, 0.05, n)
    powers = 1.0 + 0.02 * temps + rng.normal(0.0, 0.002, n)
    return times, temps, powers


def single(seed: int, out_dir: str, n: int, n_traces: int, stream: int) -> dict:
    """n-sample A15 traces, one n-sample sensor series, a sensor model, gen args."""
    rng = np.random.default_rng([seed, stream])
    files = Digest(out_dir)
    traces = []
    for k in range(n_traces):
        meta = _operating_point(rng, "A15")
        params, cols = _exp_trace(rng, meta, n, NOISE_W, *SWEEP_C)
        path = files.write(f"trace{k}.csv", _trace_text(meta, *cols))
        traces.append({"path": path, "meta": meta, "params": params})
    series = files.write("series.csv", HEADER + "\n" + _rows(*_series(rng, n)))
    model = files.write("sensor.json", json.dumps(SENSOR_MODEL, sort_keys=True) + "\n")
    gen = {"meta": traces[0]["meta"], "params": traces[0]["params"], "n": n,
           "seed": int(rng.integers(2**31))}
    return {"traces": traces, "series": series, "sensor_model": model, "gen": gen,
            "files": files}


def long_trace(seed: int, out_dir: str) -> dict:
    inputs = single(seed, out_dir, LONG_SAMPLES, LONG_TRACES, 2)
    inputs["corpus"] = inputs.pop("files").record()
    return inputs


def cli_small(seed: int, out_dir: str) -> dict:
    """20-sample inputs plus a coefficient set and 16 model observations."""
    inputs = single(seed, out_dir, SMALL_SAMPLES, 1, 3)
    files = inputs.pop("files")
    rng = np.random.default_rng([seed, 4])
    m, a2 = COEFFS["A15"]
    # a perturbed calibration, so --coeffs differs from the built-in sets
    m_cal = [float(v) for v in np.asarray(m) * rng.uniform(0.95, 1.05, 7)]
    a2_cal = a2 * float(rng.uniform(0.95, 1.05))
    coeffs = {"label": f"cal{seed}", "m": m_cal, "a2": a2_cal}
    obs = []
    for f in sorted(float(f) for f in rng.choice(FREQS["A15"], 4, replace=False)):
        for c in (1, 2, 3, 4):
            a0, a1, a2o = derive(m_cal, a2_cal, f, c)
            obs.append({"freq_ghz": f, "cores": c, "a0": a0, "a1": a1, "a2": a2o})
    proc = ("A7", "A15")[int(rng.integers(2))]
    inputs.update(
        coeffs=files.write("coeffs.json", json.dumps(coeffs, sort_keys=True) + "\n"),
        coeffs_set=coeffs,
        observations=files.write("observations.json", json.dumps(obs, sort_keys=True) + "\n"),
        n_observations=len(obs),
        eval_point=(proc, float(np.round(rng.uniform(30.0, 80.0), 3)),
                    *_operating_point(rng, proc)[1:]),
        corpus=files.record(),
    )
    return inputs
