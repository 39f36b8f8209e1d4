"""Self-tests of the benchmark: every output check rejects a corrupted output.

Run from the repository root with either of

    python3 -m unittest discover -s perfbench -p 'test_*.py'
    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _fit_results(errors):
    """A consistent `thermo fit --model all` results block for per-trace errors."""
    paths = [f"t{i}.csv" for i in range(len(errors))]
    traces = [
        {"path": p, "fits": {k: {"error": e[k], "coeffs": [1.0], "iterations": 0,
                                 "converged": True} for k in checks.KINDS}}
        for p, e in zip(paths, errors)
    ]
    agg = {k: math.sqrt(math.fsum(e[k] ** 2 for e in errors)) for k in checks.KINDS}
    signs = {
        f"{a}_vs_{b}": checks.sign_test_oracle([e[a] for e in errors], [e[b] for e in errors])
        for a, b in checks.PAIRS
    }
    return paths, {"traces": traces, "aggregated": agg, "sign_tests": signs, "failures": []}


ERRORS = [
    {"linear": 0.30 + 0.01 * i, "quadratic": 0.20 + 0.003 * (i % 3), "exponential": 0.10 + 0.02 * i}
    for i in range(9)
]


class FitReport(unittest.TestCase):
    def setUp(self):
        self.paths, self.results = _fit_results(ERRORS)

    def test_consistent_report_passes(self):
        self.assertEqual(checks.fit_report(self.results, self.paths, None), [])

    def test_wrong_p_value_is_rejected(self):
        bad = copy.deepcopy(self.results)
        key = "exponential_vs_quadratic"
        bad["sign_tests"][key] = bad["sign_tests"][key] * (1 + 1e-9)
        self.assertTrue(checks.fit_report(bad, self.paths, None))

    def test_wrong_pooled_error_is_rejected(self):
        bad = copy.deepcopy(self.results)
        bad["aggregated"]["quadratic"] *= 1 + 1e-6
        self.assertTrue(checks.fit_report(bad, self.paths, None))

    def test_missing_entry_is_rejected(self):
        bad = copy.deepcopy(self.results)
        bad["traces"].pop()
        self.assertTrue(checks.fit_report(bad, self.paths, None))

    def test_unlisted_failure_is_rejected(self):
        bad = copy.deepcopy(self.results)
        bad["traces"][0]["fits"]["exponential"] = None
        self.assertTrue(checks.fit_report(bad, self.paths, None))

    def test_group_pools_are_checked(self):
        groups = {"A7/c1": [0, 1, 2], "A15/c4": [3, 4, 5, 6, 7, 8]}
        good = copy.deepcopy(self.results)
        good["groups"] = {
            key: {k: math.sqrt(math.fsum(ERRORS[i][k] ** 2 for i in idxs)) for k in checks.KINDS}
            for key, idxs in groups.items()
        }
        self.assertEqual(checks.fit_report(good, self.paths, groups), [])
        good["groups"]["A7/c1"]["linear"] *= 1.001
        self.assertTrue(checks.fit_report(good, self.paths, groups))

    def test_recovery_bounds(self):
        results = {"traces": [{"fits": {"exponential": {"coeffs": [0.3, 100.2, 33.1]}}}]}
        self.assertEqual(checks.fit_recovery(results, (0.3, 100.0, 33.0)), [])
        results["traces"][0]["fits"]["exponential"]["coeffs"][1] = 101.5
        self.assertTrue(checks.fit_recovery(results, (0.3, 100.0, 33.0)))


class SignTestOracle(unittest.TestCase):
    def test_known_value(self):
        # n=10, 2 wins: 2 * (C(10,0) + C(10,1) + C(10,2)) / 2**10
        a = [0.0] * 2 + [1.0] * 8
        b = [0.5] * 10
        self.assertEqual(checks.sign_test_oracle(a, b), 2 * 56 / 1024)
        self.assertEqual(checks.sign_test_oracle(b, a), 2 * 56 / 1024)

    def test_ties_and_clamp(self):
        self.assertIsNone(checks.sign_test_oracle([1.0, 2.0], [1.0, 2.0]))
        self.assertEqual(checks.sign_test_oracle([0.0, 1.0], [1.0, 0.0]), 1.0)

    def test_large_n_underflows_to_zero(self):
        self.assertEqual(checks.sign_test_oracle([0.0] * 4000, [1.0] * 4000), 0.0)


SOURCE = [[0.2 * i, 25.0 + 3.1 * i, 1.0 + 0.05 * i] for i in range(1, 21)]
MODEL = corpus.SENSOR_MODEL


def _csv(columns, rows):
    return ",".join(columns) + "\n" + "".join(",".join(repr(v) for v in r) + "\n" for r in rows)


class DebiasOutput(unittest.TestCase):
    def make(self, kind, eta):
        results = {"spec": {"kind": kind, "eta": eta, "ref_temp_c": 55.0}}
        rows = [r + [r[2] + checks._shift(kind, eta, 55.0, r[1])] for r in SOURCE]
        return results, rows

    def test_every_kind_passes_and_a_perturbed_power_ref_fails(self):
        for kind, eta in (("linear", [0.01]), ("quadratic", [1e-4, 0.01]),
                          ("exponential", [100.0, 33.0])):
            results, rows = self.make(kind, eta)
            cols = ["time_s", "temp_c", "power_w", "power_ref_w"]
            self.assertEqual(checks.debias_output(results, SOURCE, _csv(cols, rows)), [], kind)
            rows[7][3] *= 1 + 1e-9
            self.assertTrue(checks.debias_output(results, SOURCE, _csv(cols, rows)), kind)

    def test_last_ulp_difference_is_tolerated(self):
        results, rows = self.make("exponential", [100.0, 33.0])
        rows[3][3] = math.nextafter(rows[3][3], math.inf)
        cols = ["time_s", "temp_c", "power_w", "power_ref_w"]
        self.assertEqual(checks.debias_output(results, SOURCE, _csv(cols, rows)), [])

    def test_changed_input_column_fails(self):
        results, rows = self.make("linear", [0.01])
        rows[2][2] = math.nextafter(rows[2][2], math.inf)
        cols = ["time_s", "temp_c", "power_w", "power_ref_w"]
        self.assertTrue(checks.debias_output(results, SOURCE, _csv(cols, rows)))


class SensorOutput(unittest.TestCase):
    def make(self):
        rows = [[t, checks.b_factor(MODEL, t) * temp] for t, temp, _ in SOURCE]
        results = {"n_samples": len(rows), "b_first": checks.b_factor(MODEL, rows[0][0]),
                   "b_last": checks.b_factor(MODEL, rows[-1][0])}
        return results, rows

    def test_correct_output_passes_and_perturbed_fails(self):
        results, rows = self.make()
        self.assertEqual(checks.sensor_output(results, MODEL, SOURCE,
                                              _csv(["time_s", "temp_c"], rows)), [])
        rows[5][1] *= 1 + 1e-9
        self.assertTrue(checks.sensor_output(results, MODEL, SOURCE,
                                             _csv(["time_s", "temp_c"], rows)))

    def test_wrong_b_factor_in_report_fails(self):
        results, rows = self.make()
        results["b_last"] *= 1.01
        self.assertTrue(checks.sensor_output(results, MODEL, SOURCE,
                                             _csv(["time_s", "temp_c"], rows)))


class GenAndModel(unittest.TestCase):
    def test_gen_digest_must_match_the_file(self):
        data = _csv(["time_s", "temp_c", "power_w"], SOURCE).encode()
        good = {"sha256": checks.sha256(data), "n_samples": len(SOURCE)}
        self.assertEqual(checks.gen_output(good, data, len(SOURCE)), [])
        corrupt = data.replace(b",1.05\n", b",1.06\n")
        self.assertNotEqual(corrupt, data)
        self.assertTrue(checks.gen_output(good, corrupt, len(SOURCE)))

    def test_model_eval(self):
        params = corpus.derive(*corpus.COEFFS["A15"], 1.2, 4)
        power = math.exp((50.0 - params[1]) / params[2]) + params[0]
        results = {"params": dict(zip(("a0", "a1", "a2"), params)), "power_w": power}
        self.assertEqual(checks.model_eval(results, params, 50.0), [])
        results["power_w"] = power * (1 + 1e-10)
        self.assertTrue(checks.model_eval(results, params, 50.0))

    def test_model_calibrate(self):
        cs = {"label": "x", "m": [0.2, -0.3, 0.4, 2.2, -56.0, 165.0, 8.4], "a2": 33.0}
        results = {"coeffs": copy.deepcopy(cs), "diagnostics": {"n_observations": 16}}
        self.assertEqual(checks.model_calibrate(results, cs, 16), [])
        results["coeffs"]["m"][3] *= 1.001
        self.assertTrue(checks.model_calibrate(results, cs, 16))


class ProcessAndEnvelope(unittest.TestCase):
    def test_exit_code_and_traceback(self):
        self.assertEqual(checks.process(0, "", 0), [])
        self.assertTrue(checks.process(1, "", 0))
        self.assertTrue(checks.process(0, "Traceback (most recent call last):\nTypeError: x\n", 0))

    def test_printed_report_and_input_digests(self):
        report = {"inputs": {"a.csv": checks.sha256(b"abc")}}
        self.assertEqual(checks.report_envelope(report, b"{}", b"{}", {"a.csv": b"abc"}), [])
        self.assertTrue(checks.report_envelope(report, b"{}", b"{ }", {"a.csv": b"abc"}))
        self.assertTrue(checks.report_envelope(report, b"{}", b"{}", {"a.csv": b"abd"}))


class Tooling(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail(list(range(1, 101))), (90, "p90 of 100"))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, "max of 3"))

    def test_each_pass_is_scaled_by_the_references_around_it(self):
        nominal = run.REFERENCE_NOMINAL_S
        rec = {"tag": "fit", "rss_mb": 40.0, "traces": 1, "fits": 3, "failed_fits": 0,
               "exp_converged": 1, "ok": True}
        raw = {"references": [nominal, 3 * nominal, nominal, nominal],  # host factors 2, 2, 1
               "setup": [{"wall_s": 0.4, "ref": 0}, {"wall_s": 0.2, "ref": 2}],
               "records": [dict(rec, wall_s=4.0, ref=1), dict(rec, wall_s=2.0, ref=2)],
               "passes": [{"traces": 1, "wall_s": 4.0, "ref": 1},
                          {"traces": 1, "wall_s": 2.0, "ref": 2}]}
        metrics, extra = run.end_to_end(raw)
        self.assertAlmostEqual(metrics["setup_s"][0], 0.2)
        self.assertAlmostEqual(metrics["cmd_p50_ms"][0], 2000.0)
        self.assertAlmostEqual(metrics["traces_per_s"][0], 0.5)
        self.assertAlmostEqual(extra["fit_s"][0], 2.0)
        self.assertAlmostEqual(extra["raw_setup_s"][0], 0.3)
        self.assertAlmostEqual(extra["raw_cmd_p50_ms"][0], 3000.0)
        self.assertAlmostEqual(extra["raw_traces_per_s"][0], 0.375)

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [["root", None, 0.0, 10.0, {}], ["a", 0, 1.0, 4.0, {}],
                 ["b", 0, 3.0, 5.0, {}], ["c", 0, 7.0, 8.0, {}], ["d", 1, 2.0, 3.0, {}]]
        children = {0: [1, 2, 3], 1: [4]}
        self.assertAlmostEqual(tracer.self_time(spans, 0, children), 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(tracer.self_time(spans, 1, children), 2.0)

    def test_import_split(self):
        err = ("import time: self [us] | cumulative | imported package\n"
               "import time:      1436 |     133870 |       numpy\n"
               "import time:      9178 |     194656 | thermopower.cli\n")
        numpy_s, own_s = tracer.import_split(err)
        self.assertAlmostEqual(numpy_s, 0.133870)
        self.assertAlmostEqual(own_s, 0.194656 - 0.133870)

    def test_corpus_is_a_function_of_the_seed(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.assertEqual(corpus.cli_small(7, a)["corpus"], corpus.cli_small(7, b)["corpus"])
            self.assertNotEqual(corpus.cli_small(7, a)["corpus"], corpus.cli_small(8, b)["corpus"])


if __name__ == "__main__":
    unittest.main()
