"""Self-tests of the end-to-end benchmark.

    python3 -m unittest discover -s e2ebench/tests

The generator tests build the benchmark tool first (into .bench_build/, as
run.py does); the checker and metric-name tests need no build.
"""

import copy
import filecmp
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def report_tests():
    """A well-formed two-task report, as read_tests returns it."""
    fit = {"lnL": -1234.5678901234567, "converged": True}
    return {name: {"h0": dict(fit), "h1": dict(fit, lnL=-1233.25)}
            for name in ("g01", "g02")}


class CheckerTest(unittest.TestCase):
    def test_accepts_a_good_report(self):
        problems = []
        tests = report_tests()
        run.check_report(tests, ["g01", "g02"], problems)
        run.check_same_lnls(run.lnl_bits(tests), run.lnl_bits(tests), "rerun",
                            problems)
        self.assertEqual(problems, [])

    def test_rejects_a_perturbed_lnl(self):
        tests = report_tests()
        perturbed = copy.deepcopy(tests)
        lnl = perturbed["g02"]["h1"]["lnL"]
        perturbed["g02"]["h1"]["lnL"] = float.fromhex(lnl.hex()[:-1] + "1") \
            if lnl.hex()[-1] != "1" else lnl + 1e-12
        problems = []
        run.check_same_lnls(run.lnl_bits(tests), run.lnl_bits(perturbed),
                            "rerun", problems)
        self.assertEqual(len(problems), 1)
        self.assertIn("g02", problems[0])

    def test_rejects_a_missing_task(self):
        tests = report_tests()
        del tests["g02"]
        problems = []
        run.check_report(tests, ["g01", "g02"], problems)
        self.assertTrue(any("missing" in p and "g02" in p for p in problems))

    def test_rejects_a_non_finite_lnl(self):
        for bad in (None, float("inf"), float("nan")):
            tests = report_tests()
            tests["g01"]["h0"]["lnL"] = bad  # JSON null parses to None
            problems = []
            run.check_report(tests, ["g01", "g02"], problems)
            self.assertTrue(any("not finite" in p for p in problems), bad)

    def test_counts_unconverged_fits_as_failed_not_incorrect(self):
        tests = report_tests()
        tests["g01"]["h1"]["converged"] = False
        problems = []
        run.check_report(tests, ["g01", "g02"], problems)
        self.assertEqual(problems, [])
        self.assertEqual(sum(run.test_failed(t) for t in tests.values()), 1)

    def test_rejects_an_oracle_disagreement(self):
        tests = report_tests()
        bits = run.lnl_bits(tests)
        entry = {"lnL0_hex": bits["g01"][0], "lnL1_hex": bits["g01"][1],
                 "oracle0": 0.0, "oracle1": 2e-6}
        problems = []
        run.check_checkpoint({"checkpoint": {"g01": entry}}, bits, problems)
        self.assertEqual(len(problems), 1)
        self.assertIn("codeml-preset", problems[0])


class GapClosedTest(unittest.TestCase):
    """lnl_gap_closed is the guard against speed bought by stopping early."""

    def setUp(self):
        self.tests = report_tests()
        # Input tree 200 lnL units below the truth for every fit.
        self.reference = {
            name: {"truth0": -1240.0, "truth1": -1240.0,
                   "input0": -1440.0, "input1": -1440.0}
            for name in self.tests}

    def test_fits_past_the_truth_count_one(self):
        self.assertEqual(run.lnl_gap_closed(self.tests, self.reference), 1.0)

    def test_a_fit_stopped_short_of_the_truth_lowers_it(self):
        self.tests["g02"]["h0"]["lnL"] = -1290.0  # closed 150 of 200
        self.assertAlmostEqual(
            run.lnl_gap_closed(self.tests, self.reference),
            (3 + 0.75) / 4)

    def test_leaves_out_a_fit_without_a_gap(self):
        # A start above the truth, or less than MIN_GAP_LNL below it, says
        # nothing about how far the fit got.
        self.reference["g01"]["input1"] = -1239.5
        self.reference["g02"]["input1"] = -1230.0
        self.tests["g02"]["h0"]["lnL"] = -1290.0  # closed 150 of 200
        self.assertAlmostEqual(
            run.lnl_gap_closed(self.tests, self.reference), (1 + 0.75) / 2)

    def test_refuses_a_run_where_no_fit_has_a_gap(self):
        for ref in self.reference.values():
            ref["input0"] = ref["input1"] = -1230.0
        with self.assertRaises(ValueError):
            run.lnl_gap_closed(self.tests, self.reference)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_names_and_counts(self):
        e2e = [m["name"] for m in self.spec["end_to_end"]]
        layers = [m["name"] for m in self.spec["per_layer"]]
        workloads = [w["name"] for w in self.spec["workloads"]]
        for name in e2e + layers + workloads:
            self.assertRegex(name, NAME)
        self.assertEqual(len(set(e2e + layers)), len(e2e) + len(layers))
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layers), 128)

    def test_benchmark_json_matches_the_runner(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in self.spec["per_layer"]],
                         list(run.PER_LAYER))
        for m in self.spec["end_to_end"]:
            self.assertEqual((m["unit"], m["better"]), run.END_TO_END[m["name"]])
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual((m["unit"], m["better"]), run.PER_LAYER[m["name"]])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        setup = next(m for m in self.spec["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, cls.tool = run.build()

    def generate(self, workload, seed, where):
        out = Path(where) / f"{workload}-{seed}"
        out.mkdir(parents=True)
        subprocess.run([str(self.tool), "gen", workload, str(seed), str(out)],
                       check=True)
        return out

    def test_same_seed_same_bytes_other_seed_other_genes(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            for workload in run.WORKLOADS:
                a = self.generate(workload, 7, tmp + "/a")
                b = self.generate(workload, 7, tmp + "/b")
                c = self.generate(workload, 8, tmp + "/c")
                files = sorted(p.name for p in a.iterdir())
                self.assertEqual(files, sorted(p.name for p in b.iterdir()))
                _, mismatch, errors = filecmp.cmpfiles(a, b, files,
                                                           shallow=False)
                self.assertEqual((mismatch, errors), ([], []), workload)
                fastas = [f for f in files if f.endswith(".fasta")]
                self.assertTrue(fastas)
                _, differ, _ = filecmp.cmpfiles(a, c, fastas, shallow=False)
                self.assertEqual(differ, fastas, workload)
                # The species tree and control file are workload constants.
                self.assertTrue(filecmp.cmp(a / "tree.nwk", c / "tree.nwk",
                                            shallow=False))


if __name__ == "__main__":
    unittest.main()
