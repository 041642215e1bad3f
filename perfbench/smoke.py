"""Smoke tests of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload at ``--size tiny`` in both modes, checks that each
declared metric is emitted with its unit, that the traced run attributes
at least 95% of its wall time, and that each correctness gate trips when
an expected value is corrupted.
"""

import json
import shutil
import subprocess
import sys
import unittest

import harness
import run

MIN_ATTRIBUTED_SHARE = 0.95


def bench(workload, trace=0, expected=None, seconds=1):
    argv = [sys.executable, str(harness.HERE / "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", str(seconds), "--trace",
            str(trace), "--size", "tiny"]
    if expected is not None:
        argv += ["--expected", str(expected)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300,
                          cwd=str(harness.ROOT))
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (
            workload, done.returncode, done.stderr[-3000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):

    def check_result(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name], name)
            self.assertIsInstance(metric["value"], float)

    def test_end_to_end_metrics(self):
        names = run.declared(trace=0)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload)
                self.check_result(result, names)
                self.assertEqual(set(result["metrics"]), set(names))
                for name in names:
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_per_layer_metrics(self):
        names = run.declared(trace=1)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, trace=1)
                self.check_result(result, names)
                self.assertEqual(set(result["metrics"]), set(names))
                self.assertGreaterEqual(
                    result["metrics"]["trace.attributed_share"]["value"],
                    MIN_ATTRIBUTED_SHARE)


class Gates(unittest.TestCase):
    """Each gate must trip when the value it compares against is wrong."""

    def setUp(self):
        self.work = harness.work_dir("smoke")
        self.expected = harness.load_expected()

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def corrupted_run(self, workload):
        path = self.work / "expected.json"
        with open(path, "w") as handle:
            json.dump(self.expected, handle)
        return bench(workload, expected=path)

    def test_paper_idct_gate(self):
        self.expected["paper_idct"]["common"]["psnr_db"]["akiyo"][1] += 1e-9
        result = self.corrupted_run("paper_idct")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_stat_arms_gate(self):
        for entry in self.expected["stat_arms_mult16"]["tiny"]["campaigns"]:
            entry["digest"] = "0" * 64
        result = self.corrupted_run("stat_arms_mult16")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"] * 2, result["attempted"])

    def test_serve_gate(self):
        """The served answers are compared with direct results; corrupt
        the direct side and every kind of answer must be refused."""
        sys.path.insert(0, str(harness.SRC))
        import serve_mult16 as serve

        inputs = serve.build_inputs("tiny", 7)
        oracle = serve.Oracle(inputs)
        for kind, payload in inputs["fill"]:
            with self.subTest(kind=kind):
                if kind == "characterize":
                    want = oracle.characterize_point(payload)
                    served = [{"precision": want["precision"],
                               "metrics": {"delay_ps": want["fresh"],
                                           "area_um2": want["area"],
                                           "leakage_nw": want["leakage"],
                                           "gates": want["gates"],
                                           "depth": want["depth"]},
                               "aged": want["aged"]}]
                    self.assertTrue(oracle.matches(kind, payload, served))
                    served[0]["metrics"]["delay_ps"] += 1e-9
                else:
                    served = json.loads(json.dumps(
                        oracle.direct[harness.canonical(payload)]))
                    self.assertTrue(oracle.matches(kind, payload, served))
                    served["fresh_clock_ps"] += 1e-9
                self.assertFalse(oracle.matches(kind, payload, served))


if __name__ == "__main__":
    unittest.main(verbosity=2)
