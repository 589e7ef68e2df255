#!/usr/bin/env python3
"""Self-tests of the repository benchmark (pnsbench/).

    python3 pnsbench/test_pnsbench.py        # ~10 s once built

Every check runs at --shrink size (windows x 0.05, 8 daemon jobs), whose
default-seed digests are stored beside the full-size ones.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (pnsbench/run.py)

WORKLOADS = ["table2_exact", "table2_batched", "capacitance_batched",
             "daemon_fanout"]


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PnsbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.tmp = tempfile.mkdtemp(dir=run.BUILD_DIR, prefix="selftest-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def driver(self, *argv):
        proc = subprocess.run([self.binary, *argv, "--shrink", "--state-dir",
                               "state"], capture_output=True, text=True,
                              timeout=170, cwd=self.tmp)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def bench(self, *argv):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--shrink", "--seconds", "0", *argv],
                              capture_output=True, text=True, timeout=600)
        return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_generators_are_pure_functions_of_the_seed(self):
        for w in WORKLOADS:
            a = self.driver("--workload", w, "--seed", "7", "--describe")
            self.assertEqual(a, self.driver("--workload", w, "--seed", "7",
                                            "--describe"), w)
            self.assertNotEqual(a, self.driver("--workload", w, "--describe"),
                                w)

    def test_default_seed_reproduces_the_presets(self):
        rows = self.driver("--workload", "table2_exact",
                           "--describe").splitlines()
        self.assertEqual(len(rows), 18)
        self.assertEqual(sorted({r.split()[1] for r in rows}),
                         ["seed=42", "seed=43", "seed=44"])
        rows = self.driver("--workload", "capacitance_batched",
                           "--describe").splitlines()
        self.assertEqual(rows[0].split()[0], "full-sun/pns/10mF")
        self.assertEqual(rows[-1].split()[0], "cloud/pns/220mF")

    def test_metric_names_match_benchmark_json(self):
        spec = benchmark_spec()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = self.bench("--workload", "table2_batched",
                                   "--trace", str(trace))
            self.assertEqual(code, 0)
            self.assertTrue(out["correct"])
            self.assertEqual(sorted(out),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                             {m["name"]: m["unit"] for m in spec[group]})

    def test_traced_bytes_equal_untraced_bytes(self):
        for w in WORKLOADS:
            dumps = []
            for trace in ("0", "1"):
                dump = os.path.join(self.tmp, f"{w}-{trace}.bytes")
                self.driver("--workload", w, "--seed", "9", "--seconds", "0",
                            "--trace", trace, "--dump", dump)
                with open(dump, "rb") as f:
                    dumps.append(f.read())
            self.assertEqual(dumps[0], dumps[1], w)

    def test_daemon_fanout_has_no_retries(self):
        code, out = self.bench("--workload", "daemon_fanout", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertEqual(out["metrics"]["sweepd.retries"]["value"], 0)
        self.assertGreater(out["metrics"]["sweepd.rows_per_lease"]["value"], 0)

    def test_corrupted_digest_fails_the_run(self):
        with open(run.DIGESTS) as f:
            digests = json.load(f)
        digests["table2_exact:shrink"] = "0" * 64
        corrupt = os.path.join(self.tmp, "digests.json")
        with open(corrupt, "w") as f:
            json.dump(digests, f)
        code, out = self.bench("--workload", "table2_exact",
                               "--digests", corrupt)
        self.assertNotEqual(code, 0)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])
        code, out = self.bench("--workload", "table2_exact")
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])


if __name__ == "__main__":
    unittest.main()
