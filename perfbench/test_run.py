#!/usr/bin/env python3
"""Self-tests of the benchmark's output check and metric names.

    python3 perfbench/test_run.py

Needs no build: the checks run on canned cache_explorer outputs.
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SWEEP_REF = """\
configuration  L1 hit  L2 full hit  TLB hit  host MB/frame  retries  degraded
-----------------------------------------------------------------------------
1 MB L2        95.92%  89.1%        -        4.630          -        -
16 MB L2       95.92%  93.8%        -        2.652          -        -

3C miss classification (run totals):
configuration  cache  compulsory  capacity  conflict
----------------------------------------------------
1 MB L2        L1     13133       82108     39027
1 MB L2        L2     13133       0         0
16 MB L2       L1     13133       82108     39027
16 MB L2       L2     13133       0         0

reuse-distance profile of '1 MB L2':
L1 miss-ratio curve (unit 64 B, 9347296 accesses, 13133 units)
        64 B |##################                              | 0.3694

L2 miss-ratio curve (unit 64 B, 134268 accesses, 13133 units)
        64 B |################################################| 1.0000
"""

# What the CLI prints around the same blocks.
SWEEP_CLI = ("sweeping 'l2' over village (2 frames, trilinear filtering, "
             "2 legs, 1 jobs)...\n" +
             SWEEP_REF.replace("\nreuse-distance",
                               "\ntop 8 textures by attributed miss "
                               "traffic:\nconfiguration  tex\n"
                               "1 MB L2        4\n\nreuse-distance"))

LABELS = ["1 MB L2", "16 MB L2"]
FRAMES = 2


class SweepCheckTest(unittest.TestCase):
    def test_identical_output_passes(self):
        self.assertEqual(run.sweep_labels(SWEEP_REF), LABELS)
        failed, notes = run.check_sweep(SWEEP_CLI, 0, SWEEP_REF, LABELS,
                                        FRAMES)
        self.assertEqual((failed, notes), (0, []))

    def test_perturbed_counter_is_rejected(self):
        cli = SWEEP_CLI.replace("16 MB L2       L1     13133       82108",
                                "16 MB L2       L1     13133       82109")
        self.assertNotEqual(cli, SWEEP_CLI)
        failed, _ = run.check_sweep(cli, 0, SWEEP_REF, LABELS, FRAMES)
        self.assertEqual(failed, FRAMES)  # one configuration's frames

    def test_perturbed_rate_is_rejected(self):
        cli = SWEEP_CLI.replace("93.8%", "93.9%")
        failed, _ = run.check_sweep(cli, 0, SWEEP_REF, LABELS, FRAMES)
        self.assertEqual(failed, FRAMES)

    def test_perturbed_profile_is_rejected(self):
        cli = SWEEP_CLI.replace("0.3694", "0.3695")
        failed, _ = run.check_sweep(cli, 0, SWEEP_REF, LABELS, FRAMES)
        self.assertEqual(failed, FRAMES)

    def test_quarantined_leg_is_rejected(self):
        cli = SWEEP_CLI.replace("16 MB L2       95.92%",
                                "16 MB L2 [quarantined]  95.92%")
        failed, _ = run.check_sweep(cli, 0, SWEEP_REF, LABELS, FRAMES)
        self.assertGreaterEqual(failed, FRAMES)

    def test_missing_block_fails_every_operation(self):
        cli = SWEEP_CLI.split("\n3C miss")[0]
        failed, _ = run.check_sweep(cli, 0, SWEEP_REF, LABELS, FRAMES)
        self.assertEqual(failed, len(LABELS) * FRAMES)

    def test_nonzero_exit_fails_every_operation(self):
        failed, _ = run.check_sweep(SWEEP_CLI, 2, SWEEP_REF, LABELS, FRAMES)
        self.assertEqual(failed, len(LABELS) * FRAMES)


class StreamCheckTest(unittest.TestCase):
    ROWS = ["round,accesses,l1_misses",
            "0,943680,2256",
            "1,950724,2255"]

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        for i in range(2):
            self.write("ref.stream%d.csv" % i, self.ROWS)
            self.write("cli.stream%d.csv" % i, self.ROWS)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, rows):
        with open(os.path.join(self.dir.name, name), "w") as f:
            f.write("\n".join(rows) + "\n")

    def check(self, code=0):
        return run.check_streams(code, os.path.join(self.dir.name, "cli"),
                                 self.dir.name, 2, 2)[0]

    def test_identical_output_passes(self):
        self.assertEqual(self.check(), 0)

    def test_perturbed_counter_is_rejected(self):
        self.write("cli.stream1.csv",
                   self.ROWS[:2] + ["1,950724,2256"])
        self.assertEqual(self.check(), 1)

    def test_missing_rows_are_rejected(self):
        self.write("cli.stream0.csv", self.ROWS[:2])
        self.assertEqual(self.check(), 1)

    def test_nonzero_exit_fails_every_operation(self):
        self.assertEqual(self.check(code=2), 4)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.cwd = os.getcwd()
        os.chdir(os.path.dirname(HERE))
        with open("BENCHMARK.json") as f:
            self.bench = json.load(f)

    def tearDown(self):
        os.chdir(self.cwd)

    def test_layer_table_names_every_per_layer_metric(self):
        names = [m["name"] for m in self.bench["per_layer"]]
        self.assertEqual(sorted(run.LAYER_MAP), sorted(names))

    def test_result_line_rejects_unknown_or_missing_names(self):
        names = {m["name"]: 1.0 for m in self.bench["end_to_end"]}
        line = json.loads(run.result_line(True, 1, 0, names, "end_to_end"))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])
        self.assertEqual(sorted(line["metrics"]), sorted(names))
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, dict(names, extra=1.0),
                            "end_to_end")
        del names["setup_s"]
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, names, "end_to_end")

    def test_workloads_match(self):
        names = sorted(w["name"] for w in self.bench["workloads"])
        self.assertEqual(names, sorted(list(run.SWEEP_FLAGS) +
                                       ["streams_shared"]))


if __name__ == "__main__":
    unittest.main()
