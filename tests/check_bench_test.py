#!/usr/bin/env python3
"""Pins the perf gate's per-metric direction (bench/check_bench.py).

Each case writes a baseline and a current bench file, runs the gate
with its default margin (2x), and checks the verdict: an improvement
must pass and a regression beyond the margin must fail, for metrics
where higher is better and for ones where lower is better, including
latency columns inside a file whose unit is a rate.

Usage: check_bench_test.py <path to check_bench.py>
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = None

SERVER_ROW = {"mode": "socket_4conns", "shards": 1, "records_per_sec": 231500,
              "fsyncs": 314, "srv_p50_us": 982.578, "srv_p99_us": 3984.736}
INSERT_ROW = {"n": 100000, "ddsketch": 15.62, "hdr": 9.07}


def bench_file(unit, row):
    return {"bench": "test", "unit": unit, "rows": [row]}


class GateDirectionTest(unittest.TestCase):
    def verdict(self, unit, base_row, changes):
        """Exit code of the gate for `base_row` vs `base_row` with each
        metric in `changes` multiplied by its factor."""
        cur_row = dict(base_row)
        for name, factor in changes.items():
            cur_row[name] = base_row[name] * factor
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, row in (("base", base_row), ("cur", cur_row)):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w") as f:
                    json.dump(bench_file(unit, row), f)
                paths.append(path)
            run = subprocess.run(
                [sys.executable, GATE, "--baseline", paths[0],
                 "--current", paths[1]],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return run.returncode, run.stdout

    def assertPasses(self, unit, row, changes):
        code, out = self.verdict(unit, row, changes)
        self.assertEqual(code, 0, out)

    def assertFails(self, unit, row, changes):
        code, out = self.verdict(unit, row, changes)
        self.assertEqual(code, 1, out)

    def test_latency_in_rate_file_improvement_passes(self):
        self.assertPasses("records_per_sec", SERVER_ROW,
                          {"srv_p50_us": 0.5, "srv_p99_us": 0.2})

    def test_latency_in_rate_file_regression_fails(self):
        self.assertFails("records_per_sec", SERVER_ROW, {"srv_p99_us": 2.5})

    def test_throughput_improvement_passes(self):
        self.assertPasses("records_per_sec", SERVER_ROW,
                          {"records_per_sec": 3.0})

    def test_throughput_regression_fails(self):
        self.assertFails("records_per_sec", SERVER_ROW,
                         {"records_per_sec": 0.4})

    def test_within_margin_passes_both_ways(self):
        self.assertPasses("records_per_sec", SERVER_ROW,
                          {"records_per_sec": 0.6, "srv_p99_us": 1.8})

    def test_ns_unit_improvement_passes(self):
        self.assertPasses("ns_per_add", INSERT_ROW, {"ddsketch": 0.5})

    def test_ns_unit_regression_fails(self):
        self.assertFails("ns_per_add", INSERT_ROW, {"hdr": 2.5})


if __name__ == "__main__":
    GATE = sys.argv.pop(1)
    unittest.main()
