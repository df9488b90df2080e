"""BENCHMARK.json and the workloads declare the same metrics.

Run with ``python3 -m unittest discover -s kvccbench -p 'test_*.py'``
from the repository root.  ``run.py`` checks at run time that each
workload reported exactly the declared metrics.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import run  # noqa: E402


class _Context:
    def __init__(self):
        self.metrics = {}

    def metric(self, name, value):
        self.metrics[name] = value


class DeclarationTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            self.spec = json.load(handle)

    def test_workload_names(self):
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_per_layer_metrics(self):
        """Every workload's traced run reports through per_op_metrics."""
        ctx = _Context()
        layers.per_op_metrics(ctx, {"flow": (4, 8, 6), "flow.cut": (1, 2, 2)},
                              2, 0.1)
        self.assertEqual(set(ctx.metrics),
                         {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(ctx.metrics["flow.tests"], 2)
        self.assertEqual(ctx.metrics["flow.cut_found_frac"], 0.25)

    def test_bounds(self):
        for metric in self.spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = next(m for m in self.spec["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual(
            setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
