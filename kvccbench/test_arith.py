"""Unit tests of the benchmark arithmetic.

Run with ``python3 -m unittest discover -s kvccbench -p 'test_*.py'``
(or ``python3 -m pytest kvccbench``) from the repository root.
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import arith  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(arith.percentile(values, 0), 1.0)
        self.assertEqual(arith.percentile(values, 100), 4.0)
        self.assertAlmostEqual(arith.percentile(values, 50), 2.5)
        self.assertAlmostEqual(arith.percentile(values, 25), 1.75)

    def test_order_does_not_matter(self):
        self.assertEqual(
            arith.percentile([5, 1, 3], 50), arith.percentile([1, 3, 5], 50)
        )

    def test_failures_sort_last(self):
        values = [1.0] * 9 + [math.inf]
        self.assertEqual(arith.percentile(values, 100), math.inf)
        self.assertEqual(arith.percentile(values, 50), 1.0)

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            arith.percentile([], 50)
        with self.assertRaises(ValueError):
            arith.percentile([1.0], 101)


class TailTest(unittest.TestCase):
    def test_ten_beyond_is_reportable(self):
        values = list(range(1, 1001))
        result = arith.tail(values, 99)
        self.assertEqual(result["samples"], 1000)
        self.assertEqual(result["beyond"], 10)
        self.assertTrue(result["reportable"])

    def test_too_few_beyond(self):
        result = arith.tail(list(range(300)), 99)
        self.assertEqual(result["beyond"], 3)
        self.assertFalse(result["reportable"])


class BestWindowTest(unittest.TestCase):
    def test_stalled_windows_do_not_decide(self):
        calm = [1.0 + i / 1000 for i in range(1100)]
        stalled = calm[:1050] + [50.0 + i for i in range(50)]
        result = arith.best_window([stalled, calm, stalled], 99)
        self.assertAlmostEqual(result["value"], arith.percentile(calm, 99))
        self.assertTrue(result["reportable"])
        self.assertEqual(result["samples"], [1100, 1100, 1100])

    def test_every_window_must_be_reportable(self):
        result = arith.best_window([list(range(1000)), list(range(100))], 99)
        self.assertFalse(result["reportable"])


class OpenLoopTest(unittest.TestCase):
    def test_latency_from_intended_send(self):
        # The second request was sent late because the first stalled:
        # its latency includes that wait.
        got = arith.latencies([0.0, 0.1], [0.5, 0.6], [True, True])
        self.assertAlmostEqual(got[0], 0.5)
        self.assertAlmostEqual(got[1], 0.5)

    def test_failed_request_is_infinite(self):
        got = arith.latencies([0.0, 0.1], [0.2, None], [False, True])
        self.assertEqual(got, [math.inf, math.inf])

    def test_lateness(self):
        got = arith.lateness([0.0, 1.0, 2.0], [0.01, 0.99, None])
        self.assertAlmostEqual(got[0], 0.01)
        self.assertEqual(got[1], 0.0)
        self.assertEqual(got[2], math.inf)


class BacklogTest(unittest.TestCase):
    def test_steady_server_has_no_growth(self):
        intended = [i * 0.01 for i in range(200)]
        done = [t + 0.005 for t in intended]
        growth = arith.backlog_growth(intended, done, 0.0, 2.0)
        self.assertLessEqual(abs(growth), 1)
        self.assertFalse(arith.backlog_grows(growth, 100, 2.0))

    def test_slow_server_grows(self):
        # Offered 100/s, served 50/s: the backlog grows by 50/s.
        intended = [i * 0.01 for i in range(200)]
        done = [i * 0.02 for i in range(200)]
        growth = arith.backlog_growth(intended, done, 0.0, 2.0)
        self.assertAlmostEqual(growth, 50, delta=1)
        self.assertTrue(arith.backlog_grows(growth, 100, 2.0))


class LadderTest(unittest.TestCase):
    def test_step_passes(self):
        self.assertTrue(arith.step_passes(0, False, 0.01, 0.02))
        self.assertFalse(arith.step_passes(1, False, 0.01, 0.02))
        self.assertFalse(arith.step_passes(0, True, 0.01, 0.02))
        self.assertFalse(arith.step_passes(0, False, 0.03, 0.02))

    def _judge(self, sent_delay, service):
        # 200 requests at 100/s over 2 s; each answered ``service`` s
        # after it was sent, ``sent_delay`` s after it was due.
        intended = [i * 0.01 for i in range(200)]
        sent = [t + sent_delay for t in intended]
        done = [t + service for t in sent]
        return arith.judge_step(intended, sent, done, [True] * 200,
                                100, 0.0, 2.0, 0.05)

    def test_judge_step_pass(self):
        result = self._judge(0.001, 0.01)
        self.assertEqual(result["verdict"], "pass")
        self.assertAlmostEqual(result["lateness_p99"], 0.001)

    def test_judge_step_server(self):
        # Sent on time, answered too late: the server's failure.
        self.assertEqual(self._judge(0.0, 0.06)["verdict"], "server")
        # Sent late, but too slow even from the actual send.
        self.assertEqual(self._judge(0.02, 0.06)["verdict"], "server")

    def test_judge_step_client(self):
        # The server answers in 10 ms, but the generator sent 45 ms
        # late: from the schedule the p99 is 55 ms, over the limit.
        result = self._judge(0.045, 0.01)
        self.assertEqual(result["verdict"], "client")
        self.assertAlmostEqual(result["p99"], 0.055)

    def test_highest_pass_before_first_failure(self):
        steps = [
            {"rate": 100, "passed": True},
            {"rate": 300, "passed": False},
            {"rate": 200, "passed": True},
            {"rate": 400, "passed": True},
        ]
        self.assertEqual(arith.ladder_max(steps), 200.0)

    def test_first_step_fails(self):
        self.assertEqual(arith.ladder_max([{"rate": 100, "passed": False}]), 0.0)


if __name__ == "__main__":
    unittest.main()
