"""Tests of the bound comparison in stability.py."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import stability  # noqa: E402

METRICS = [
    {"name": "throughput_per_s", "better": "higher", "bound": 0.1},
    {"name": "verdict_ms_p50", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def runs(throughput, latency, setup):
    return {"w": {"throughput_per_s": throughput,
                  "verdict_ms_p50": latency, "setup_s": setup}}


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        # quantiles(n=4), exclusive method: 11.75 and 17.25.
        self.assertAlmostEqual(stability.spread(values), 5.5 / 14.5)

    def test_steady_runs_pass(self):
        steady = runs([100, 101, 99, 100], [5.0, 5.1, 4.9, 5.0],
                      [1.0, 3.0, 0.5, 2.0])
        # setup_s spreads widely, but its spread is not bounded.
        self.assertEqual(stability.problems(METRICS, steady), [])

    def test_wide_spread_fails(self):
        wide = runs([100, 150, 60, 100], [5.0, 5.1, 4.9, 5.0],
                    [1.0, 1.0, 1.0, 1.0])
        found = stability.problems(METRICS, wide)
        self.assertEqual(len(found), 1)
        self.assertIn("throughput_per_s", found[0])


class BoundComparisonTest(unittest.TestCase):
    base = runs([100, 100, 100], [5.0, 5.0, 5.0], [1.0, 1.0, 1.0])

    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(
            stability.worsening([100], [90], "higher"), 0.1)
        self.assertAlmostEqual(
            stability.worsening([100], [110], "higher"), -0.1)
        self.assertAlmostEqual(stability.worsening([5], [6], "lower"), 0.2)

    def test_within_bound_passes(self):
        other = runs([95, 95, 95], [5.5, 5.5, 5.5], [1.2, 1.2, 1.2])
        self.assertEqual(stability.problems(METRICS, self.base, other), [])

    def test_beyond_bound_fails_for_every_metric(self):
        other = runs([80, 80, 80], [6.5, 6.5, 6.5], [1.3, 1.3, 1.3])
        found = stability.problems(METRICS, self.base, other)
        self.assertEqual(len(found), 3)
        for name in ("throughput_per_s", "verdict_ms_p50", "setup_s"):
            self.assertTrue(any(name in line for line in found), name)

    def test_improvement_never_fails(self):
        other = runs([200, 200, 200], [1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        self.assertEqual(stability.problems(METRICS, self.base, other), [])

    def test_missing_metric_fails(self):
        other = {"w": {"throughput_per_s": [100, 100, 100]}}
        self.assertEqual(
            len(stability.problems(METRICS, self.base, other)), 2)


if __name__ == "__main__":
    unittest.main()
