"""Unit tests of the benchmark's statistics.

Run from the repository root: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class NearestRank(unittest.TestCase):
    def test_picks_the_smallest_sample_covering_p(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(stats.nearest_rank(values, 5), 15)
        self.assertEqual(stats.nearest_rank(values, 30), 20)
        self.assertEqual(stats.nearest_rank(values, 40), 20)
        self.assertEqual(stats.nearest_rank(values, 50), 35)
        self.assertEqual(stats.nearest_rank(values, 100), 50)

    def test_is_a_sample_and_ignores_order(self):
        values = [9.5, 1.0, 3.25, 7.0]
        self.assertEqual(stats.nearest_rank(values, 75), 7.0)
        self.assertIn(stats.nearest_rank(values, 62.5), values)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1.0], 0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1.0], 101)


class Tail(unittest.TestCase):
    def test_reports_the_highest_percentile_with_ten_samples_beyond(self):
        # 1,000 samples: p99 leaves exactly 10 above it; p99.5 leaves 5.
        values = list(range(1, 1001))
        self.assertEqual(stats.tail(values), (99.0, 990))
        # 100 samples: p90 leaves 10; p95 only 5.
        self.assertEqual(stats.tail(list(range(100))), (90.0, 89))

    def test_needs_twenty_samples_for_the_median(self):
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(20))), (50.0, 9))

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(stats.beyond(1000, 99.0), 10)
        self.assertEqual(stats.beyond(10_000, 99.9), 10)
        self.assertEqual(stats.beyond(5, 100.0), 0)


class MedianAndQuartiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_exclusive_method(self):
        q1, med, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))

    def test_one_sample_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([4.5]), (4.5, 4.5, 4.5))

    def test_summary(self):
        s = stats.summary([10.0, 10.0, 11.0, 12.0])
        self.assertEqual((s["n"], s["median"], s["q1"], s["q3"]), (4, 10.5, 10.0, 11.75))
        self.assertIsNone(s["tail"])

    def test_empty_samples_are_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.quartiles([])


if __name__ == "__main__":
    unittest.main()
