"""Unit tests for the timeline interval helper.

Run from the repository root: python3 -m unittest discover -s otifbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import intervals  # noqa: E402


def ev(name, ph, ts, tid=1):
    return {"name": name, "ph": ph, "ts": ts, "tid": tid, "pid": 1}


def span(name, start, end, tid=1):
    return [ev(name, "B", start, tid), ev(name, "E", end, tid)]


class UnionTest(unittest.TestCase):
    def test_merges_overlapping_and_touching(self):
        self.assertEqual(intervals.union([(5, 7), (0, 2), (1, 3), (3, 4)]),
                         [(0, 4), (5, 7)])

    def test_drops_empty(self):
        self.assertEqual(intervals.union([(2, 2), (4, 3)]), [])

    def test_subtract(self):
        a = [(0, 10), (20, 30)]
        b = [(2, 3), (5, 22), (29, 40)]
        self.assertEqual(intervals.subtract(a, b),
                         [(0, 2), (3, 5), (22, 29)])

    def test_clip(self):
        self.assertEqual(intervals.clip([(0, 5), (8, 12), (20, 30)], 3, 10),
                         [(3, 5), (8, 10)])


class PreparePhasesTest(unittest.TestCase):
    CAP = 1 << 10

    def test_nested_spans_count_once(self):
        events = (span("bench/prepare", 0, 100e6)
                  + span("pipeline/run", 10e6, 30e6)
                  + span("stage/detect", 12e6, 20e6)   # nested in run
                  + span("proxy/render", 13e6, 14e6))  # nested twice
        [p] = intervals.prepare_phases(events, self.CAP)
        self.assertAlmostEqual(p["wall_s"], 100.0)
        self.assertAlmostEqual(p["pipeline_s"], 20.0)
        self.assertAlmostEqual(p["tune_s"], 0.0)
        self.assertAlmostEqual(p["train_s"], 80.0)

    def test_overlapping_spans_across_threads(self):
        events = (span("bench/prepare", 0, 100e6, tid=1)
                  + span("pipeline/run", 10e6, 40e6, tid=1)
                  + span("pipeline/run", 30e6, 50e6, tid=2)
                  + span("tuner/round", 60e6, 90e6, tid=1)
                  + span("pipeline/run", 70e6, 95e6, tid=2))
        [p] = intervals.prepare_phases(events, self.CAP)
        self.assertAlmostEqual(p["pipeline_s"], 40.0 + 5.0)  # 10-50, 90-95
        self.assertAlmostEqual(p["tune_s"], 30.0)
        self.assertAlmostEqual(p["train_s"], 100.0 - 75.0)

    def test_spans_outside_window_are_ignored(self):
        events = (span("pipeline/run", 0, 10e6, tid=2)
                  + span("bench/prepare", 20e6, 30e6)
                  + span("pipeline/run", 25e6, 50e6, tid=2))
        [p] = intervals.prepare_phases(events, self.CAP)
        self.assertAlmostEqual(p["pipeline_s"], 5.0)
        self.assertAlmostEqual(p["train_s"], 5.0)

    def test_wrapped_ring_is_truncated_not_idle(self):
        # Thread 2's ring (capacity 4) lost the begin of a pipeline run that
        # started inside the window: it starts with an orphan end event.
        events = (span("bench/prepare", 0, 100e6, tid=1)
                  + [ev("pipeline/run", "E", 40e6, tid=2)]
                  + span("pipeline/run", 50e6, 60e6, tid=2)
                  + [ev("stage/detect", "B", 70e6, tid=2)])
        with self.assertRaises(intervals.TruncatedTimeline):
            intervals.prepare_phases(events, capacity=4)

    def test_full_ring_is_truncated(self):
        # A ring holding exactly `capacity` balanced events may still have
        # dropped older ones.
        events = (span("bench/prepare", 0, 100e6, tid=1)
                  + span("pipeline/run", 50e6, 60e6, tid=2)
                  + span("pipeline/run", 70e6, 80e6, tid=2))
        with self.assertRaises(intervals.TruncatedTimeline):
            intervals.prepare_phases(events, capacity=4)

    def test_wrap_before_window_is_harmless(self):
        events = ([ev("pipeline/run", "E", 5e6, tid=2)]
                  + span("bench/prepare", 10e6, 20e6, tid=1)
                  + span("pipeline/run", 12e6, 14e6, tid=2))
        [p] = intervals.prepare_phases(events, self.CAP)
        self.assertAlmostEqual(p["pipeline_s"], 2.0)

    def test_missing_window_is_truncated(self):
        with self.assertRaises(intervals.TruncatedTimeline):
            intervals.prepare_phases(span("pipeline/run", 0, 1), self.CAP)


if __name__ == "__main__":
    unittest.main()
