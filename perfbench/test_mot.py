"""CLEAR MOT scorer checks on hand-built tables.

    python3 -m pytest perfbench/test_mot.py
"""
import math

import pytest

import mot


def _path(x0, dx, steps):
    return [(x0 + dx * t, 10.0, 100.0) for t in range(steps)]


def _table(paths):
    """{id: [centroid per step]} -> {step: {id: centroid}}."""
    table = {}
    for obj, points in paths.items():
        for step, p in enumerate(points):
            if p is not None:
                table.setdefault(step, {})[obj] = p
    return table


def test_perfect_track():
    truth = _table({0: _path(5.0, 0.5, 6), 1: _path(20.0, -0.5, 6)})
    hyps = _table({7: _path(5.0, 0.5, 6), 9: _path(20.0, -0.5, 6)})
    s = mot.score(truth, hyps)
    assert (s.truths, s.matches, s.misses, s.false_positives) == (12, 12, 0, 0)
    assert s.id_switches == 0
    assert s.mota == 1.0
    assert s.motp == 0.0


def test_offset_sets_motp():
    truth = _table({0: _path(5.0, 0.0, 4)})
    hyps = _table({3: [(5.0, 10.0, 101.0)] * 4})
    s = mot.score(truth, hyps)
    assert s.mota == 1.0
    assert math.isclose(s.motp, 1.0)


def test_one_swap():
    # two tracks trade targets at step 3
    a = _path(5.0, 0.0, 6)
    b = _path(15.0, 0.0, 6)
    truth = _table({0: a, 1: b})
    hyps = _table({1: a[:3] + b[3:], 2: b[:3] + a[3:]})
    s = mot.score(truth, hyps)
    assert s.matches == 12
    assert s.id_switches == 2  # both targets change track once
    assert math.isclose(s.mota, 1.0 - 2 / 12)


def test_kept_correspondence_beats_a_nearer_track():
    # track 2 drifts within range; track 3 appears closer but must not
    # steal the target while the old correspondence holds
    truth = _table({0: _path(5.0, 0.0, 3)})
    hyps = _table({
        2: [(5.0, 10.0, 100.0), (8.0, 10.0, 100.0), (8.5, 10.0, 100.0)],
        3: [None, (5.0, 10.0, 100.0), (5.0, 10.0, 100.0)],
    })
    s = mot.score(truth, hyps)
    assert s.id_switches == 0
    assert s.false_positives == 2


def test_one_miss():
    path = _path(5.0, 0.5, 5)
    truth = _table({0: path})
    hyps = _table({4: path[:2] + [None] + path[3:]})
    s = mot.score(truth, hyps)
    assert (s.misses, s.false_positives, s.id_switches) == (1, 0, 0)
    assert math.isclose(s.mota, 1.0 - 1 / 5)
    assert math.isclose(s.recall, 4 / 5)


def test_one_false_track():
    path = _path(5.0, 0.5, 5)
    truth = _table({0: path})
    hyps = _table({1: path, 2: _path(25.0, 0.0, 5)})
    s = mot.score(truth, hyps)
    assert (s.misses, s.false_positives, s.id_switches) == (0, 5, 0)
    assert s.mota == 0.0
    assert math.isclose(s.precision, 0.5)


def test_out_of_range_is_miss_and_false_positive():
    truth = _table({0: [(5.0, 10.0, 100.0)]})
    hyps = _table({1: [(5.0, 10.0, 104.5)]})
    s = mot.score(truth, hyps)
    assert (s.matches, s.misses, s.false_positives) == (0, 1, 1)


def test_reacquired_by_other_track_counts_a_switch():
    # the target is lost for a step and comes back under a new track id
    path = _path(5.0, 0.0, 4)
    truth = _table({0: path})
    hyps = _table({1: path[:2], 2: [None, None, None, path[3]]})
    s = mot.score(truth, hyps)
    assert (s.misses, s.id_switches) == (1, 1)


def test_empty_truth_is_rejected():
    with pytest.raises(ValueError):
        mot.score({0: {}}, {0: {1: (0.0, 0.0, 0.0)}})
