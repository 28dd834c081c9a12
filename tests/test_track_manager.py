"""Track lifecycle, capacity fusion and the history ring."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photontrack.association import AssocMode, AssociationConfig
from photontrack.errors import ConfigViolationError, EntryEvictedError
from photontrack.labeling import BoundingBox, ImportanceConfig, importance_sort
from photontrack.track_manager import (
    HISTORY_LEN,
    HistoryRing,
    StepRecord,
    Tracker,
    TrackerConfig,
    TrackState,
    reconstruct_backward,
    reconstruct_forward,
)
from frontend_reference import Observation, candidates


def make_obs(center, size=3, photons=50, label=1):
    """Cube observation of odd side ``size`` centered near ``center``."""
    c = np.asarray(center, dtype=float)
    anchor = np.rint(c).astype(int)
    h = (size - 1) // 2
    vox = np.array(
        [
            [x, y, z]
            for x in range(anchor[0] - h, anchor[0] + h + 1)
            for y in range(anchor[1] - h, anchor[1] + h + 1)
            for z in range(anchor[2] - h, anchor[2] + h + 1)
        ]
    )
    return Observation(
        label=label,
        voxels=vox,
        volume=len(vox),
        bbox=BoundingBox(tuple(anchor - h), tuple(anchor + h)),
        centroid=c,
        total_photons=photons,
        peak_photons=max(1, photons // len(vox)),
    )


def run_script(tracker, script):
    """Feed a list of observation lists; returns each step's recorded
    track list (the list the step returned)."""
    out = []
    for obs in script:
        tracker.step(candidates(obs))
        out.append(tracker.ring.latest.tracks)
    return out


def states_of(tracks, track_id):
    for t in tracks:
        if t.track_id == track_id:
            return (t.state, t.bad_count, t.features.age)
    return None


def test_new_coast_reacquire_trace():
    tracker = Tracker(TrackerConfig(max_coast=3))
    hit = [make_obs([5, 5, 50])]
    steps = run_script(tracker, [hit, [], [], [], hit])
    trace = [states_of(ts, 1) for ts in steps]
    assert trace == [
        (TrackState.NEW, 0, 1),
        (TrackState.COASTING, 1, 2),
        (TrackState.COASTING, 2, 3),
        (TrackState.COASTING, 3, 4),
        (TrackState.REACQUIRED, 0, 5),
    ]


def test_track_dies_after_exceeding_coast_limit():
    tracker = Tracker(TrackerConfig(max_coast=3))
    hit = [make_obs([5, 5, 50])]
    steps = run_script(tracker, [hit, [], [], [], []])
    assert states_of(steps[3], 1) == (TrackState.COASTING, 3, 4)
    assert steps[4] == []


def test_matched_state_on_consecutive_hits():
    tracker = Tracker(TrackerConfig())
    hit = [make_obs([5, 5, 50])]
    steps = run_script(tracker, [hit, hit, [], hit, hit])
    trace = [states_of(ts, 1) for ts in steps]
    assert [s[0] for s in trace] == [
        TrackState.NEW,
        TrackState.MATCHED,
        TrackState.COASTING,
        TrackState.REACQUIRED,
        TrackState.MATCHED,
    ]


def test_lost_track_gets_a_fresh_id():
    tracker = Tracker(TrackerConfig(max_coast=1))
    hit = [make_obs([5, 5, 50])]
    run_script(tracker, [hit, [], []])  # born, coast, dropped
    steps = run_script(tracker, [hit])
    assert [t.track_id for t in steps[0]] == [2]


def test_too_many_observations_rejected():
    tracker = Tracker(TrackerConfig(t_max=2))
    obs = [make_obs([5 + 8 * i, 5, 50], label=i + 1) for i in range(3)]
    with pytest.raises(ConfigViolationError):
        tracker.step(candidates(obs))


def test_fused_list_over_twice_capacity_rejected():
    tracker = Tracker(TrackerConfig(t_max=2))
    tracker.step(
        candidates([make_obs([5, 5, 50], label=1), make_obs([25, 25, 500], label=2)])
    )
    # two live tracks against a capacity of one: two coasting plus one
    # newborn exceed 2 * t_max, which must raise even under python -O
    tracker.cfg = TrackerConfig(t_max=1)
    with pytest.raises(ConfigViolationError):
        tracker.step(candidates([make_obs([15, 15, 300])]))


def test_capacity_prefers_high_importance():
    tracker = Tracker(TrackerConfig(t_max=2, importance=ImportanceConfig()))
    small = [make_obs([5, 5, 50], size=3), make_obs([25, 25, 500], size=3)]
    big = [make_obs([5, 20, 300], size=5), make_obs([25, 8, 200], size=5)]
    tracker.step(candidates(small))
    kept = tracker.step(candidates(big))  # far from the old pair: no matches
    assert len(kept) == 2
    assert sorted(t.track_id for t in kept) == [3, 4]
    assert all(t.state is TrackState.NEW for t in kept)


def test_capacity_tie_keeps_the_old_track():
    tracker = Tracker(TrackerConfig(t_max=2))
    tracker.step(
        candidates([make_obs([20, 20, 300], size=5), make_obs([5, 5, 50])])
    )
    # the small track misses and coasts while a newborn of the same
    # volume appears far away: both score 27 at the cut
    kept = tracker.step(
        candidates([make_obs([20, 20, 301], size=5), make_obs([25, 5, 500])])
    )
    assert [(t.track_id, t.state) for t in kept] == [
        (1, TrackState.MATCHED),
        (2, TrackState.COASTING),
    ]


def test_ring_capacity_and_eviction():
    tracker = Tracker(TrackerConfig())
    hit = [make_obs([5, 5, 50])]
    run_script(tracker, [hit] * 12)
    assert len(tracker.ring) == 10
    with pytest.raises(EntryEvictedError):
        tracker.ring.entry(0)
    with pytest.raises(EntryEvictedError):
        tracker.ring.entry(1)
    assert tracker.ring.entry(2).step == 2
    assert tracker.ring.latest.step == 11


def test_links_recorded_only_across_matched_boundaries():
    tracker = Tracker(TrackerConfig())
    hit = [make_obs([5, 5, 50])]
    run_script(tracker, [hit, [], hit])
    assert tracker.ring.entry(0).fwlink == [None]  # step 1 missed
    assert tracker.ring.entry(1).bwlink == [None]
    assert tracker.ring.entry(1).fwlink == [0]  # step 2 reacquired
    assert tracker.ring.entry(2).bwlink == [0]


def test_reconstruction_round_trip():
    tracker = Tracker(TrackerConfig())
    hit = [make_obs([5, 5, 50])]
    run_script(tracker, [hit] * 6)
    fwd = reconstruct_forward(tracker.ring, 0, 0)
    assert fwd == [(s, 0) for s in range(6)]
    bwd = reconstruct_backward(tracker.ring, 5, 0)
    assert list(reversed(bwd)) == fwd


@pytest.mark.parametrize("slot", [-1, -2, 2])
def test_reconstruction_of_a_missing_slot_raises(slot):
    tracker = Tracker(TrackerConfig())
    pair = [make_obs([5, 5, 50]), make_obs([20, 20, 300])]
    run_script(tracker, [pair, pair])
    assert reconstruct_forward(tracker.ring, 0, 1) == [(0, 1), (1, 1)]
    for follow, step in ((reconstruct_forward, 0), (reconstruct_backward, 1)):
        with pytest.raises(IndexError, match=f"step {step} has 2 tracks"):
            follow(tracker.ring, step, slot)


def test_reconstruction_of_evicted_step_raises():
    ring = HistoryRing()
    for step in range(HISTORY_LEN + 1):
        ring.push(StepRecord(step=step, tracks=[], fwlink=[], bwlink=[]))
    with pytest.raises(EntryEvictedError):
        reconstruct_forward(ring, 0, 0)


def test_coasting_carries_the_box_along():
    tracker = Tracker(TrackerConfig())
    for step in range(5):
        tracker.step(candidates([make_obs([5 + 2 * step, 5, 50])]))
    kept = tracker.step(candidates([]))
    t = kept[0]
    assert t.state is TrackState.COASTING
    # a coasting track is reported at its prediction; the filter has
    # locked onto the +2/step drift, so the coasted box sits ahead of
    # the last detection
    f = t.features
    assert (f.centroid_x, f.centroid_y, f.centroid_z) == tuple(tracker.kf.position[0])
    # the track's row of the candidate bank: centroid, then box faces
    centroid, lo, hi = np.split(tracker.obs.rows[0, :9], 3)
    shift = int(np.rint(f.centroid_x - centroid[0]))
    assert shift >= 1
    assert f.bbox_min_x == lo[0] + shift
    assert f.bbox_max_x == hi[0] + shift
    assert (f.bbox_min_y, f.bbox_min_z) == tuple(lo[1:])
    assert (f.bbox_max_y, f.bbox_max_z) == tuple(hi[1:])


def test_two_targets_keep_their_ids():
    tracker = Tracker(TrackerConfig())
    for step in range(8):
        obs = [
            make_obs([5 + step * 0.5, 5, 50], label=1),
            make_obs([25 - step * 0.5, 20, 400], label=2),
        ]
        tracker.step(candidates(obs))
    ids = {t.track_id for t in tracker.tracks}
    assert ids == {1, 2}
    assert all(t.state is TrackState.MATCHED for t in tracker.tracks)


def test_tracker_is_deterministic():
    def run():
        tracker = Tracker(TrackerConfig())
        rng = np.random.default_rng(42)
        out = []
        for _ in range(15):
            obs = [
                make_obs([5 + rng.normal(0, 0.3), 5, 50], label=1),
                make_obs([25 + rng.normal(0, 0.3), 20, 400], label=2),
            ]
            tracker.step(candidates(obs))
            out.append(
                [
                    (s.track_id, s.state, s.bad_count, s.features[:3])
                    for s in tracker.ring.latest.tracks
                ]
            )
        return out

    assert run() == run()


def test_snapshot_features_present_and_fresh():
    tracker = Tracker(TrackerConfig())
    hit = [make_obs([5, 5, 50])]
    run_script(tracker, [hit, hit, hit])
    snaps = tracker.ring.latest.tracks
    assert snaps[0].features is not None
    assert snaps[0].features.age == 3.0


def test_a_track_is_one_immutable_value_from_step_to_record():
    """``step`` returns the list its record holds, a track cannot be
    assigned to, and a record reads the same after later steps."""
    tracker = Tracker(TrackerConfig(max_coast=3))
    hit = [make_obs([5, 5, 50])]
    kept = tracker.step(candidates(hit))
    record = tracker.ring.latest
    assert kept is record.tracks is tracker.tracks
    with pytest.raises(AttributeError):
        kept[0].bad_count = 1

    def fields(tracks):
        return [(t.track_id, t.state, t.bad_count, t.features) for t in tracks]

    before = fields(kept)
    run_script(tracker, [hit, [], hit, [], [], hit, hit, [], hit, hit])
    assert tracker.tracks[0].track_id == 1
    assert fields(record.tracks) == before


@pytest.mark.parametrize(
    "kwargs",
    [{"t_max": 0}, {"max_coast": 0}, {"max_coast": 8}],
)
def test_tracker_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrackerConfig(**kwargs)


@st.composite
def tracker_runs(draw):
    """A capacity, a coast limit and a stream of at most ``t_max``
    observations per step, packed into a small region so that matches,
    misses, coasting, drops and capacity cuts all happen."""
    t_max = draw(st.integers(1, 5))
    max_coast = draw(st.integers(1, 4))
    obs = st.builds(
        make_obs,
        st.tuples(*[st.floats(2.0, 14.0)] * 3),
        st.sampled_from([1, 3]),
        st.integers(1, 200),
    )
    steps = draw(st.lists(st.lists(obs, max_size=t_max), max_size=16))
    return t_max, max_coast, steps


@settings(max_examples=150, deadline=None)
@given(run=tracker_runs(), mode=st.sampled_from(list(AssocMode)))
def test_tracker_invariants_over_random_streams(run, mode):
    t_max, max_coast, steps = run
    cfg = TrackerConfig(
        t_max=t_max, max_coast=max_coast, assoc=AssociationConfig(mode=mode)
    )
    tracker = Tracker(cfg)
    prev = None
    for observations in steps:
        tracker.step(importance_sort(candidates(observations), cfg.importance))
        entry = tracker.ring.latest
        ids = [s.track_id for s in entry.tracks]
        assert len(set(ids)) == len(ids) <= t_max
        assert all(0 <= s.bad_count <= max_coast for s in entry.tracks)
        assert len(entry.fwlink) == len(entry.bwlink) == len(ids)
        assert len(tracker.obs) == len(ids)
        if prev is None:
            assert entry.bwlink == [None] * len(ids)
        else:
            for p, s in enumerate(prev.fwlink):
                assert s is None or entry.bwlink[s] == p
            for s, p in enumerate(entry.bwlink):
                assert p is None or prev.fwlink[p] == s
                assert p is None or prev.tracks[p].track_id == ids[s]
        assert entry.fwlink == [None] * len(ids)
        prev = entry
