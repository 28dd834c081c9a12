"""Serial execution of the group pipeline.

Groups are reduced and tracked one at a time on the calling thread;
failures in a stage or in the caller's ``on_step`` must surface
unchanged.
"""
import io
from dataclasses import replace

import numpy as np
import pytest

import frontend_reference as ref
from photontrack.denoise import DenoiseConfig, Scheme
from photontrack import pipeline
from photontrack.errors import ConfigMismatchError, EmptyInputError, TruncatedFileError
from photontrack.outputs import write_links_csv
from photontrack.pipeline import RunConfig, run_groups, run_tracking
from photontrack.raw_ingest import SensorConfig, group_frames, parse_frames
from photontrack.simulator import SceneSpec, TargetSpec, simulate, write_raw
from photontrack.track_manager import (
    HISTORY_LEN,
    Tracker,
    reconstruct_backward,
    reconstruct_forward,
)
from photontrack.voxelizer import build_histogram

SENSOR = SensorConfig()


def churn_scene_bytes(n_groups=8):
    """Two movers plus dark counts, enough to exercise links and births."""
    scene = SceneSpec(
        targets=(
            TargetSpec((3, 3, 3), (8.0, 8.0, 150.0), 2.0, ((0, (0.4, 0.2, 0.0)),)),
            TargetSpec((3, 3, 3), (24.0, 20.0, 330.0), 2.0, ((0, (-0.4, 0.0, 0.0)),)),
        ),
        noise_rate=30.0,
        n_groups=n_groups,
        seed=11,
    )
    frames, _ = simulate(scene, SENSOR)
    buf = io.BytesIO()
    write_raw(frames, buf)
    return buf.getvalue()


def test_on_step_sees_each_histogram_and_results_drop_it():
    """``on_step`` sees each step's own histogram, and the step number
    indexes the group it came from; the returned records are the same
    records with the grid dropped."""
    data = churn_scene_bytes()
    groups = group_frames(parse_frames(data, SENSOR), SENSOR)
    seen = []
    result = run_tracking(io.BytesIO(data), RunConfig(), on_step=seen.append)
    assert len(result) == len(seen) == len(groups) == 8
    for n, (rec, kept) in enumerate(zip(result, seen)):
        assert rec == replace(kept, grid=None)
        assert kept.step == n
        np.testing.assert_array_equal(
            kept.grid.counts, build_histogram(groups[n], SENSOR).counts
        )


def _tracked_churn_run(monkeypatch):
    """The records of a 14-group churn run and the tracker that made
    them."""
    trackers = []

    class Recorded(Tracker):
        def __init__(self, cfg):
            super().__init__(cfg)
            trackers.append(self)

    monkeypatch.setattr(pipeline, "Tracker", Recorded)
    steps = run_tracking(io.BytesIO(churn_scene_bytes(n_groups=14)), RunConfig())
    (tracker,) = trackers
    return steps, tracker


def test_run_records_are_the_ring_entries_and_link_both_ways(tmp_path, monkeypatch):
    """A run's records link both ways: each record's ``fwlink`` is the
    inverse of the next record's ``bwlink``, and the last record's is
    all None.  links.csv holds the ``bwlink`` pairs, and the tracker's
    history ring holds the run's last ten records themselves."""
    steps, tracker = _tracked_churn_run(monkeypatch)
    assert len(steps) == 14
    for rec, nxt in zip(steps, steps[1:]):
        inverse = [None] * len(rec.tracks)
        for slot, prev in enumerate(nxt.bwlink):
            if prev is not None:
                inverse[prev] = slot
        assert rec.fwlink == inverse
    assert steps[-1].fwlink == [None] * len(steps[-1].tracks)
    pairs = [
        f"{rec.step - 1},{prev},{slot}"
        for rec in steps
        for slot, prev in enumerate(rec.bwlink)
        if prev is not None
    ]
    assert pairs
    write_links_csv(steps, tmp_path / "links.csv")
    assert (tmp_path / "links.csv").read_text().splitlines()[1:] == pairs
    ring = list(tracker.ring)
    assert len(ring) == HISTORY_LEN
    assert all(a is b for a, b in zip(ring, steps[-HISTORY_LEN:]))


def test_chains_replay_over_a_runs_whole_result(tmp_path, monkeypatch):
    """Replaying a run's result from every chain head gives the chain
    that links.csv's rows give, and replaying it backward from the
    chain's tail gives it newest first.  The part of each chain within
    the last ten steps is what the tracker's ring replays from that
    part's first step."""
    steps, tracker = _tracked_churn_run(monkeypatch)
    write_links_csv(steps, tmp_path / "links.csv")
    nxt = {}
    for row in (tmp_path / "links.csv").read_text().splitlines()[1:]:
        n, a, b = map(int, row.split(","))
        nxt[n, a] = (n + 1, b)
    heads = [
        (rec.step, s)
        for rec in steps
        for s in range(len(rec.tracks))
        if (rec.step, s) not in nxt.values()
    ]
    held = tracker.ring[0].step
    lengths = []
    for n, s in heads:
        chain = [(n, s)]
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
        lengths.append(len(chain))
        assert reconstruct_forward(steps, n, s) == chain
        assert reconstruct_backward(steps, *chain[-1]) == chain[::-1]
        recent = [link for link in chain if link[0] >= held]
        if recent:
            assert reconstruct_forward(tracker.ring, *recent[0]) == recent
    assert max(lengths) == len(steps) and min(lengths) == 1


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_dense_grid_is_built_only_for_its_readers(scheme):
    """No scheme builds a step's dense counts, Parzen smoothing
    included.  A later read equals the reference histogram, and a
    second read returns the same array."""
    groups = group_frames(parse_frames(churn_scene_bytes(), SENSOR), SENSOR)
    cfg = RunConfig(denoise=DenoiseConfig(scheme=scheme))
    seen = []

    def on_step(rec):
        assert "counts" not in vars(rec.grid)
        counts = rec.grid.counts
        assert rec.grid.counts is counts
        want = ref.build_histogram(groups[rec.step], SENSOR).counts
        assert counts.dtype == want.dtype
        np.testing.assert_array_equal(counts, want)
        seen.append(rec.step)

    run_groups(groups, cfg, on_step=on_step)
    assert len(seen) == len(groups)


def test_group_reduction_error_reaches_the_caller():
    """A group whose frames do not have the sensor's shape makes
    ``run_groups`` raise the histogram stage's error unchanged."""
    bad = np.full((200, 8, 8), SENSOR.ceiling, dtype=np.uint16)
    with pytest.raises(ConfigMismatchError):
        run_groups([bad], RunConfig())


def test_on_step_failure_stops_the_run():
    """An ``on_step`` failure propagates and no later group is drawn
    from the iterable ``run_groups`` was handed."""
    data = churn_scene_bytes()
    groups = iter(group_frames(parse_frames(data, SENSOR), SENSOR))
    seen = []

    def explode(record):
        seen.append(record.step)
        raise RuntimeError("downstream writer fell over")

    with pytest.raises(RuntimeError, match="fell over"):
        run_groups(groups, RunConfig(), on_step=explode)
    assert seen == [0]
    assert len(list(groups)) == 7


def test_stream_shorter_than_a_group_gives_no_steps(caplog):
    """A stream shorter than one group has no whole group: grouping
    drops it with its warning, and the run has no steps."""
    data = bytes(SENSOR.frame_nbytes * (SENSOR.pulses_per_group - 1))
    with caplog.at_level("WARNING"):
        groups = group_frames(parse_frames(data, SENSOR), SENSOR)
        assert run_tracking(io.BytesIO(data), RunConfig()) == []
    assert groups.shape == (0, SENSOR.pulses_per_group, SENSOR.height, SENSOR.width)
    assert any("partial group" in r.getMessage() for r in caplog.records)


def test_streamed_run_equals_the_parsed_capture_run(caplog):
    """Read one group at a time into one reused buffer, a capture gives
    the records and histograms of its parsed and grouped bytes.  Values
    above the ceiling are clamped group by group, with one warning per
    affected group, and a trailing partial group is dropped with its
    warning."""
    frames = np.frombuffer(churn_scene_bytes(), dtype="<u2").reshape(8, -1).copy()
    frames[2, [5, 900, 70000]] = [621, 700, 0xFFFF]
    frames[5, :4] = 1000
    tail = np.full(37 * SENSOR.frame_pixels, SENSOR.ceiling, dtype="<u2")
    data = frames.tobytes() + tail.tobytes()
    want_grids, got_grids = [], []
    want = run_groups(
        group_frames(parse_frames(data, SENSOR), SENSOR),
        RunConfig(),
        on_step=lambda rec: want_grids.append(rec.grid),
    )
    caplog.clear()
    with caplog.at_level("WARNING"):
        got = run_tracking(
            io.BytesIO(data), RunConfig(), on_step=lambda rec: got_grids.append(rec.grid)
        )
    assert [r.getMessage() for r in caplog.records] == [
        "clamped 3 pixel values above ceiling 620",
        "clamped 4 pixel values above ceiling 620",
        "discarding trailing partial group of 37 frames",
    ]
    assert len(got) == 8 and any(p is not None for rec in got for p in rec.bwlink)
    assert got == want
    for g, w in zip(got_grids, want_grids, strict=True):
        np.testing.assert_array_equal(g.flat, w.flat)
        np.testing.assert_array_equal(g.values, w.values)


@pytest.mark.parametrize(
    "cut, error",
    [(None, EmptyInputError), (5, TruncatedFileError)],
    ids=["empty", "truncated"],
)
def test_bad_stream_length_fails_before_any_group(cut, error):
    """An empty stream, or one that is not a whole number of frames, is
    refused before any byte is read: ``on_step`` never runs and the
    stream stays where it was."""
    stream = io.BytesIO(churn_scene_bytes()[:-cut] if cut else b"")

    def on_step(rec):
        raise AssertionError("a group was tracked")

    with pytest.raises(error):
        run_tracking(stream, RunConfig(), on_step=on_step)
    assert stream.tell() == 0


def test_stream_that_ends_early_raises():
    """A stream that yields fewer bytes than its length promised, as a
    file cut while it is read does, raises TruncatedFileError."""

    class Short(io.BytesIO):
        def readinto(self, buf):
            return super().readinto(buf[: len(buf) // 2])

    with pytest.raises(TruncatedFileError, match="ended"):
        run_tracking(Short(churn_scene_bytes()), RunConfig())
