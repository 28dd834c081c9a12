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
from photontrack.errors import ConfigMismatchError
from photontrack.pipeline import RunConfig, run_groups, run_tracking
from photontrack.raw_ingest import SensorConfig, group_frames, parse_frames
from photontrack.simulator import SceneSpec, TargetSpec, simulate, write_raw
from photontrack.voxelizer import build_histogram

SENSOR = SensorConfig()


def churn_scene_bytes():
    """Two movers plus dark counts, enough to exercise links and births."""
    scene = SceneSpec(
        targets=(
            TargetSpec((3, 3, 3), (8.0, 8.0, 150.0), 2.0, ((0, (0.4, 0.2, 0.0)),)),
            TargetSpec((3, 3, 3), (24.0, 20.0, 330.0), 2.0, ((0, (-0.4, 0.0, 0.0)),)),
        ),
        noise_rate=30.0,
        n_groups=8,
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
    result = run_tracking(data, RunConfig(), on_step=seen.append)
    assert len(result) == len(seen) == len(groups) == 8
    for n, (rec, kept) in enumerate(zip(result, seen)):
        assert rec == replace(kept, grid=None)
        assert kept.step == n
        np.testing.assert_array_equal(
            kept.grid.counts, build_histogram(groups[n], SENSOR).counts
        )


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_dense_grid_is_built_only_for_its_readers(scheme):
    """The thresholding schemes never build a step's dense counts;
    Parzen smoothing builds them, once.  Wherever they are read they
    equal the reference histogram, and a second read returns the same
    array."""
    groups = group_frames(parse_frames(churn_scene_bytes(), SENSOR), SENSOR)
    cfg = RunConfig(denoise=DenoiseConfig(scheme=scheme))
    seen = []

    def on_step(rec):
        built = vars(rec.grid).get("counts")
        if scheme is Scheme.PARZEN_THRESHOLD:
            assert built is not None
        else:
            assert "counts" not in vars(rec.grid)
        counts = rec.grid.counts
        assert built is None or counts is built
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
        assert run_tracking(data, RunConfig()) == []
    assert groups.shape == (0, SENSOR.pulses_per_group, SENSOR.height, SENSOR.width)
    assert any("partial group" in r.getMessage() for r in caplog.records)
