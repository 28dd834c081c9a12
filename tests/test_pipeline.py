"""Serial execution of the group pipeline.

Groups are reduced and tracked one at a time on the calling thread;
failures in a stage or in the caller's ``on_step`` must surface
unchanged.
"""
import io

import numpy as np
import pytest

from photontrack.errors import ConfigMismatchError
from photontrack.pipeline import RunConfig, run_groups, run_tracking
from photontrack.raw_ingest import (
    FrameGroup,
    SensorConfig,
    group_frames,
    parse_frames,
)
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


def test_grids_survive_the_queue():
    """keep_grids=True keeps each step's own histogram."""
    data = churn_scene_bytes()
    groups = group_frames(parse_frames(data, SENSOR), SENSOR)
    result = run_tracking(data, RunConfig(), keep_grids=True)
    assert len(result.steps) == len(groups) == 8
    for rec, group in zip(result.steps, groups):
        assert rec.grid is not None
        np.testing.assert_array_equal(
            rec.grid.counts, build_histogram(group, SENSOR).counts
        )
    assert all(rec.grid is None for rec in run_tracking(data, RunConfig()).steps)


def test_worker_error_reaches_the_caller():
    """An error raised while reducing a group reaches the caller."""
    bad = FrameGroup(
        frames=np.full((200, 8, 8), SENSOR.ceiling, dtype=np.uint16),
        group_index=0,
    )
    with pytest.raises(ConfigMismatchError):
        run_groups([bad], RunConfig())


def test_consumer_failure_stops_the_worker():
    """An ``on_step`` failure propagates and stops the run at that step."""
    data = churn_scene_bytes()
    groups = group_frames(parse_frames(data, SENSOR), SENSOR)
    seen = []

    def explode(record):
        seen.append(record.step)
        raise RuntimeError("downstream writer fell over")

    with pytest.raises(RuntimeError, match="fell over"):
        run_groups(groups, RunConfig(), on_step=explode)
    assert seen == [0]
