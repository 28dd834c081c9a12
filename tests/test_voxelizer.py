"""Histogram construction from frame groups."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photontrack.errors import ConfigMismatchError
from photontrack.outputs import projection_image
from photontrack.raw_ingest import SensorConfig
from photontrack.voxelizer import build_histogram

from frontend_reference import grid_of


def tally_oracle(frames, cfg):
    """Straight per-pixel loop: count frames whose value falls in the
    usable window, binned by (x, y, value - offset)."""
    counts = np.zeros((cfg.width, cfg.height, cfg.nz), dtype=np.int64)
    for frame in frames:
        for y in range(cfg.height):
            for x in range(cfg.width):
                v = int(frame[y, x])
                if cfg.zmin <= v <= cfg.zmax:
                    counts[x, y, v - cfg.offset] += 1
    return counts


SMALL = SensorConfig(width=6, height=5, pulses_per_group=8, ceiling=30, offset=4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_histogram_matches_tally_oracle(seed):
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, SMALL.ceiling + 1, (8, 5, 6)).astype(np.uint16)
    grid = build_histogram(frames, SMALL)
    np.testing.assert_array_equal(grid.counts, tally_oracle(frames, SMALL))


def test_out_of_window_values_are_ignored():
    frames = np.full((3, 5, 6), SMALL.ceiling, dtype=np.uint16)
    frames[0, 0, 0] = SMALL.zmin - 1
    frames[1, 0, 0] = SMALL.zmax + 1
    frames[2, 0, 0] = SMALL.zmin
    grid = build_histogram(frames, SMALL)
    assert grid.counts.sum() == 1
    assert grid.counts[0, 0, 0] == 1


def test_counts_conserve_in_window_pixels():
    rng = np.random.default_rng(3)
    frames = rng.integers(0, SMALL.ceiling + 1, (8, 5, 6)).astype(np.uint16)
    grid = build_histogram(frames, SMALL)
    in_window = ((frames >= SMALL.zmin) & (frames <= SMALL.zmax)).sum()
    assert grid.counts.sum() == in_window


def test_frame_order_within_group_is_irrelevant():
    rng = np.random.default_rng(9)
    frames = rng.integers(0, SMALL.ceiling + 1, (8, 5, 6)).astype(np.uint16)
    a = build_histogram(frames, SMALL)
    b = build_histogram(frames[::-1].copy(), SMALL)
    np.testing.assert_array_equal(a.counts, b.counts)


def test_dimension_mismatch_rejected():
    frames = np.full((2, 4, 4), 0, dtype=np.uint16)
    with pytest.raises(ConfigMismatchError):
        build_histogram(frames, SMALL)


def test_default_grid_dims():
    cfg = SensorConfig()
    frames = np.full((200, 32, 32), cfg.ceiling, dtype=np.uint16)
    grid = build_histogram(frames, cfg)
    assert grid.shape == (32, 32, 600)
    assert grid.counts.sum() == 0


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_projection_image_matches_numpy(axis):
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 50, (4, 5, 6)).astype(np.int32)
    counts[rng.random(counts.shape) < 0.5] = 0
    for dense in (counts, np.zeros_like(counts)):
        got = projection_image(grid_of(dense), axis)
        want = dense.max(axis=axis).T
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
