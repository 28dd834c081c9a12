"""The vectorized front end against its loop references and scipy.

``frontend_reference`` keeps the dense and per-voxel versions of the
histogram, majority vote, Parzen smoothing, labeling and extraction.
The arithmetic is the same in both, so results must be equal bit for
bit.  ``scipy.ndimage`` gives an independent check where installed.
"""
import dataclasses
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frontend_reference as ref
import photontrack
import photontrack.denoise as denoise_module
from photontrack import pipeline
from photontrack.denoise import (
    DenoiseConfig,
    Fixed,
    MovingAverage,
    PeakFraction,
    Scheme,
    denoise,
    gaussian_kernel,
    majority_rule,
    parzen_smooth,
)
from photontrack.labeling import extract_observations, label_components
from photontrack.raw_ingest import SensorConfig, group_frames
from photontrack.simulator import SceneSpec, TargetSpec, load_scene, simulate
from photontrack.voxelizer import build_histogram

CONNECTIVITIES = (6, 18, 26)


def assert_same(got, want):
    """Equal dtype, shape and bytes: a bit-for-bit match."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_mask(rng, shape):
    return rng.random(shape) < rng.uniform(0.0, 1.0)


def serpentine(shape):
    """A one-voxel-wide path that snakes through every other voxel of
    each axis, turning at the end of each row and plane: one component
    whose voxels meet in an order far from the scan order."""
    cx, cy, cz = ((n + 1) // 2 for n in shape)
    cells = []
    for i in range(cx):
        for jn, j in enumerate(range(cy) if i % 2 == 0 else range(cy - 1, -1, -1)):
            row = range(cz) if (i * cy + jn) % 2 == 0 else range(cz - 1, -1, -1)
            cells += [(i, j, k) for k in row]
    mask = np.zeros(shape, dtype=bool)
    for a, b in zip(cells, cells[1:] + cells[-1:]):
        mask[tuple(2 * np.array(a))] = True
        mask[tuple(np.array(a) + np.array(b))] = True  # midpoint of 2a, 2b
    return mask


EDGE_MASKS = {
    "empty": np.zeros((4, 5, 6), dtype=bool),
    "full": np.ones((4, 5, 6), dtype=bool),
    "thin_x": np.ones((2, 5, 6), dtype=bool),
    "line": np.ones((1, 1, 9), dtype=bool),
    "single": np.ones((1, 1, 1), dtype=bool),
    "serpentine": serpentine((7, 9, 11)),
}


# -- majority vote ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EDGE_MASKS))
def test_majority_edge_cases(name):
    mask = EDGE_MASKS[name]
    for mmin in range(28):
        assert_same(majority_rule(mask, mmin), ref.majority_rule(mask, mmin))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(*[st.integers(1, 9)] * 3),
    mmin=st.integers(0, 27),
)
def test_majority_matches_dense_vote(seed, shape, mmin):
    mask = random_mask(np.random.default_rng(seed), shape)
    assert_same(majority_rule(mask, mmin), ref.majority_rule(mask, mmin))


def vote_edge_masks(shape):
    """Masks that vote at the grid's edges and across flat-index breaks:
    every boundary voxel set; one voxel at each corner and at the middle
    of each edge and face (and the centre); and pairs whose flat indices
    are adjacent but whose voxels are not, z = nz-1 beside z = 0 of the
    next row (flat offset 1) and y = ny-1 beside y = 0 of the next
    x-plane (flat offset nz)."""
    nx, ny, nz = shape
    shell = np.ones(shape, dtype=bool)
    shell[1:-1, 1:-1, 1:-1] = False
    points = np.zeros(shape, dtype=bool)
    points[np.ix_(*[[0, (n - 1) // 2, n - 1] for n in shape])] = True
    wraps = np.zeros(shape, dtype=bool)
    x, y, z = nx // 2, ny // 2, nz // 2
    wraps[x, y, nz - 1] = wraps[x, y + 1, 0] = True
    wraps[x, ny - 1, z] = wraps[x + 1, 0, z] = True
    wraps[x - 1, ny - 1, nz - 1] = wraps[x, 0, 0] = True  # both breaks at once
    return {"shell": shell, "points": points, "wraps": wraps, "both": points | wraps}


@pytest.mark.parametrize(
    "shape", [(3, 3, 3), (4, 5, 6), (6, 3, 7), (32, 32, 600)], ids=str
)
def test_majority_at_faces_edges_corners_and_flat_wraps(shape):
    """The vote, called densely and through ``denoise``, equals the
    dense vote where set voxels touch every face, edge and corner, and
    where flat offsets wrap across rows and planes."""
    for name, mask in vote_edge_masks(shape).items():
        grid = ref.grid_of(mask.astype(np.int32))
        for mmin in (0, 1, 2, 13, 26, 27):
            want = ref.majority_rule(mask, mmin)
            assert_same(majority_rule(mask, mmin), want)
            cfg = DenoiseConfig(
                scheme=Scheme.THRESHOLD_MAJORITY,
                threshold_mode=Fixed(0.0),
                majority_min=mmin,
            )
            assert_same(denoise(grid, cfg)[0], want)
        if name == "shell":
            assert ref.majority_rule(mask, 13).any()


# -- Parzen smoothing ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(*[st.integers(1, 12)] * 3),
    sigmas=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    factor=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
)
def test_parzen_matches_whole_array_passes(seed, shape, sigmas, factor):
    counts = np.random.default_rng(seed).integers(0, 9, shape).astype(np.int32)
    assert_same(
        parzen_smooth(counts, sigmas, factor), ref.parzen_smooth(counts, sigmas, factor)
    )


@pytest.mark.parametrize(
    "shape, sigmas, factor",
    [
        ((6, 7, 8), (1.0, 1.0, 1.0), 0.0),  # identity kernels
        ((2, 3, 1), (2.0, 1.5, 3.0), 3.0),  # kernels longer than every axis
        ((1, 1, 1), (1.0, 1.0, 1.0), 3.0),
        ((5, 4, 40), (0.7, 1.3, 2.2), 2.5),  # non-cubic, mixed widths
        ((0, 4, 5), (1.0, 1.0, 1.0), 3.0),  # no voxels at all
        ((4, 0, 5), (1.0, 1.0, 1.0), 3.0),
        ((4, 5, 0), (1.0, 1.0, 1.0), 3.0),
    ],
)
def test_parzen_edge_cases(shape, sigmas, factor):
    rng = np.random.default_rng(5)
    for counts in (rng.integers(0, 20, shape), rng.random(shape)):
        assert_same(
            parzen_smooth(counts, sigmas, factor),
            ref.parzen_smooth(counts, sigmas, factor),
        )


def test_parzen_full_grid():
    rng = np.random.default_rng(8)
    counts = (rng.random((32, 32, 600)) < 0.015) * rng.integers(1, 5, (32, 32, 600))
    sigmas = (1.0, 1.0, 1.0)
    assert_same(parzen_smooth(counts, sigmas), ref.parzen_smooth(counts, sigmas))


# -- bounded Parzen denoising -------------------------------------------------

MODES = [
    pytest.param(Fixed(2.0), None, id="fixed"),
    pytest.param(PeakFraction(0.4), None, id="peak_fraction"),
    pytest.param(MovingAverage(0.4, 0.3), None, id="moving_average_first"),
    pytest.param(MovingAverage(0.4, 0.3), 1.5, id="moving_average"),
]


def assert_denoise_matches_dense(counts, sigmas, factor, mode, t_prev):
    """The bounded mask and threshold equal thresholding the dense
    whole-grid smoothing, byte for byte."""
    cfg = DenoiseConfig(
        scheme=Scheme.PARZEN_THRESHOLD,
        threshold_mode=mode,
        sigmas=sigmas,
        kernel_radius_factor=factor,
    )
    mask, t_used = denoise(ref.grid_of(counts), cfg, t_prev)
    want, want_t = ref.denoise(counts, cfg, t_prev)
    assert_same(mask, want)
    assert np.float64(t_used).tobytes() == np.float64(want_t).tobytes()


def sparse_counts(rng, shape, high=30):
    occupied = rng.random(shape) < rng.uniform(0.0, 0.2)
    return (occupied * rng.integers(1, high, shape)).astype(np.int32)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 40)),
    sigmas=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    factor=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    mode=st.one_of(
        st.builds(Fixed, st.floats(0.0, 8.0)),
        st.builds(PeakFraction, st.floats(0.01, 1.0)),
        st.builds(MovingAverage, st.floats(0.01, 1.0), st.floats(0.0, 1.0)),
    ),
    t_prev=st.one_of(st.none(), st.floats(0.0, 8.0)),
)
def test_parzen_denoise_matches_dense(seed, shape, sigmas, factor, mode, t_prev):
    counts = sparse_counts(np.random.default_rng(seed), shape)
    assert_denoise_matches_dense(counts, sigmas, factor, mode, t_prev)


@pytest.mark.parametrize("mode, t_prev", MODES)
@pytest.mark.parametrize(
    "counts, sigmas, factor",
    [
        pytest.param(np.zeros((6, 7, 40), np.int32), (1.0, 1.0, 1.0), 3.0, id="empty"),
        pytest.param(
            sparse_counts(np.random.default_rng(1), (9, 8, 60)),
            (0.7, 1.3, 2.2),  # rz = 7 exceeds the z block
            3.0,
            id="rz_beyond_block",
        ),
        pytest.param(
            sparse_counts(np.random.default_rng(2), (2, 3, 1)),
            (2.0, 1.5, 3.0),
            3.0,
            id="kernels_longer_than_axes",
        ),
        pytest.param(
            sparse_counts(np.random.default_rng(3), (6, 7, 9)), (1.0, 1.0, 1.0), 0.0,
            id="identity_kernels",
        ),
        pytest.param(
            np.pad([[[2, 2, 2, 2]]], ((0, 0), (0, 1), (1, 2))), (1.0, 1.0, 2.0), 3.0,
            id="fewer_voxels_than_a_z_run",
        ),
        pytest.param(
            np.random.default_rng(4).random((5, 6, 30)) * 4, (1.0, 1.0, 1.0), 3.0,
            id="float",
        ),
        pytest.param(
            np.random.default_rng(5).integers(-6, 9, (5, 6, 30)), (1.0, 0.8, 1.2), 3.0,
            id="negative",
        ),
        pytest.param(
            np.pad([[[40, 0, -40]]], ((3, 3), (3, 3), (10, 10))), (1.0, 1.0, 1.0), 3.0,
            id="negative_cancels_box",
        ),
        pytest.param(
            sparse_counts(np.random.default_rng(6), (7, 7, 50)).astype(np.uint16) * 2000,
            (1.0, 1.0, 1.0),
            3.0,
            id="uint16",
        ),
        pytest.param(
            np.full((6, 7, 30), 65535, np.uint16), (1.0, 1.0, 1.0), 3.0,
            id="saturated_uint16",
        ),
        pytest.param(
            (np.random.default_rng(7).random((5, 5, 20)) < 0.1), (1.0, 1.0, 1.0), 3.0,
            id="bool",
        ),
    ],
)
def test_parzen_denoise_edge_cases(counts, sigmas, factor, mode, t_prev):
    for m in (mode, Fixed(0.0)):
        assert_denoise_matches_dense(counts, sigmas, factor, m, t_prev)


@pytest.mark.parametrize("mode", [Fixed(0.99 * 2**24), PeakFraction(0.99)])
def test_parzen_denoise_sums_beyond_int32(mode):
    """Only the interior passes, where the counts in a kernel's reach sum
    to 5.8e11."""
    counts = np.full((36, 36, 44), 2**24, np.int32)
    assert_denoise_matches_dense(counts, (5.0, 5.0, 5.0), 3.0, mode, None)


def z_pair(count, dtype):
    """Two equal counts at z = 0 and 1, which share a block of the
    bound."""
    counts = np.zeros((5, 5, 12), dtype)
    counts[2, 2, :2] = count
    return counts


@pytest.mark.parametrize(
    "counts, t",
    [
        pytest.param(z_pair(200, np.uint8), 15.0, id="uint8"),
        pytest.param(z_pair(40000, np.uint16), 3000.0, id="uint16"),
        pytest.param(z_pair(True, np.bool_), 0.08, id="bool"),
        pytest.param(z_pair(2**30, np.int32), 1e7, id="int32_pair_beyond_int32"),
    ],
)
def test_parzen_denoise_block_sums_do_not_wrap(counts, t):
    """Block sums are taken in float64, not the counts' own type: a pair
    of counts that wraps or ORs in that type still passes a threshold
    below its smoothed value."""
    assert_denoise_matches_dense(counts, (1.0, 1.0, 1.0), 3.0, Fixed(t), None)
    mask, _ = denoise(
        ref.grid_of(counts),
        DenoiseConfig(scheme=Scheme.PARZEN_THRESHOLD, threshold_mode=Fixed(t)),
    )
    assert mask[2, 2, :2].all()


@pytest.mark.parametrize(
    "counts, sigmas",
    [
        pytest.param(
            sparse_counts(np.random.default_rng(9), (12, 10, 64), high=9),
            (1.0, 1.0, 1.0),
            id="sparse",
        ),
        # lone voxels: the smoothed peak is the centre taps' product
        # times the count, up to rounding
        *(
            pytest.param(np.pad([[[c]]], 8), sigmas, id=f"lone_{c}")
            for c, sigmas in (
                (5, (1.54, 0.6, 1.77)),
                (15, (1.38, 0.76, 0.37)),
                (66, (1.31, 0.87, 0.97)),
                (1, (1.0, 1.0, 1.0)),
                (65535, (1.0, 1.0, 1.0)),
            )
        ),
    ],
)
def test_parzen_denoise_threshold_at_a_smoothed_value(counts, sigmas):
    """``>`` decides at equality: a threshold set to a voxel's smoothed
    value drops that voxel and one a step below keeps it, in the bounded
    path as in the dense one."""
    smoothed = parzen_smooth(counts, sigmas)
    values = np.unique(smoothed[smoothed > 0])
    for value in values[:: max(1, len(values) // 40)].tolist() + [float(values[-1])]:
        for t in (value, float(np.nextafter(value, 0.0))):
            cfg = DenoiseConfig(
                scheme=Scheme.PARZEN_THRESHOLD, threshold_mode=Fixed(t), sigmas=sigmas
            )
            mask, _ = denoise(ref.grid_of(counts), cfg)
            assert_same(mask, smoothed > t)
            assert mask[smoothed == value].all() != (t == value)
    # alpha 1 puts the threshold on the peak itself
    assert_denoise_matches_dense(counts, sigmas, 3.0, PeakFraction(1.0), None)


def blob_grid(seed):
    """A 32x32x600 grid at 1.5% noise occupancy with two bright targets."""
    rng = np.random.default_rng(seed)
    counts = (rng.random((32, 32, 600)) < 0.015) * rng.integers(1, 3, (32, 32, 600))
    counts[8:11, 8:11, 150:153] += 20
    counts[20:24, 19:22, 330:332] += 12
    return counts.astype(np.int32)


@pytest.mark.parametrize("mode, t_prev", MODES)
def test_parzen_denoise_full_grid(mode, t_prev):
    assert_denoise_matches_dense(blob_grid(11), (1.0, 1.0, 1.0), 3.0, mode, t_prev)


@st.composite
def windows_in(draw, shape):
    """Windows ``(x, y0, y1, z0, z1)`` anywhere in a grid of ``shape``:
    on its edges, off every edge, or the whole plane."""
    nx, ny, nz = shape
    x = draw(st.integers(0, nx - 1))
    y0 = draw(st.integers(0, ny - 1))
    z0 = draw(st.integers(0, nz - 1))
    return x, y0, draw(st.integers(y0 + 1, ny)), z0, draw(st.integers(z0 + 1, nz))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 30)),
    sigmas=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    factor=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    real=st.booleans(),
    data=st.data(),
)
def test_windows_match_whole_array_passes(seed, shape, sigmas, factor, real, data):
    """Every window's values equal the same window of the dense
    smoothing, byte for byte."""
    rng = np.random.default_rng(seed)
    counts = rng.random(shape) * 5 if real else sparse_counts(rng, shape, high=9)
    kernels = tuple(gaussian_kernel(s, factor) for s in sigmas)
    windows = data.draw(st.lists(windows_in(shape), min_size=1, max_size=5))
    got = denoise_module._smoothed_windows(ref.grid_of(counts), kernels, windows)
    want = ref.parzen_smooth(counts, sigmas, factor)
    for (x, y0, y1, z0, z1), values in zip(windows, got, strict=True):
        assert_same(values, want[x, y0:y1, z0:z1])


@pytest.mark.parametrize("sigmas", [(1.0, 1.0, 1.0), (0.6, 2.0, 1.4)])
def test_stacked_windows_match_whole_array_passes(sigmas):
    """Many small windows, overlapping and on the grid's edges, fill
    several stacks, and no two whole planes share one, even in a row;
    every window's values equal the dense smoothing, byte for byte."""
    shape = (32, 32, 600)
    ny, nz = shape[1:]
    counts = blob_grid(13)
    kernels = tuple(gaussian_kernel(s, 3.0) for s in sigmas)
    ry, rz = len(kernels[1]) // 2, len(kernels[2]) // 2
    rng = np.random.default_rng(14)
    x, y0, z0 = (rng.integers(0, n, 150).tolist() for n in shape)
    y1 = np.minimum(ny, np.add(y0, rng.integers(1, 9, 150))).tolist()
    z1 = np.minimum(nz, np.add(z0, rng.integers(1, 90, 150))).tolist()
    windows = list(zip(x, y0, y1, z0, z1))
    planes = [(p, 0, ny, 0, nz) for p in (5, 0, 31, 17)]
    for at, plane in zip((0, 60, 61, 149), planes):
        windows.insert(at, plane)
    stacks = denoise_module._stacks(windows, ry, rz)
    stacks = [[window for _, window in placed] for _, placed in stacks]
    assert all(len(set(run) & set(planes)) <= 1 for run in stacks)
    assert max(len(run) for run in stacks) > 10 and len(stacks) > 8

    got = denoise_module._smoothed_windows(ref.grid_of(counts), kernels, windows)
    want = ref.parzen_smooth(counts, sigmas)
    for (x, y0, y1, z0, z1), values in zip(windows, got, strict=True):
        assert_same(values, want[x, y0:y1, z0:z1])


def test_windows_sum_every_x_tap_in_tap_order():
    """On a fully occupied grid whose x kernel spans the whole x axis,
    every x tap of every cell reads an occupied voxel; each window's
    values still equal the dense smoothing, byte for byte."""
    shape = (5, 4, 9)
    counts = np.random.default_rng(15).random(shape) + 0.5
    sigmas = (2.0, 0.8, 1.3)
    kernels = tuple(gaussian_kernel(s, 3.0) for s in sigmas)
    assert len(kernels[0]) // 2 >= shape[0] - 1
    windows = denoise_module._whole_planes(shape) + [(2, 1, 3, 2, 7), (0, 0, 1, 8, 9)]
    got = denoise_module._smoothed_windows(ref.grid_of(counts), kernels, windows)
    want = ref.parzen_smooth(counts, sigmas)
    for (x, y0, y1, z0, z1), values in zip(windows, got, strict=True):
        assert_same(values, want[x, y0:y1, z0:z1])


def test_bound_leaves_empty_space_out():
    """On a sparse grid only the targets' neighbourhoods are smoothed;
    with no bound to apply (float counts) the windows are whole planes."""
    counts = blob_grid(12)
    cfg = DenoiseConfig()
    kernels = tuple(gaussian_kernel(s, cfg.kernel_radius_factor) for s in cfg.sigmas)

    def covered(counts):
        grid = ref.grid_of(counts)
        windows = denoise_module._hot_windows(grid, kernels, 2.0)
        return sum((y1 - y0) * (z1 - z0) for _, y0, y1, z0, z1 in windows)

    assert 0 < covered(counts) < counts.size // 20
    assert covered(counts.astype(np.float64)) == counts.size
    # no voxel counts more than pulses_per_group photons
    counts[16, 16, 450] = SensorConfig().pulses_per_group
    assert 0 < covered(counts) < counts.size // 20


def window_cover(windows, shape) -> np.ndarray:
    """The voxels of ``shape`` that ``windows`` hold, each counted once
    per window that holds it."""
    covered = np.zeros(shape, np.int32)
    for x, y0, y1, z0, z1 in windows:
        covered[x, y0:y1, z0:z1] += 1
    return covered


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 30)),
    dtype=st.sampled_from([np.uint8, np.uint16, np.int32, np.bool_]),
    high=st.sampled_from([2, 30, 2**8, 2**16, 2**26]),
    sigmas=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    factor=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    mode=st.one_of(
        st.builds(Fixed, st.floats(0.0, 8.0)),
        st.builds(PeakFraction, st.floats(0.01, 1.0)),
        st.builds(MovingAverage, st.floats(0.01, 1.0), st.floats(0.0, 1.0)),
    ),
    t_prev=st.one_of(st.none(), st.floats(0.0, 8.0)),
)
def test_hot_windows_match_loop_reference(
    seed, shape, dtype, high, sigmas, factor, mode, t_prev
):
    """The bound's windows hold the plain-loop bound's windows at
    ``t_low`` and lie inside them at ``t_low`` less the smallest normal
    float, shrunk by the margin twice: mask equality alone would also
    pass a looser bound.  Counts run up to the dtype's limit; an
    occupancy of zero gives the empty grid."""
    counts = sparse_counts(np.random.default_rng(seed), shape, high=high)
    top = 1 if dtype is np.bool_ else np.iinfo(dtype).max
    counts = counts.clip(0, top).astype(dtype)
    kernels = tuple(gaussian_kernel(s, factor) for s in sigmas)
    grid = ref.grid_of(counts)
    t_low = denoise_module._lowest_level(grid, kernels, mode, t_prev)
    assert t_low == ref.lowest_level(counts, kernels, mode, t_prev)
    got = window_cover(denoise_module._hot_windows(grid, kernels, t_low), shape)
    margin = 1.0 + (sum(len(k) for k in kernels) + 8) * np.finfo(float).eps
    inner = ref.hot_windows(counts, kernels, t_low)
    outer = ref.hot_windows(
        counts, kernels, (t_low - np.finfo(float).tiny) / margin**2
    )
    assert got.max(initial=0) <= 1
    assert (got >= window_cover(inner, shape)).all()
    assert (got <= window_cover(outer, shape)).all()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 30)),
    dtype=st.sampled_from([np.uint8, np.uint16, np.int32, np.bool_]),
    high=st.sampled_from([2, 30, 2**8, 2**16, 2**26]),
    sigmas=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    factor=st.sampled_from([0.0, 0.5, 1.0, 3.0, 40.0]),
    level=st.sampled_from(["zero", "count", "peak", "between"]),
    data=st.data(),
)
def test_hot_windows_hold_every_voxel_that_can_pass(
    seed, shape, dtype, high, sigmas, factor, level, data
):
    """Every voxel whose dense smoothed value exceeds ``t_low``, or
    reaches it when ``t_low > 0``, lies in a window of the bound.
    ``t_low`` is zero, where every voxel with a value above it must be
    held, a count, the peak, or halfway between two counts (zero among
    the counts).  Factor 0 makes identity kernels, and factor 40
    taps that are tiny or 0."""
    counts = sparse_counts(np.random.default_rng(seed), shape, high=high)
    top = 1 if dtype is np.bool_ else np.iinfo(dtype).max
    counts = counts.clip(0, top).astype(dtype)
    want = ref.parzen_smooth(counts, sigmas, factor)
    levels = np.unique(np.append(counts.astype(np.float64), 0.0))
    if level == "count":
        t_low = data.draw(st.sampled_from(levels.tolist()))
    elif level == "between" and len(levels) > 1:
        i = data.draw(st.integers(0, len(levels) - 2))
        t_low = (levels[i] + levels[i + 1]) / 2
    else:
        t_low = float(want.max()) if level == "peak" else 0.0
    kernels = tuple(gaussian_kernel(s, factor) for s in sigmas)
    windows = denoise_module._hot_windows(ref.grid_of(counts), kernels, t_low)
    can_pass = want >= t_low if t_low > 0 else want > t_low
    assert window_cover(windows, shape)[can_pass].all()


@pytest.mark.parametrize(
    "shape, voxels, count, sigmas, factor, t_low",
    [
        # three z taps of 1/3 (sigma 1e9 at a reach of one voxel) make
        # the one block's bound the smoothed value summed in another
        # order: 1/3 * 7 rounds below 1/3 * 1 + 1/3 * 6, the peak
        pytest.param(
            (1, 1, 2), np.s_[0, 0], [1, 6], (0.01, 0.01, 1e9), 1e-9, None, id="margin"
        ),
        # x taps of 5e-324 carry the counts at z = 4 to 7 into the next
        # plane, where z = 3 smooths to four products of a little over
        # 0.5 * 5e-324, each rounded up; the bound, one product of their
        # block's sum, rounds to 2 * 5e-324, and only a threshold below
        # the smallest normal float marks every block hot
        pytest.param(
            (3, 1, 12), np.s_[0, 0, 4:8], 14, (1 / 38.59, 0.01, 10.0), 40.0,
            1.5e-323, id="underflow",
        ),
    ],
)
def test_hot_windows_hold_the_voxels_at_their_rounding_edge(
    shape, voxels, count, sigmas, factor, t_low
):
    """Where the bound is tight, only the margin, and where its products
    underflow, only the smallest normal float keep the windows holding
    every voxel that reaches ``t_low`` (the peak where not given)."""
    counts = np.zeros(shape, np.int32)
    counts[voxels] = count
    want = ref.parzen_smooth(counts, sigmas, factor)
    t_low = float(want.max()) if t_low is None else t_low
    assert (want >= t_low).any()
    kernels = tuple(gaussian_kernel(s, factor) for s in sigmas)
    windows = denoise_module._hot_windows(ref.grid_of(counts), kernels, t_low)
    assert window_cover(windows, shape)[want >= t_low].all()


@pytest.mark.parametrize("mode, t_prev", MODES)
def test_hot_windows_leave_the_dense_grid_unbuilt(mode, t_prev):
    """The bound reads the occupied voxels only."""
    grid = ref.grid_of(blob_grid(12))
    cfg = DenoiseConfig()
    kernels = tuple(gaussian_kernel(s, cfg.kernel_radius_factor) for s in cfg.sigmas)
    t_low = denoise_module._lowest_level(grid, kernels, mode, t_prev)
    assert denoise_module._hot_windows(grid, kernels, t_low)
    assert "counts" not in vars(grid)


def test_smoothed_windows_leave_the_dense_grid_unbuilt():
    """The smoothing reads the occupied voxels only, in hot windows and
    in whole planes alike."""
    grid = ref.grid_of(blob_grid(12))
    cfg = DenoiseConfig()
    kernels = tuple(gaussian_kernel(s, cfg.kernel_radius_factor) for s in cfg.sigmas)
    hot = denoise_module._hot_windows(grid, kernels, 2.0)
    for windows in (hot, denoise_module._whole_planes(grid.shape)):
        assert denoise_module._smoothed_windows(grid, kernels, windows)
    assert "counts" not in vars(grid)


def refuse_the_bound(*args):
    raise AssertionError("the windows fell back to the bound")


def test_parzen_denoise_passes_counts_packed_at_the_threshold(monkeypatch):
    """Counts of 3 filling an 11**3 cube smooth to 3 plus a rounding
    excess in its core, so ``Fixed(3)`` passes voxels there although no
    count exceeds 3: the seed windows hold them too."""
    counts = np.zeros((15, 15, 15), np.int32)
    counts[2:13, 2:13, 2:13] = 3
    sigmas = (0.7, 0.7, 0.7)
    assert (ref.parzen_smooth(counts, sigmas) > 3.0).sum() == 125
    monkeypatch.setattr(denoise_module, "_hot_windows", refuse_the_bound)
    assert_denoise_matches_dense(counts, sigmas, 3.0, Fixed(3.0), None)


def test_identity_kernels_hold_a_lone_peak():
    """Under identity kernels and ``PeakFraction(1)`` the lowest
    threshold is the largest count itself, so no count exceeds it; the
    lone voxel that holds it is a seed as a z-run of one, the length a
    run needs where ``sz`` is 0."""
    counts = sparse_counts(np.random.default_rng(3), (6, 7, 9))
    assert (counts == counts.max()).sum() == 1
    assert_denoise_matches_dense(counts, (1.0, 1.0, 1.0), 0.0, PeakFraction(1.0), None)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 30)),
    packed=st.integers(1, 4),
    face=st.sampled_from(["low", "high", "inside"]),
    sigmas=st.tuples(*[st.floats(0.05, 3.0)] * 3),
    factor=st.sampled_from([0.0, 0.5, 1.0, 3.0, 8.0, 40.0]),
    level=st.sampled_from(["packed", "peak", "zero", "between"]),
    data=st.data(),
)
def test_seed_windows_hold_every_voxel_that_can_pass(
    seed, shape, packed, face, sigmas, factor, level, data
):
    """Every voxel whose dense smoothed value exceeds ``t_low``, or
    reaches it when ``t_low > 0``, lies in a seed window, and the
    windows of a plane are disjoint.  A brick of counts at exactly
    ``packed``, against the low or high z face or inside, lies among
    counts up to ``packed + 1``; ``t_low`` is ``packed`` itself, the
    peak (whose voxel must then be held), zero, or between two counts.
    Factor 0 makes identity kernels, and factors 8 and 40 taps too small
    for the near-threshold margin (40 also taps that are 0).  The stack
    limit is lifted, so the windows never give way to the bound."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = shape
    occupied = rng.random(shape) < rng.uniform(0.0, 0.3)
    counts = (occupied * rng.integers(1, packed + 2, shape)).astype(np.int32)
    x0, y0 = data.draw(st.integers(0, nx - 1)), data.draw(st.integers(0, ny - 1))
    x1, y1 = data.draw(st.integers(x0 + 1, nx)), data.draw(st.integers(y0 + 1, ny))
    depth = data.draw(st.integers(1, nz))
    if face == "inside":
        z0 = data.draw(st.integers(0, nz - depth))
    else:
        z0 = 0 if face == "low" else nz - depth
    counts[x0:x1, y0:y1, z0 : z0 + depth] = packed
    want = ref.parzen_smooth(counts, sigmas, factor)
    t_low = {
        "packed": float(packed),
        "peak": float(want.max()),
        "zero": 0.0,
        "between": packed - 0.5,
    }[level]
    kernels = tuple(gaussian_kernel(s, factor) for s in sigmas)
    with mock.patch.object(denoise_module, "_STACK_CELLS", 2**62):
        windows = denoise_module._seed_windows(ref.grid_of(counts), kernels, t_low)
    covered = np.zeros(shape, np.int32)
    for x, y0, y1, z0, z1 in windows:
        covered[x, y0:y1, z0:z1] += 1
    assert covered.max() <= 1
    can_pass = want >= t_low if t_low > 0 else want > t_low
    assert covered[can_pass].all()
    if level == "peak":
        assert covered.reshape(-1)[np.argmax(want)]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 30)),
    sigmas=st.tuples(*[st.floats(0.05, 2.0)] * 3),
    factor=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    t_low=st.sampled_from([0.0, 1.0, 2.5, 5.0]),
    limit=st.integers(6, 12).map(lambda e: 2**e),
)
def test_seed_windows_refuse_only_what_one_stack_cannot_hold(
    seed, shape, sigmas, factor, t_low, limit
):
    """Under a stack limit the seed windows are those found without one,
    or a refusal: the same windows whenever every occupied voxel's
    planes fit the seed budget and the windows fit one stack, and a
    refusal whenever they do not fit one stack."""
    grid = ref.grid_of(sparse_counts(np.random.default_rng(seed), shape, high=8))
    kernels = tuple(gaussian_kernel(s, factor) for s in sigmas)
    with mock.patch.object(denoise_module, "_STACK_CELLS", 2**62):
        want = denoise_module._seed_windows(grid, kernels, t_low)
    with mock.patch.object(denoise_module, "_STACK_CELLS", limit):
        got = denoise_module._seed_windows(grid, kernels, t_low)
    assert got is None or got == want
    # one stack of the windows, as _stacks lays it out: the planes'
    # heights with margins, summed, times the widest
    ry, rz = len(kernels[1]) // 2, len(kernels[2]) // 2
    rows = sum(y1 - y0 + 2 * ry for _, y0, y1, _, _ in want)
    fits = rows * max((z1 - z0 + 2 * rz for *_, z0, z1 in want), default=0) <= limit
    # the seeds are occupied voxels, so they fit the budget too
    sx = np.count_nonzero(kernels[0]) // 2
    if fits and len(grid.flat) * (2 * sx + 1) <= limit:
        assert got == want
    if not fits:
        assert got is None


@pytest.mark.parametrize(
    "shape, factor, seeds, limit, fits",
    [
        # 64 seeds in one 64-row window of one column: both at the limit
        ((1, 65, 1), 0.0, np.s_[:64], 64, True),
        # one seed and one row more: past both
        ((1, 65, 1), 0.0, np.s_[:], 64, False),
        # two seeds 64 rows apart make one 65-row window
        ((1, 65, 1), 0.0, np.s_[::64], 64, False),
        # 16 seeds, each reaching 3 planes, count 48 against the budget,
        # although their one window, 6x6 with margins, would fit
        ((1, 4, 4), 1.0, np.s_[:], 40, False),
        ((1, 4, 4), 1.0, np.s_[:], 48, True),
    ],
    ids=["at_both", "past_both", "past_one_stack", "past_the_budget", "at_the_budget"],
)
def test_seed_windows_at_the_stack_limit(shape, factor, seeds, limit, fits):
    """The seed path takes windows whose seeds' planes and one stack
    both reach the limit exactly, and refuses them past either."""
    counts = np.zeros(shape, np.int32)
    counts[0][seeds] = 3
    kernels = (gaussian_kernel(1.0, factor),) * 3
    grid = ref.grid_of(counts)
    with mock.patch.object(denoise_module, "_STACK_CELLS", 2**62):
        want = denoise_module._seed_windows(grid, kernels, 2.0)
    with mock.patch.object(denoise_module, "_STACK_CELLS", limit):
        got = denoise_module._seed_windows(grid, kernels, 2.0)
    assert want and got == (want if fits else None)


def test_reference_config_takes_the_seed_windows(monkeypatch):
    """On the benchmark's parzen capture (the crossing demo scene at
    seed 1, whose first groups simulate alike whatever its group count)
    at the paper's reference config, ``Fixed(2)`` with unit sigmas, the
    windows come from the seeds: the bound, patched to fail, never
    runs, and the masks equal the dense ones."""
    root = Path(__file__).resolve().parent.parent
    scene, sensor = load_scene(root / "scenes" / "crossing_demo.scene")
    frames, _ = simulate(dataclasses.replace(scene, seed=1, n_groups=3), sensor)
    cfg = DenoiseConfig(scheme=Scheme.PARZEN_THRESHOLD, threshold_mode=Fixed(2.0))
    monkeypatch.setattr(denoise_module, "_hot_windows", refuse_the_bound)
    for group in group_frames(frames, sensor):
        grid = build_histogram(group, sensor)
        mask, t_used = denoise(grid, cfg)
        want, want_t = ref.denoise(grid, cfg)
        assert_same(mask, want)
        assert want.any() and t_used == want_t == 2.0


def test_swarm_capture_takes_the_shaped_bound(monkeypatch):
    """On the benchmark's swarm capture (seed 3, 40 targets) at the
    reference config the seed windows never fit one stack, so the bound
    runs, and the masks equal the dense ones."""
    root = Path(__file__).resolve().parent.parent
    # perfbench/child.py builds the scene and imports workloads by name
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import child

    scene, sensor = child.build_scene(photontrack, root, "swarm", 3)
    frames, _ = simulate(dataclasses.replace(scene, n_groups=2), sensor)
    cfg = DenoiseConfig(scheme=Scheme.PARZEN_THRESHOLD, threshold_mode=Fixed(2.0))
    hot_windows = denoise_module._hot_windows
    with mock.patch.object(denoise_module, "_hot_windows", wraps=hot_windows) as spy:
        for group in group_frames(frames, sensor):
            grid = build_histogram(group, sensor)
            mask, t_used = denoise(grid, cfg)
            want, want_t = ref.denoise(grid, cfg)
            assert_same(mask, want)
            assert want.any() and t_used == want_t == 2.0
    assert spy.call_count == 2


@pytest.mark.parametrize("family, seed", [("clutter", 1), ("demo60", 1)])
def test_shaped_bound_covers_under_1_percent(monkeypatch, family, seed):
    """On the first group of the benchmark's clutter and demo60
    captures at unit sigmas under ``Fixed(1)``, the windows the bound
    gives cover under 1% of the grid: a flat kernel's bound covered
    100% and about 70%."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import child

    scene, sensor = child.build_scene(photontrack, root, family, seed)
    frames, _ = simulate(dataclasses.replace(scene, n_groups=1), sensor)
    (group,) = group_frames(frames, sensor)
    grid = build_histogram(group, sensor)
    kernels = tuple(gaussian_kernel(1.0, 3.0) for _ in range(3))
    windows = denoise_module._hot_windows(grid, kernels, 1.0)
    assert 0 < window_cover(windows, grid.shape).sum() < 0.01 * math.prod(grid.shape)


# -- thresholding occupied voxels ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 30)),
    scheme=st.sampled_from([Scheme.THRESHOLD, Scheme.THRESHOLD_MAJORITY]),
    mode=st.one_of(
        st.builds(Fixed, st.floats(0.0, 8.0)),
        st.builds(PeakFraction, st.floats(0.01, 1.0)),
        st.builds(MovingAverage, st.floats(0.01, 1.0), st.floats(0.0, 1.0)),
    ),
    t_prev=st.one_of(st.none(), st.floats(0.0, 8.0)),
    mmin=st.integers(0, 27),
)
def test_occupied_voxel_threshold_matches_dense(seed, shape, scheme, mode, t_prev, mmin):
    """Thresholding the occupied counts, then voting, gives the dense
    grid's mask and threshold in every mode."""
    counts = sparse_counts(np.random.default_rng(seed), shape)
    cfg = DenoiseConfig(scheme=scheme, threshold_mode=mode, majority_min=mmin)
    mask, t_used = denoise(ref.grid_of(counts), cfg, t_prev)
    want, want_t = ref.denoise(counts, cfg, t_prev)
    assert_same(mask, want)
    assert np.float64(t_used).tobytes() == np.float64(want_t).tobytes()


# -- labeling and extraction --------------------------------------------------


def assert_same_labels(mask, connectivity):
    labels, n = label_components(mask, connectivity)
    want, want_n = ref.label_components(mask, connectivity)
    assert n == want_n
    assert_same(ref.dense_labels(labels, mask.shape), want)
    return labels


def assert_same_observations(labels, counts):
    got = extract_observations(labels, ref.grid_of(counts))
    want = ref.extract_observations(ref.dense_labels(labels, counts.shape), counts)
    assert_same(got.rows, want.rows)
    assert_same(got.voxels, want.voxels)


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
@pytest.mark.parametrize("name", sorted(EDGE_MASKS))
def test_labeling_edge_cases(name, connectivity):
    mask = EDGE_MASKS[name]
    labels = assert_same_labels(mask, connectivity)
    counts = np.arange(mask.size).reshape(mask.shape) % 7
    assert_same_observations(labels, counts)


def test_serpentine_is_one_component():
    mask = EDGE_MASKS["serpentine"]
    assert label_components(mask, 6)[1] == 1
    assert mask.sum() > mask.size // 3


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(*[st.integers(1, 9)] * 3),
    connectivity=st.sampled_from(CONNECTIVITIES),
)
def test_labeling_matches_union_find(seed, shape, connectivity):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, shape)
    labels = assert_same_labels(mask, connectivity)
    assert_same_observations(labels, rng.integers(0, 30, shape))


def test_noisy_full_grid_labels():
    rng = np.random.default_rng(3)
    mask = rng.random((32, 32, 600)) < 0.015
    counts = mask * rng.integers(1, 6, mask.shape)
    for connectivity in CONNECTIVITIES:
        labels = assert_same_labels(mask, connectivity)
    assert_same_observations(labels, counts)


# -- histogram ----------------------------------------------------------------


@pytest.mark.parametrize("width, height", [(5, 6), (6, 5), (1, 1), (32, 32)])
def test_histogram_matches_index_gathers(width, height):
    cfg = SensorConfig(width=width, height=height, ceiling=40, offset=3)
    rng = np.random.default_rng(width * 100 + height)
    special = np.array(
        [0, cfg.zmin - 1, cfg.zmin, cfg.zmax, cfg.zmax + 1, cfg.ceiling, 65535]
    )
    frames = np.where(
        rng.random((9, height, width)) < 0.5,
        rng.integers(0, cfg.ceiling + 1, (9, height, width)),
        rng.choice(special, (9, height, width)),
    ).astype(np.uint16)
    got = build_histogram(frames, cfg)
    want = ref.build_histogram(frames, cfg)
    assert got.shape == want.shape
    assert_same(got.flat, want.flat)
    assert_same(got.values, want.values)
    assert_same(got.counts, want.counts)


# -- whole pipeline -----------------------------------------------------------


def noisy_groups(sensor):
    scene = SceneSpec(
        targets=(
            TargetSpec((3, 3, 3), (8.0, 8.0, 150.0), 2.0, ((0, (0.4, 0.2, 0.0)),)),
            TargetSpec((4, 3, 2), (22.0, 20.0, 330.0), 2.0, ((0, (-0.4, 0.0, 0.0)),)),
        ),
        noise_rate=120.0,
        n_groups=6,
        seed=23,
    )
    frames, _ = simulate(scene, sensor)
    return group_frames(frames, sensor)


@pytest.mark.parametrize(
    "scheme, mode",
    [
        *(pytest.param(scheme, Fixed(1.0), id=str(scheme)) for scheme in Scheme),
        # a peak mode's windows are cut at the lowest threshold its peak
        # allows; over the six groups moving_average threads t_prev
        pytest.param(
            Scheme.PARZEN_THRESHOLD, PeakFraction(0.5), id="parzen-peak_fraction"
        ),
        pytest.param(
            Scheme.PARZEN_THRESHOLD, MovingAverage(0.5, 0.5), id="parzen-moving_average"
        ),
    ],
)
def test_pipeline_records_match_reference_front_end(scheme, mode, monkeypatch):
    cfg = pipeline.RunConfig(denoise=DenoiseConfig(scheme=scheme, threshold_mode=mode))
    groups = noisy_groups(cfg.sensor)
    fast, slow = [], []
    pipeline.run_groups(groups, cfg, on_step=fast.append)
    for name in ("build_histogram", "label_components", "extract_observations"):
        monkeypatch.setattr(pipeline, name, getattr(ref, name))
    dense_calls = []

    def dense_denoise(*args):
        dense_calls.append(args)
        return ref.denoise(*args)

    monkeypatch.setattr(pipeline, "denoise", dense_denoise)
    pipeline.run_groups(groups, cfg, on_step=slow.append)
    assert len(dense_calls) == len(groups)
    assert sum(len(rec.tracks) for rec in fast) > 0
    for a, b in zip(fast, slow, strict=True):
        assert_same(a.grid.counts, b.grid.counts)
        assert dataclasses.replace(a, grid=None) == dataclasses.replace(b, grid=None)


# -- scipy.ndimage, an independent implementation ----------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shape=st.tuples(*[st.integers(1, 10)] * 3))
def test_labels_equal_scipy(seed, shape):
    ndi = pytest.importorskip("scipy.ndimage")
    mask = random_mask(np.random.default_rng(seed), shape)
    for rank, connectivity in ((1, 6), (2, 18), (3, 26)):
        want, want_n = ndi.label(mask, ndi.generate_binary_structure(3, rank))
        labels, n = label_components(mask, connectivity)
        assert n == want_n
        np.testing.assert_array_equal(ref.dense_labels(labels, mask.shape), want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(*[st.integers(1, 10)] * 3),
    mmin=st.integers(0, 27),
)
def test_majority_equals_scipy_box_sum(seed, shape, mmin):
    ndi = pytest.importorskip("scipy.ndimage")
    mask = random_mask(np.random.default_rng(seed), shape)
    box = ndi.correlate(mask.astype(np.int32), np.ones((3, 3, 3)), mode="constant")
    want = box > mmin
    want[[0, -1]] = False
    want[:, [0, -1]] = False
    want[:, :, [0, -1]] = False
    np.testing.assert_array_equal(majority_rule(mask, mmin), want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(*[st.integers(1, 12)] * 3),
    sigmas=st.tuples(*[st.floats(0.2, 3.0)] * 3),
    factor=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
)
def test_parzen_equals_scipy_gaussian_filter(seed, shape, sigmas, factor):
    ndi = pytest.importorskip("scipy.ndimage")
    counts = np.random.default_rng(seed).integers(0, 20, shape)
    radius = [math.ceil(factor * s) for s in sigmas]
    want = ndi.gaussian_filter(
        counts.astype(np.float64), sigmas, mode="constant", radius=radius
    )
    got = parzen_smooth(counts, sigmas, factor)
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= 1e-12 * scale


def test_package_does_not_import_scipy():
    """scipy is a test-only oracle, never a runtime dependency."""
    code = (
        "import sys, photontrack, photontrack.cli; "
        "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
