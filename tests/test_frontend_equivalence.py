"""The vectorized front end against its loop references and scipy.

``frontend_reference`` keeps the dense and per-voxel versions of the
histogram, majority vote, Parzen smoothing, labeling and extraction.
The arithmetic is the same in both, so results must be equal bit for
bit.  ``scipy.ndimage`` gives an independent check where installed.
"""
import dataclasses
import importlib
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frontend_reference as ref
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
from photontrack.raw_ingest import FrameGroup, SensorConfig, group_frames
from photontrack.simulator import SceneSpec, TargetSpec, simulate
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
def test_parzen_denoise_box_sums_beyond_int32(mode):
    """Only the interior passes, where the box sums reach 5.8e11."""
    counts = np.full((36, 36, 44), 2**24, np.int32)
    assert_denoise_matches_dense(counts, (5.0, 5.0, 5.0), 3.0, mode, None)


def z_pair(count, dtype):
    """Two equal counts at z = 0 and 1, which share a box-sum block."""
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
    """Block sums are taken in the bound's integer type, not the
    counts' own: a pair of counts that wraps or ORs in that type still
    passes a threshold below its smoothed value."""
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
        # lone voxels: the smoothed peak is the box-sum bound itself, up
        # to rounding; with the first three sigmas a step below it lies
        # above the unwidened bound, so only the margin keeps the voxel
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
    got = importlib.import_module("photontrack.denoise")._smoothed_windows(
        counts, kernels, windows
    )
    want = ref.parzen_smooth(counts, sigmas, factor)
    for (x, y0, y1, z0, z1), values in zip(windows, got, strict=True):
        assert_same(values, want[x, y0:y1, z0:z1])


def test_bound_leaves_empty_space_out():
    """On a sparse grid only the targets' neighbourhoods are smoothed;
    with no bound to apply (float counts) the windows are whole planes."""
    denoise_module = importlib.import_module("photontrack.denoise")
    counts = blob_grid(12)
    cfg = DenoiseConfig()
    kernels = tuple(gaussian_kernel(s, cfg.kernel_radius_factor) for s in cfg.sigmas)

    def covered(counts):
        grid = ref.grid_of(counts)
        windows = denoise_module._hot_windows(grid, kernels, Fixed(2.0), None)
        return sum((y1 - y0) * (z1 - z0) for _, y0, y1, z0, z1 in windows)

    assert 0 < covered(counts) < counts.size // 20
    assert covered(counts.astype(np.float64)) == counts.size
    # no voxel counts more than pulses_per_group photons, and at that
    # count the default box sums still fit int32, so the bound applies
    counts[16, 16, 450] = SensorConfig().pulses_per_group
    assert 0 < covered(counts) < counts.size // 20


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
    """The bound's windows are exactly those of the plain-loop bound:
    mask equality alone would also pass a looser bound.  Counts run up
    to the dtype's limit and past the int32 guard; an occupancy of zero
    gives the empty grid."""
    counts = sparse_counts(np.random.default_rng(seed), shape, high=high)
    top = 1 if dtype is np.bool_ else np.iinfo(dtype).max
    counts = counts.clip(0, top).astype(dtype)
    kernels = tuple(gaussian_kernel(s, factor) for s in sigmas)
    got = importlib.import_module("photontrack.denoise")._hot_windows(
        ref.grid_of(counts), kernels, mode, t_prev
    )
    assert got == ref.hot_windows(counts, kernels, mode, t_prev)


@pytest.mark.parametrize("mode, t_prev", MODES)
def test_hot_windows_leave_the_dense_grid_unbuilt(mode, t_prev):
    """The bound reads the occupied voxels only."""
    grid = ref.grid_of(blob_grid(12))
    cfg = DenoiseConfig()
    kernels = tuple(gaussian_kernel(s, cfg.kernel_radius_factor) for s in cfg.sigmas)
    assert importlib.import_module("photontrack.denoise")._hot_windows(
        grid, kernels, mode, t_prev
    )
    assert "counts" not in vars(grid)


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
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same(a.voxels, b.voxels)
        assert_same(a.centroid, b.centroid)
        assert (a.label, a.volume, a.bbox) == (b.label, b.volume, b.bbox)
        assert (a.total_photons, a.peak_photons) == (b.total_photons, b.peak_photons)


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
    group = FrameGroup(frames=frames, group_index=4)
    got = build_histogram(group, cfg)
    want = ref.build_histogram(group, cfg)
    assert got.group_index == want.group_index
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
