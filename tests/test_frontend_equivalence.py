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
    Scheme,
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


# -- labeling and extraction --------------------------------------------------


def assert_same_labels(mask, connectivity):
    labels, n = label_components(mask, connectivity)
    want, want_n = ref.label_components(mask, connectivity)
    assert n == want_n
    assert_same(labels, want)
    return labels


def assert_same_observations(labels, counts):
    got = extract_observations(labels, counts)
    want = ref.extract_observations(labels, counts)
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


@pytest.mark.parametrize("scheme", list(Scheme))
def test_pipeline_records_match_reference_front_end(scheme, monkeypatch):
    cfg = pipeline.RunConfig(
        denoise=DenoiseConfig(scheme=scheme, threshold_mode=Fixed(1.0)),
    )
    groups = noisy_groups(cfg.sensor)
    fast = pipeline.run_groups(groups, cfg, keep_grids=True).steps
    for name in ("build_histogram", "label_components", "extract_observations"):
        monkeypatch.setattr(pipeline, name, getattr(ref, name))
    # denoise() calls its two stages through its module's globals
    denoise_module = importlib.import_module("photontrack.denoise")
    for name in ("majority_rule", "parzen_smooth"):
        monkeypatch.setattr(denoise_module, name, getattr(ref, name))
    slow = pipeline.run_groups(groups, cfg, keep_grids=True).steps
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
        np.testing.assert_array_equal(labels, want)


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
