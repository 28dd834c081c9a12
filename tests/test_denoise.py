"""Thresholding, majority voting and Parzen smoothing."""
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from photontrack.raw_ingest import SensorConfig
from photontrack.simulator import SceneSpec, TargetSpec, simulate
from photontrack.voxelizer import build_histogram
from frontend_reference import grid_of


def threshold(a, mode, t_prev=None):
    """(mask, threshold used) of plain thresholding under ``mode``."""
    return denoise(grid_of(a), DenoiseConfig(threshold_mode=mode), t_prev)


def test_fixed_threshold_is_strict():
    a = np.array([[[0, 2, 3]]])
    mask, t = threshold(a, Fixed(2.0))
    assert mask.tolist() == [[[False, False, True]]]
    assert t == 2.0


def test_peak_fraction_threshold():
    a = np.zeros((3, 3, 3))
    a[1, 1, 1] = 10.0
    a[0, 0, 0] = 6.0
    mask, t = threshold(a, PeakFraction(0.5))
    assert t == 5.0
    assert mask.sum() == 2


def test_peak_fraction_of_empty_grid():
    for a in (np.zeros((2, 2, 2)), np.zeros((0, 2, 2))):
        mask, t = threshold(a, PeakFraction(0.3))
        assert t == 0.0
        assert not mask.any()


def test_moving_average_blend():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 10.0
    # 0.5 * (0.5 * 10) + 0.5 * 3 = 4.0
    mask, t = threshold(a, MovingAverage(alpha=0.5, beta=0.5), t_prev=3.0)
    assert t == pytest.approx(4.0)
    assert mask.sum() == 1


def test_mode_levels():
    assert Fixed(1.5).level(10.0, None) == Fixed(1.5).level(0.0, 7.0) == 1.5
    assert PeakFraction(0.25).level(10.0, 7.0) == 2.5
    assert MovingAverage(0.5, 0.25).level(8.0, 2.0) == 0.25 * 4.0 + 0.75 * 2.0
    assert MovingAverage(0.5, 0.25).level(8.0, None) == 4.0


def test_negative_previous_threshold_is_rejected():
    a = np.ones((2, 2, 2))
    for mode in (MovingAverage(0.5, 0.5), Fixed(1.0)):
        for scheme in Scheme:
            with pytest.raises(ValueError, match="t_prev"):
                denoise(grid_of(a), DenoiseConfig(scheme=scheme, threshold_mode=mode), -1.0)


@pytest.mark.parametrize("t_prev", [math.nan, math.inf])
@pytest.mark.parametrize("scheme", [Scheme.THRESHOLD, Scheme.PARZEN_THRESHOLD])
def test_nonfinite_previous_threshold_is_rejected(scheme, t_prev):
    """A NaN or infinite t_prev would give a NaN threshold (inf at
    beta = 1 as 0 * inf) that every later step inherits."""
    a = np.ones((2, 2, 2), dtype=np.int32)
    for mode in (MovingAverage(0.5, 0.5), MovingAverage(0.5, 1.0), Fixed(1.0)):
        cfg = DenoiseConfig(scheme=scheme, threshold_mode=mode)
        with pytest.raises(ValueError, match="t_prev must be finite and nonnegative"):
            denoise(grid_of(a), cfg, t_prev)


def test_moving_average_first_step_seeds_from_peak():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 10.0
    cfg = DenoiseConfig(threshold_mode=MovingAverage(alpha=0.5, beta=0.25))
    _, t = denoise(grid_of(a), cfg, t_prev=None)
    # with t_prev seeded at alpha*peak the blend is a fixed point
    assert t == pytest.approx(5.0)


def test_moving_average_threading_through_denoise():
    cfg = DenoiseConfig(threshold_mode=MovingAverage(alpha=0.5, beta=0.5))
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 10.0
    _, t0 = denoise(grid_of(a), cfg)
    b = np.zeros((2, 2, 2))
    b[0, 0, 0] = 20.0
    _, t1 = denoise(grid_of(b), cfg, t_prev=t0)
    assert t1 == pytest.approx(0.5 * 10.0 + 0.5 * 5.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), t1=st.floats(0, 5), dt=st.floats(0, 5))
def test_raising_threshold_shrinks_mask(seed, t1, dt):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 8, (5, 5, 5))
    lo, _ = threshold(a, Fixed(t1))
    hi, _ = threshold(a, Fixed(t1 + dt))
    assert not (hi & ~lo).any()


def test_majority_keeps_only_center_of_solid_cube():
    mask = np.ones((3, 3, 3), dtype=bool)
    out = majority_rule(mask, 2)
    expected = np.zeros((3, 3, 3), dtype=bool)
    expected[1, 1, 1] = True
    np.testing.assert_array_equal(out, expected)


def test_majority_votes_can_fill_gaps():
    # the vote counts the neighborhood, not the center, so a hole
    # surrounded by enough set voxels gets filled
    mask = np.ones((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = False
    out = majority_rule(mask, 2)
    assert out[1, 1, 1]


def test_majority_extreme_minimums():
    mask = np.ones((3, 3, 3), dtype=bool)
    assert majority_rule(mask, 26)[1, 1, 1]
    assert not majority_rule(mask, 27).any()


def test_majority_clears_boundary():
    mask = np.ones((4, 4, 4), dtype=bool)
    out = majority_rule(mask, 2)
    assert not out[0].any() and not out[-1].any()
    assert not out[:, 0].any() and not out[:, -1].any()
    assert not out[:, :, 0].any() and not out[:, :, -1].any()


def test_majority_of_thin_grid_is_empty():
    assert not majority_rule(np.ones((2, 5, 5), dtype=bool), 0).any()


def test_majority_reads_the_input_only():
    # a diagonal pair supports each cell with 2 neighbors; sequential
    # in-place updates would erase the first cell before the second votes
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1, 1, 1] = mask[2, 2, 2] = mask[3, 3, 3] = True
    out = majority_rule(mask, 1)
    assert out[2, 2, 2]


def test_gaussian_kernel_shape_and_mass():
    k = gaussian_kernel(1.0, 3.0)
    assert len(k) == 2 * 3 + 1
    assert k.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(k, k[::-1])
    assert len(gaussian_kernel(1.7, 3.0)) == 2 * math.ceil(3.0 * 1.7) + 1


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 200.0])
def test_gaussian_kernel_is_the_plain_formula(sigma):
    r = math.ceil(3.0 * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    assert gaussian_kernel(sigma, 3.0).tobytes() == (k / k.sum()).tobytes()


@pytest.mark.parametrize("sigma", [1e-300, 5e-324])
def test_gaussian_kernel_of_a_tiny_sigma_is_the_identity(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = gaussian_kernel(sigma, 3.0)
    assert k.tolist() == [0.0, 1.0, 0.0]


def test_parzen_kernels_are_built_once_and_read_only():
    """Every Parzen call with the same widths shares one set of kernels,
    so none of them may be written."""
    from photontrack.denoise import _kernels

    sigmas = (1.0, 2.0, 0.5)
    kernels = _kernels(sigmas, 3.0)
    assert _kernels(sigmas, 3.0) is kernels
    for k, sigma in zip(kernels, sigmas, strict=True):
        assert k.tobytes() == gaussian_kernel(sigma, 3.0).tobytes()
        assert not k.flags.writeable


def test_parzen_threshold_near_the_float_limit_keeps_nothing():
    grid = grid_of(np.full((3, 4, 8), 5, dtype=np.uint16))
    cfg = DenoiseConfig(scheme=Scheme.PARZEN_THRESHOLD, threshold_mode=Fixed(1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask, t = denoise(grid, cfg)
    assert t == 1e308 and not mask.any()


def test_parzen_denoise_peak_memory_is_below_the_dense_counts():
    """One Parzen ``denoise`` call at the default config, on a simulated
    32x32x600 group of two targets in dark counts, allocates less at its
    peak than one dense int32 count array of the grid."""
    sensor = SensorConfig()
    targets = (
        TargetSpec((3, 3, 3), (6.0, 10.0, 160.0), 2.0),
        TargetSpec((3, 3, 3), (25.0, 15.7, 320.0), 2.0),
    )
    frames, _ = simulate(SceneSpec(targets, noise_rate=50.0, seed=3), sensor)
    warm, grid = (build_histogram(frames, sensor) for _ in range(2))
    assert grid.shape == (32, 32, 600)
    cfg = DenoiseConfig(scheme=Scheme.PARZEN_THRESHOLD)
    denoise(warm, cfg)  # first-call allocations are not the step's
    tracemalloc.start()
    try:
        mask, _ = denoise(grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.any()
    assert peak < 32 * 32 * 600 * np.dtype(np.int32).itemsize


def test_parzen_preserves_interior_mass():
    a = np.zeros((15, 15, 15))
    a[7, 7, 7] = 1.0
    out = parzen_smooth(a, (1.0, 1.0, 1.0))
    assert out.sum() == pytest.approx(1.0, abs=1e-6)
    assert out[7, 7, 7] == out.max()


def test_parzen_tiny_sigma_is_identity():
    rng = np.random.default_rng(4)
    a = rng.random((6, 6, 6))
    out = parzen_smooth(a, (1e-3, 1e-3, 1e-3))
    np.testing.assert_allclose(out, a, atol=1e-12)


def test_parzen_is_anisotropic_per_axis():
    a = np.zeros((11, 11, 11))
    a[5, 5, 5] = 1.0
    out = parzen_smooth(a, (0.5, 0.5, 2.0))
    # wider kernel along z spreads more mass off-center there
    assert out[5, 5, 7] > out[7, 5, 5]


def test_scheme_dispatch_threshold_majority():
    a = np.zeros((5, 5, 5))
    a[2, 2, 2] = 5.0
    cfg = DenoiseConfig(
        scheme=Scheme.THRESHOLD_MAJORITY, threshold_mode=Fixed(1.0), majority_min=2
    )
    mask, t = denoise(grid_of(a), cfg)
    assert t == 1.0
    assert not mask.any()  # a lone voxel has no support


def test_scheme_dispatch_parzen():
    a = np.zeros((9, 9, 9))
    a[4, 4, 4] = 100.0
    cfg = DenoiseConfig(
        scheme=Scheme.PARZEN_THRESHOLD,
        threshold_mode=Fixed(0.5),
        sigmas=(1.0, 1.0, 1.0),
    )
    mask, _ = denoise(grid_of(a), cfg)
    assert mask[4, 4, 4]
    assert mask.sum() > 1  # smoothing spread the peak


@pytest.mark.parametrize(
    "mode",
    [lambda: Fixed(-1.0), lambda: PeakFraction(0.0), lambda: PeakFraction(1.5),
     lambda: MovingAverage(0.5, -0.1), lambda: MovingAverage(0.0, 0.5),
     lambda: Fixed(math.nan), lambda: Fixed(math.inf), lambda: PeakFraction(math.nan),
     lambda: MovingAverage(0.5, math.nan), lambda: MovingAverage(math.inf, 0.5)],
)
def test_threshold_mode_validation(mode):
    with pytest.raises(ValueError):
        mode()


def test_denoise_config_validation():
    with pytest.raises(ValueError):
        DenoiseConfig(majority_min=28)
    with pytest.raises(ValueError):
        DenoiseConfig(sigmas=(1.0, 0.0, 1.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            DenoiseConfig(sigmas=(1.0, 1.0, bad))
        with pytest.raises(ValueError):
            DenoiseConfig(kernel_radius_factor=bad)


def test_package_attribute_denoise_is_the_module():
    """``photontrack.denoise`` names the module, whose ``denoise`` is
    the function the pipeline calls."""
    import photontrack.denoise as module
    from photontrack import pipeline

    assert isinstance(module, types.ModuleType)
    assert module.DenoiseConfig is DenoiseConfig
    assert module.denoise is denoise is pipeline.denoise
