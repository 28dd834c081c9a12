"""Thresholding, majority voting and Parzen smoothing."""
import math

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


def threshold(a, mode, t_prev=None):
    """(mask, threshold used) of plain thresholding under ``mode``."""
    return denoise(a, DenoiseConfig(threshold_mode=mode), t_prev)


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
                denoise(a, DenoiseConfig(scheme=scheme, threshold_mode=mode), -1.0)


def test_moving_average_first_step_seeds_from_peak():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 10.0
    cfg = DenoiseConfig(threshold_mode=MovingAverage(alpha=0.5, beta=0.25))
    _, t = denoise(a, cfg, t_prev=None)
    # with t_prev seeded at alpha*peak the blend is a fixed point
    assert t == pytest.approx(5.0)


def test_moving_average_threading_through_denoise():
    cfg = DenoiseConfig(threshold_mode=MovingAverage(alpha=0.5, beta=0.5))
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 10.0
    _, t0 = denoise(a, cfg)
    b = np.zeros((2, 2, 2))
    b[0, 0, 0] = 20.0
    _, t1 = denoise(b, cfg, t_prev=t0)
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
    mask, t = denoise(a, cfg)
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
    mask, _ = denoise(a, cfg)
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
