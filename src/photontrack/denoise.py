"""Noise reduction over the voxel histogram.

Detection noise populates the raw histogram with many low-valued voxels
(typically one or two photons).  Three user-selectable schemes trade off
noise removal against shape preservation:

  * plain thresholding,
  * thresholding followed by a 3x3x3 majority vote,
  * Gaussian (Parzen-window) smoothing followed by thresholding.

All operations accept either a :class:`~photontrack.voxelizer.VoxelGrid`
or a bare array and return boolean masks of the same shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .voxelizer import VoxelGrid


class Scheme(Enum):
    THRESHOLD = "threshold"
    THRESHOLD_MAJORITY = "threshold_majority"
    PARZEN_THRESHOLD = "parzen_threshold"


@dataclass(frozen=True)
class Fixed:
    """Constant threshold."""

    t: float

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("threshold must be nonnegative")


@dataclass(frozen=True)
class PeakFraction:
    """Threshold at a fraction of the current peak voxel value."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class MovingAverage:
    """Convex blend of the current peak-fraction value with the past
    threshold; ``beta`` weighs the current term."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")


ThresholdMode = Fixed | PeakFraction | MovingAverage


@dataclass(frozen=True)
class DenoiseConfig:
    scheme: Scheme = Scheme.THRESHOLD
    threshold_mode: ThresholdMode = Fixed(2.0)
    majority_min: int = 2
    sigmas: tuple[float, float, float] = (1.0, 1.0, 1.0)
    kernel_radius_factor: float = 3.0

    def __post_init__(self) -> None:
        if not 0 <= self.majority_min <= 27:
            raise ValueError("majority_min must lie in [0, 27]")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be positive")
        if self.kernel_radius_factor < 0:
            raise ValueError("kernel_radius_factor must be nonnegative")


def _as_counts(grid) -> np.ndarray:
    return grid.counts if isinstance(grid, VoxelGrid) else np.asarray(grid)


def threshold_fixed(grid, t: float) -> np.ndarray:
    """Binary mask of voxels strictly above ``t``."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return _as_counts(grid) > t


def threshold_peak_fraction(grid, alpha: float) -> tuple[np.ndarray, float]:
    """Threshold at ``alpha`` times the peak voxel value.

    Returns (mask, threshold used).  An all-zero grid yields an empty
    mask and a zero threshold.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    a = _as_counts(grid)
    peak = float(a.max()) if a.size else 0.0
    t_used = alpha * peak
    return a > t_used, t_used


def threshold_moving_average(
    grid, alpha: float, beta: float, t_prev: float
) -> tuple[np.ndarray, float]:
    """Exponentially smoothed peak-fraction threshold.

    ``t_new = beta * (alpha * peak) + (1 - beta) * t_prev``; at the first
    step the caller seeds ``t_prev`` with the current peak-fraction value
    (which :func:`denoise` does automatically).
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0 <= beta <= 1:
        raise ValueError("beta must lie in [0, 1]")
    if t_prev < 0:
        raise ValueError("t_prev must be nonnegative")
    a = _as_counts(grid)
    peak = float(a.max()) if a.size else 0.0
    t_new = beta * (alpha * peak) + (1.0 - beta) * t_prev
    return a > t_new, t_new


def majority_rule(mask: np.ndarray, majority_min: int = 2) -> np.ndarray:
    """3x3x3 voting: an internal voxel survives iff more than
    ``majority_min`` voxels of its neighborhood (center included) are set.

    The vote reads the input mask only, and boundary voxels (with any
    neighbor out of bounds) are always cleared.  The 3x3x3 box is the
    product of three 1D boxes, so the neighborhood count is three passes
    of two adds (along x, then y, then z) over a one-byte copy of the
    mask.  Integer sums do not depend on their order and the largest,
    27, fits in int8, so the count equals the 27-cell count exactly.
    """
    if not 0 <= majority_min <= 27:
        raise ValueError("majority_min must lie in [0, 27]")
    nx, ny, nz = mask.shape
    out = np.zeros(mask.shape, dtype=bool)
    if nx < 3 or ny < 3 or nz < 3:
        return out
    m = np.asarray(mask, dtype=bool).view(np.int8)
    s = m[:-2] + m[1:-1] + m[2:]
    s = s[:, :-2] + s[:, 1:-1] + s[:, 2:]
    s = s[:, :, :-2] + s[:, :, 1:-1] + s[:, :, 2:]
    out[1:-1, 1:-1, 1:-1] = s > majority_min
    return out


def gaussian_kernel(sigma: float, radius_factor: float = 3.0) -> np.ndarray:
    """Symmetric 1D Gaussian taps normalized to sum 1.

    Half-width is ``ceil(radius_factor * sigma)``; a zero half-width
    degenerates to the identity kernel.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    r = math.ceil(radius_factor * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _sum_taps(acc: np.ndarray, tmp: np.ndarray, weights, sources) -> None:
    """``acc = (w0*s0 + w1*s1) + ...``, summed in tap order.

    Starting from ``w0*s0`` rather than ``0 + w0*s0`` can only turn a
    -0.0 result into +0.0.
    """
    pairs = iter(zip(weights, sources))
    w, src = next(pairs)
    np.multiply(w, src, out=acc)
    for w, src in pairs:
        np.multiply(w, src, out=tmp)
        acc += tmp


def parzen_smooth(
    grid,
    sigmas: tuple[float, float, float],
    kernel_radius_factor: float = 3.0,
) -> np.ndarray:
    """Separable Gaussian density smoothing of the photon histogram.

    Three sequential 1D passes with per-axis kernels (x, then y, then
    z); boundaries are zero-padded because the space beyond the field of
    view genuinely contains no photons.

    The y and z passes of an x-plane need only that plane's x-pass
    output, so the grid is smoothed one x-plane at a time and the
    intermediates (a 32x600 plane is 150 kB) stay in cache.  The y pass
    reads whole rows of a plane with zero rows above and below it; the z
    pass runs over the plane's rows laid end to end with ``rz`` zeros
    between them, so each of its taps is one contiguous slice.  Every
    output value is still the tap-ordered sum of each pass over the
    zero-padded input: x taps that would read beyond the grid add zeros
    and are skipped, which leaves every sum unchanged.
    """
    counts = _as_counts(grid).astype(np.float64)
    nx, ny, nz = counts.shape
    kx, ky, kz = (gaussian_kernel(s, kernel_radius_factor) for s in sigmas)
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    by_x = np.zeros((ny + 2 * ry, nz))  # x-pass plane inside zero rows
    by_y = np.zeros((ny, nz + 2 * rz))  # y-pass plane inside zero columns
    rows = by_y.reshape(-1)
    span = rows.size - 2 * rz  # z-pass outputs from row 0, col 0 on
    by_z = np.empty(rows.size)
    tmp = np.empty(rows.size)
    plane_tmp = tmp[: ny * nz].reshape(ny, nz)
    plane_acc = np.empty((ny, nz))
    out = np.empty(counts.shape)
    for x in range(nx):
        lo, hi = max(0, rx - x), min(len(kx), nx + rx - x)
        x_taps = counts[x + lo - rx : x + hi - rx]
        _sum_taps(by_x[ry : ry + ny], plane_tmp, kx[lo:hi], x_taps)
        y_taps = (by_x[j : j + ny] for j in range(len(ky)))
        _sum_taps(plane_acc, plane_tmp, ky, y_taps)
        by_y[:, rz : rz + nz] = plane_acc
        z_taps = (rows[k : k + span] for k in range(len(kz)))
        _sum_taps(by_z[:span], tmp[:span], kz, z_taps)
        out[x] = by_z.reshape(ny, -1)[:, :nz]
    return out


def denoise(
    grid, cfg: DenoiseConfig, t_prev: float | None = None
) -> tuple[np.ndarray, float]:
    """Run the configured scheme; returns (mask, threshold actually used).

    ``t_prev`` feeds the moving-average mode and should be the threshold
    returned by the previous step; ``None`` marks the first step, which
    seeds the average with the current peak-fraction value.
    """
    source = _as_counts(grid)
    if cfg.scheme is Scheme.PARZEN_THRESHOLD:
        source = parzen_smooth(source, cfg.sigmas, cfg.kernel_radius_factor)
    mask, t_used = _apply_threshold(source, cfg.threshold_mode, t_prev)
    if cfg.scheme is Scheme.THRESHOLD_MAJORITY:
        mask = majority_rule(mask, cfg.majority_min)
    return mask, t_used


def _apply_threshold(
    a: np.ndarray, mode: ThresholdMode, t_prev: float | None
) -> tuple[np.ndarray, float]:
    match mode:
        case Fixed(t=t):
            return threshold_fixed(a, t), t
        case PeakFraction(alpha=alpha):
            return threshold_peak_fraction(a, alpha)
        case MovingAverage(alpha=alpha, beta=beta):
            if t_prev is None:
                peak = float(a.max()) if a.size else 0.0
                t_prev = alpha * peak
            return threshold_moving_average(a, alpha, beta, t_prev)
    raise TypeError(f"unknown threshold mode {mode!r}")
