"""Noise reduction over the voxel histogram.

Detection noise populates the raw histogram with many low-valued voxels
(typically one or two photons).  Three user-selectable schemes trade off
noise removal against shape preservation:

  * plain thresholding,
  * thresholding followed by a 3x3x3 majority vote,
  * Gaussian (Parzen-window) smoothing followed by thresholding.

Every scheme thresholds with a mode (:class:`Fixed`,
:class:`PeakFraction`, :class:`MovingAverage`) that owns its defaults
and, in ``level(peak, t_prev)``, its rule for the threshold.

:func:`denoise` takes the histogram as its occupied voxels
(:class:`~photontrack.voxelizer.VoxelGrid`) and returns a dense boolean
mask of the grid's shape.  Every threshold level is at least zero and
empty voxels hold zero, so thresholding compares the occupied counts
only, and the majority vote visits only the set voxels and their
neighbours.  Parzen's bound reads the occupied voxels too; only its
smoothing passes read the dense count array.

Parzen thresholding smooths only where the threshold can be crossed.
The histogram is ~98.5% empty, and only the mask leaves the stage, so
:func:`denoise` first bounds the smoothed value from above and smooths
just the windows where that bound exceeds the threshold:

  * **The bound.**  A smoothed voxel is a sum of tap products times
    counts over its (2rx+1)(2ry+1)(2rz+1) box, and no tap product
    exceeds ``kx.max() * ky.max() * kz.max()``.  For nonnegative counts
    the smoothed value is therefore at most that product times the box
    sum of counts.  The box sums are taken on blocks of 4 voxels in z,
    whose boxes reach the whole neighbouring blocks within ``rz``: a
    coarser box, so a looser but still valid bound, and a quarter of
    the integer adds.  The block sums are one ``bincount`` of the
    occupied voxels' block ids.
  * **Rounding.**  Every pass adds nonnegative products, so its computed
    value exceeds the exact one by at most a factor ``(1 + u)**taps``
    (u the unit roundoff); the bound is widened by ``(taps + 8) * eps``,
    more than all three passes and the division that turns the
    threshold into an integer box-sum cut can round.  A zero box sum
    smooths to exactly zero, which no threshold of at least zero passes.
  * **Exact windows.**  Each x-plane's window is the bounding box of its
    blocks over the cut.  Inside it the three passes use the same taps
    in the same order as :func:`parzen_smooth`, reading zeros only
    beyond the real grid, so every value there is bit for bit the dense
    one; no voxel outside can exceed the threshold.
  * **Peak modes.**  ``peak_fraction`` and ``moving_average`` threshold
    at a value that grows with the peak.  Rounding is monotone and the
    terms are nonnegative, so the smoothed value at the brightest voxel,
    and hence the peak, is at least its centre-tap term
    ``kz[rz]*(ky[ry]*(kx[rx]*cmax))``.  The cut uses the lower of that
    term and the threshold it would give, so the peak voxel and every
    voxel above the true threshold lie inside the windows, and the
    peak, ``t_used`` and the mask come out exact.

Box sums are taken in int32.  Non-integer or negative counts void the
bound, and so do counts whose box sums could reach 2**31 (the pipeline's
counts are at most ``pulses_per_group``, 200 by default); their windows
are whole planes.  A bound that covers everything (a zero threshold,
dense clutter) yields the same whole planes, at the cost of the dense
loop plus the bound.
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

    t: float = 2.0

    def __post_init__(self) -> None:
        if not 0 <= self.t < math.inf:
            raise ValueError("threshold must be finite and nonnegative")

    def level(self, peak: float, t_prev: float | None) -> float:
        return self.t


@dataclass(frozen=True)
class PeakFraction:
    """Threshold at a fraction of the current peak voxel value."""

    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")

    def level(self, peak: float, t_prev: float | None) -> float:
        return self.alpha * peak


@dataclass(frozen=True)
class MovingAverage:
    """Exponentially smoothed peak-fraction threshold; ``beta`` weighs
    the current term, which also stands in for a missing ``t_prev``."""

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")

    def level(self, peak: float, t_prev: float | None) -> float:
        if t_prev is None:
            t_prev = self.alpha * peak
        return self.beta * (self.alpha * peak) + (1.0 - self.beta) * t_prev


ThresholdMode = Fixed | PeakFraction | MovingAverage


@dataclass(frozen=True)
class DenoiseConfig:
    scheme: Scheme = Scheme.THRESHOLD
    threshold_mode: ThresholdMode = Fixed()
    majority_min: int = 2
    sigmas: tuple[float, float, float] = (1.0, 1.0, 1.0)
    kernel_radius_factor: float = 3.0

    def __post_init__(self) -> None:
        if not 0 <= self.majority_min <= 27:
            raise ValueError("majority_min must lie in [0, 27]")
        if not all(0 < s < math.inf for s in self.sigmas):
            raise ValueError("sigmas must be finite and positive")
        if not 0 <= self.kernel_radius_factor < math.inf:
            raise ValueError("kernel_radius_factor must be finite and nonnegative")


def majority_rule(mask: np.ndarray, majority_min: int = 2) -> np.ndarray:
    """3x3x3 voting: an internal voxel survives iff more than
    ``majority_min`` voxels of its neighborhood (center included) are set.

    The vote reads the input mask only, and boundary voxels (with any
    neighbor out of bounds) are always cleared.
    """
    if not 0 <= majority_min <= 27:
        raise ValueError("majority_min must lie in [0, 27]")
    return _mask_of(_vote(np.flatnonzero(mask), mask.shape, majority_min), mask.shape)


def _vote(flat: np.ndarray, shape, majority_min: int) -> np.ndarray:
    """The sorted flat indices of the voxels that the 3x3x3 vote keeps,
    given the set voxels' flat indices.

    Every set voxel casts a vote at each of the 27 flat offsets of its
    box, so a voxel's votes are the set voxels whose boxes hold it.  For
    an interior voxel the 27 flat offsets reach exactly its coordinate
    neighbours, and its vote count is its neighbourhood count.  An offset
    that wraps in flat-index space lands outside the grid or on a
    boundary voxel, and the rule clears both.
    """
    nx, ny, nz = shape
    if nx < 3 or ny < 3 or nz < 3:
        return np.empty(0, dtype=np.int64)
    d = np.array([-1, 0, 1])
    offsets = ((d[:, None, None] * ny + d[:, None]) * nz + d).reshape(-1)
    candidates, votes = np.unique(
        (flat[:, None] + offsets).reshape(-1), return_counts=True
    )
    kept = candidates[votes > majority_min]
    kept = kept[(kept >= 0) & (kept < nx * ny * nz)]
    x, y, z = np.unravel_index(kept, shape)
    interior = (x > 0) & (x < nx - 1) & (y > 0) & (y < ny - 1) & (z > 0) & (z < nz - 1)
    return kept[interior]


def _mask_of(flat: np.ndarray, shape) -> np.ndarray:
    """A boolean grid of ``shape`` set at the flat indices ``flat``."""
    mask = np.zeros(shape, dtype=bool)
    mask.reshape(-1)[flat] = True
    return mask


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


def _sum_taps(weights, sources) -> np.ndarray:
    """``(w0*s0 + w1*s1) + ...``, summed in tap order.

    Starting from ``w0*s0`` rather than ``0 + w0*s0`` can only turn a
    -0.0 result into +0.0.
    """
    pairs = iter(zip(weights, sources))
    w, src = next(pairs)
    acc = w * src
    for w, src in pairs:
        acc += w * src
    return acc


def _smoothed_windows(counts: np.ndarray, kernels, windows) -> list[np.ndarray]:
    """The smoothed ``counts[x, y0:y1, z0:z1]`` of each window
    ``(x, y0, y1, z0, z1)``, one 2-D array per window.

    Each window is smoothed in its own zero plane, widened by ``ry`` rows
    and ``rz`` columns either side.  The x pass fills the part of the
    plane that lies inside the grid, so the plane is zero exactly where
    the whole-grid passes read zero padding; x taps that would read
    beyond the grid add zeros and are skipped.  The y pass sums whole
    rows of the plane.  Its rows, laid end to end, keep ``2 * rz`` zero
    columns between the data, so each z tap is one contiguous slice.
    Every value is the same tap-ordered sum as in the whole-grid
    passes, bit for bit.

    Counts are converted to float64 as the x taps read them, which is
    exact.
    """
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    nx, ny, nz = counts.shape
    smoothed = []
    for x, y0, y1, z0, z1 in windows:
        h, w = y1 - y0, z1 - z0
        top, left = y0 - ry, z0 - rz  # the plane's first row and column
        ya, yb = max(0, top), min(ny, y1 + ry)  # the plane's rows inside the grid
        za, zb = max(0, left), min(nz, z1 + rz)
        plane = np.zeros((h + 2 * ry, w + 2 * rz))
        lo, hi = max(0, rx - x), min(len(kx), nx + rx - x)
        x_taps = (counts[x + i - rx, ya:yb, za:zb] for i in range(lo, hi))
        plane[ya - top : yb - top, za - left : zb - left] = _sum_taps(kx[lo:hi], x_taps)
        rows = _sum_taps(ky, (plane[j : j + h] for j in range(len(ky))))
        # z outputs are taken at every column, and the last row's margin
        # reads up to 2 * rz zeros past the end
        flat = np.concatenate((rows.ravel(), np.zeros(2 * rz)))
        z = _sum_taps(kz, (flat[k : k + rows.size] for k in range(len(kz))))
        smoothed.append(z.reshape(rows.shape)[:, :w])
    return smoothed


def _whole_planes(shape) -> list[tuple[int, int, int, int, int]]:
    nx, ny, nz = shape
    return [(x, 0, ny, 0, nz) for x in range(nx)] if ny and nz else []


def parzen_smooth(
    counts: np.ndarray,
    sigmas: tuple[float, float, float],
    kernel_radius_factor: float = 3.0,
) -> np.ndarray:
    """Separable Gaussian density smoothing of the photon histogram.

    Three sequential 1D passes with per-axis kernels (x, then y, then
    z); boundaries are zero-padded because the space beyond the field of
    view genuinely contains no photons.

    The y and z passes of an x-plane need only that plane's x-pass
    output, so the grid is smoothed one x-plane at a time and the
    intermediates (a 32x600 plane is 150 kB) stay in cache.  Every
    output value is the tap-ordered sum of each pass over the
    zero-padded input.
    """
    kernels = tuple(gaussian_kernel(s, kernel_radius_factor) for s in sigmas)
    planes = _smoothed_windows(counts, kernels, _whole_planes(counts.shape))
    # np.array, unlike np.stack, takes the empty list of a grid without voxels
    return np.array(planes, dtype=np.float64).reshape(counts.shape)


_ZBLOCK = 4  # z voxels per block of the box-sum bound


def _box_sum(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Sum of ``a`` over ``[i - radius, i + radius]`` along ``axis``,
    zero beyond the ends."""
    out = a.copy()
    lead = (slice(None),) * axis
    for d in range(1, min(radius, a.shape[axis] - 1) + 1):
        out[lead + (slice(d, None),)] += a[lead + (slice(None, -d),)]
        out[lead + (slice(None, -d),)] += a[lead + (slice(d, None),)]
    return out


def _hot_windows(grid: VoxelGrid, kernels, mode, t_prev):
    """The per-x-plane windows outside which no voxel can pass ``mode``;
    for the peak modes they also hold the peak.

    The z-block sums are one ``bincount`` of the occupied voxels, and
    box sums are taken in int32.  Returns whole planes when the bound
    does not apply: for non-integer or negative counts, and for counts
    so large that a box sum could reach 2**31.
    """
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    nx, ny, nz = grid.shape
    planes = _whole_planes(grid.shape)
    values = grid.values
    if not planes or values.dtype.kind not in "biu":
        return planes
    # every voxel outside grid.flat holds 0
    cmin, cmax = int(values.min(initial=0)), int(values.max(initial=0))
    rb = -(-rz // _ZBLOCK)  # neighbouring blocks within rz of a block
    volume = (2 * rx + 1) * (2 * ry + 1) * (2 * rb + 1) * _ZBLOCK
    if cmin < 0 or cmax * volume >= 2**31:
        return planes

    # the peak's smoothed value is at least the brightest voxel's
    # centre-tap term, and every mode's threshold is nondecreasing in the
    # peak, so the threshold that term gives is the lowest one possible
    centre = float(kz[rz] * (ky[ry] * (kx[rx] * float(cmax))))
    t_low = mode.level(centre, t_prev)
    if not isinstance(mode, Fixed):
        t_low = min(centre, t_low)  # the peak itself must be smoothed
    taps = len(kx) + len(ky) + len(kz)
    scale = kx.max() * ky.max() * kz.max() * (1.0 + (taps + 8) * np.finfo(float).eps)
    q = t_low / scale  # a voxel above t_low, or at t_low > 0, has box sum > q
    # no box sum exceeds 2**31 - 1, and a cut there fits int32
    cut = math.floor(min(q, 2**31 - 1))

    # float64 sums of these integers are exact, and below 2**31 by the
    # guard above
    nb = -(-nz // _ZBLOCK)
    column, z = np.divmod(grid.flat, nz)
    blocks = np.bincount(
        column * nb + z // _ZBLOCK, weights=values, minlength=nx * ny * nb
    ).astype(np.int32).reshape(nx, ny, nb)
    box = _box_sum(_box_sum(_box_sum(blocks, rb, 2), ry, 1), rx, 0)
    hot = box > cut
    rows, cols = hot.any(axis=2), hot.any(axis=1)
    windows = []
    for x in np.flatnonzero(rows.any(axis=1)):
        ys, bs = np.flatnonzero(rows[x]), np.flatnonzero(cols[x])
        z1 = min(nz, (int(bs[-1]) + 1) * _ZBLOCK)
        windows.append((int(x), int(ys[0]), int(ys[-1]) + 1, int(bs[0]) * _ZBLOCK, z1))
    return windows


def denoise(
    grid: VoxelGrid, cfg: DenoiseConfig, t_prev: float | None = None
) -> tuple[np.ndarray, float]:
    """Run the configured scheme on a histogram; returns (mask,
    threshold actually used), the mask being a dense boolean grid.

    A voxel passes when its (smoothed) value lies strictly above
    ``cfg.threshold_mode.level(peak, t_prev)``.  ``t_prev`` should be
    the threshold returned by the previous step, ``None`` at the first.

    ``threshold`` and ``threshold_majority`` compare the occupied counts
    only: no level is below zero, so no empty voxel passes, and the peak
    is the largest occupied count (0.0 for an empty grid).

    ``parzen_threshold`` returns exactly ``parzen_smooth(counts) > t`` and
    the same ``t`` for every threshold mode, but smooths only the
    windows where an integer box-sum bound on the smoothed value can
    exceed the lowest threshold the mode could use (see the module
    docstring for why the bound holds and why the windows are exact).
    """
    if t_prev is not None and t_prev < 0:
        raise ValueError("t_prev must be nonnegative")
    if cfg.scheme is Scheme.PARZEN_THRESHOLD:
        return _parzen_mask(grid, cfg, t_prev)
    (passed,), t_used = _apply_threshold([grid.values], cfg.threshold_mode, t_prev)
    flat = grid.flat[passed]
    if cfg.scheme is Scheme.THRESHOLD_MAJORITY:
        flat = _vote(flat, grid.shape, cfg.majority_min)
    return _mask_of(flat, grid.shape), t_used


def _parzen_mask(
    grid: VoxelGrid, cfg: DenoiseConfig, t_prev: float | None
) -> tuple[np.ndarray, float]:
    mode = cfg.threshold_mode
    kernels = tuple(gaussian_kernel(s, cfg.kernel_radius_factor) for s in cfg.sigmas)
    windows = _hot_windows(grid, kernels, mode, t_prev)
    # a peak mode needs every window's values before it can threshold
    passed, t_used = _apply_threshold(
        _smoothed_windows(grid.counts, kernels, windows), mode, t_prev
    )
    mask = np.zeros(grid.shape, dtype=bool)
    for (x, y0, y1, z0, z1), window_passed in zip(windows, passed):
        mask[x, y0:y1, z0:z1] = window_passed
    return mask, t_used


def _apply_threshold(
    arrays: list[np.ndarray], mode: ThresholdMode, t_prev: float | None
) -> tuple[list[np.ndarray], float]:
    """Threshold every array at the mode's level; the peak is the
    largest value over all of them (0.0 when there are none, and not
    needed for :class:`Fixed`)."""
    peak = 0.0
    if not isinstance(mode, Fixed):
        peak = max((float(a.max()) for a in arrays if a.size), default=0.0)
    t = mode.level(peak, t_prev)
    return [a > t for a in arrays], t
