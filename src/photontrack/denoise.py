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

All operations accept either a :class:`~photontrack.voxelizer.VoxelGrid`
or a bare array and return boolean masks of the same shape.

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
    the integer adds.
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

Non-integer or negative counts void the bound, and their windows are
whole planes.  A bound that covers everything (a zero threshold, dense
clutter) yields the same whole planes, at the cost of the dense loop
plus the bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

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


def _as_counts(grid) -> np.ndarray:
    return grid.counts if isinstance(grid, VoxelGrid) else np.asarray(grid)


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


def _smoothed_windows(counts: np.ndarray, kernels, windows):
    """Smooth ``counts`` inside each window ``(x, y0, y1, z0, z1)``.

    Yields ``(x, y0, y1, z0, z1, values)``, where ``values`` holds the
    smoothed ``counts[x, y0:y1, z0:z1]`` and is overwritten by the next
    window.  A window's x pass covers its rows and columns widened by
    the y and z radii, its y pass those columns, and its z pass runs
    over the window's rows laid end to end, ``rz`` zero columns apart,
    so each y and z tap is one contiguous slice.  The widened rows and
    columns are zero exactly where they lie beyond the grid, so every
    tap reads what the whole-grid passes would read, and every value is
    the same tap-ordered sum, bit for bit.  x taps that would read
    beyond the grid add zeros and are skipped.

    Counts are converted to float64 as the x taps read them, which is
    exact and spares a copy of the grid when the windows are small.
    When they cover most of the grid, each voxel is read by every x
    tap, and one up-front copy is cheaper.
    """
    if 2 * sum((y1 - y0) * (z1 - z0) for _, y0, y1, z0, z1 in windows) > counts.size:
        counts = counts.astype(np.float64)
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    nx, ny, nz = counts.shape
    by_x = np.empty((ny + 2 * ry) * nz)  # x pass, with ry rows above and below
    by_z = np.empty(ny * (nz + 2 * rz))  # z-pass input, rz columns either side
    by_y = np.empty(by_z.size)  # y pass, then z pass
    tmp = np.empty(by_z.size)
    for x, y0, y1, z0, z1 in windows:
        h, width = y1 - y0, z1 - z0 + 2 * rz
        ya, yb = max(0, y0 - ry), min(ny, y1 + ry)  # widened, inside the grid
        za, zb = max(0, z0 - rz), min(nz, z1 + rz)
        cols = zb - za
        top, bottom = (ya - y0 + ry) * cols, (yb - y0 + ry) * cols
        left, right = za - z0 + rz, zb - z0 + rz
        rows = by_z[: h * width]
        plane = rows.reshape(h, width)
        by_x[:top] = 0.0
        by_x[bottom : (h + 2 * ry) * cols] = 0.0
        plane[:, :left] = 0.0
        plane[:, right:] = 0.0
        inner = by_x[top:bottom].reshape(yb - ya, cols)
        lo, hi = max(0, rx - x), min(len(kx), nx + rx - x)
        x_taps = (counts[x + i - rx, ya:yb, za:zb] for i in range(lo, hi))
        _sum_taps(inner, tmp[: inner.size].reshape(inner.shape), kx[lo:hi], x_taps)
        n = h * cols
        y_taps = (by_x[j * cols : j * cols + n] for j in range(len(ky)))
        _sum_taps(by_y[:n], tmp[:n], ky, y_taps)
        plane[:, left:right] = by_y[:n].reshape(h, cols)
        span = rows.size - 2 * rz  # z-pass outputs from row 0, column 0 on
        z_taps = (rows[k : k + span] for k in range(len(kz)))
        _sum_taps(by_y[:span], tmp[:span], kz, z_taps)
        yield x, y0, y1, z0, z1, by_y[: rows.size].reshape(h, width)[:, : z1 - z0]


def _whole_planes(shape) -> list[tuple[int, int, int, int, int]]:
    nx, ny, nz = shape
    return [(x, 0, ny, 0, nz) for x in range(nx)] if ny and nz else []


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
    intermediates (a 32x600 plane is 150 kB) stay in cache.  Every
    output value is the tap-ordered sum of each pass over the
    zero-padded input.
    """
    counts = _as_counts(grid)
    kernels = tuple(gaussian_kernel(s, kernel_radius_factor) for s in sigmas)
    out = np.empty(counts.shape)
    planes = _whole_planes(counts.shape)
    for x, y0, y1, z0, z1, vals in _smoothed_windows(counts, kernels, planes):
        out[x, y0:y1, z0:z1] = vals
    return out


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


def _hot_windows(counts: np.ndarray, kernels, mode, t_prev):
    """The per-x-plane windows outside which no voxel can pass ``mode``;
    for the peak modes they also hold the peak.

    Returns whole planes when the bound does not apply: for non-integer
    or negative counts, and for counts so large that box sums could
    overflow int64.
    """
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    planes = _whole_planes(counts.shape)
    if not planes or counts.dtype.kind not in "biu":
        return planes
    cmin, cmax = int(counts.min()), int(counts.max())
    rb = -(-rz // _ZBLOCK)  # neighbouring blocks within rz of a block
    volume = (2 * rx + 1) * (2 * ry + 1) * (2 * rb + 1) * _ZBLOCK
    if cmin < 0 or cmax * volume >= 2**63:
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
    cut = math.floor(q) if q < 2**62 else 2**62

    dtype = np.int32 if cmax * volume < 2**31 else np.int64
    first, *rest = (counts[:, :, k::_ZBLOCK] for k in range(_ZBLOCK))
    blocks = np.empty(first.shape, dtype)
    n = rest[0].shape[2]  # the last block may be short
    # the adds run in the bound's type: in the counts' own, uint8 or
    # uint16 sums would wrap and bool ones would be ORs
    add = dict(dtype=dtype, casting="unsafe")
    np.add(first[:, :, :n], rest[0], out=blocks[:, :, :n], **add)
    blocks[:, :, n:] = first[:, :, n:]
    for part in rest[1:]:
        dst = blocks[:, :, : part.shape[2]]
        np.add(dst, part, out=dst, **add)
    box = _box_sum(_box_sum(_box_sum(blocks, rb, 2), ry, 1), rx, 0)
    hot = box > cut
    rows, cols = hot.any(axis=2), hot.any(axis=1)
    windows = []
    for x in np.flatnonzero(rows.any(axis=1)):
        ys, bs = np.flatnonzero(rows[x]), np.flatnonzero(cols[x])
        z1 = min(counts.shape[2], (int(bs[-1]) + 1) * _ZBLOCK)
        windows.append((int(x), int(ys[0]), int(ys[-1]) + 1, int(bs[0]) * _ZBLOCK, z1))
    return windows


def denoise(
    grid, cfg: DenoiseConfig, t_prev: float | None = None
) -> tuple[np.ndarray, float]:
    """Run the configured scheme; returns (mask, threshold actually used).

    A voxel passes when its (smoothed) value lies strictly above
    ``cfg.threshold_mode.level(peak, t_prev)``.  ``t_prev`` should be
    the threshold returned by the previous step, ``None`` at the first.

    ``parzen_threshold`` returns exactly ``parzen_smooth(grid) > t`` and
    the same ``t`` for every threshold mode, but smooths only the
    windows where an integer box-sum bound on the smoothed value can
    exceed the lowest threshold the mode could use (see the module
    docstring for why the bound holds and why the windows are exact).
    """
    if t_prev is not None and t_prev < 0:
        raise ValueError("t_prev must be nonnegative")
    source = _as_counts(grid)
    if cfg.scheme is Scheme.PARZEN_THRESHOLD:
        return _parzen_mask(source, cfg, t_prev)
    mask, t_used = _apply_threshold(source, cfg.threshold_mode, t_prev)
    if cfg.scheme is Scheme.THRESHOLD_MAJORITY:
        mask = majority_rule(mask, cfg.majority_min)
    return mask, t_used


def _parzen_mask(
    counts: np.ndarray, cfg: DenoiseConfig, t_prev: float | None
) -> tuple[np.ndarray, float]:
    mode = cfg.threshold_mode
    kernels = tuple(gaussian_kernel(s, cfg.kernel_radius_factor) for s in cfg.sigmas)
    windows = _hot_windows(counts, kernels, mode, t_prev)
    smoothed = _smoothed_windows(counts, kernels, windows)
    mask = np.zeros(counts.shape, dtype=bool)
    if isinstance(mode, Fixed):
        # the threshold is known before smoothing, so each window is
        # thresholded as it comes; the end-to-end path below gives the
        # same mask, but on whole planes its 4.9 MB copy cost ~1 ms a
        # 32x32x600 grid (18.4 against 17.4 ms), over the dense loop
        # plus the bound
        for x, y0, y1, z0, z1, vals in smoothed:
            mask[x, y0:y1, z0:z1] = vals > mode.t
        return mask, mode.t
    # a peak mode needs every window's values before it can threshold;
    # laid end to end in window order, whole planes come in C order
    bounds = [0, *accumulate((y1 - y0) * (z1 - z0) for _, y0, y1, z0, z1 in windows)]
    values = np.empty(bounds[-1])
    for (x, y0, y1, z0, z1, vals), a, b in zip(smoothed, bounds, bounds[1:]):
        values[a:b].reshape(vals.shape)[...] = vals
    passed, t_used = _apply_threshold(values, mode, t_prev)
    for (x, y0, y1, z0, z1), a, b in zip(windows, bounds, bounds[1:]):
        mask[x, y0:y1, z0:z1] = passed[a:b].reshape(y1 - y0, z1 - z0)
    return mask, t_used


def _apply_threshold(
    a: np.ndarray, mode: ThresholdMode, t_prev: float | None
) -> tuple[np.ndarray, float]:
    peak = 0.0 if isinstance(mode, Fixed) or not a.size else float(a.max())
    t = mode.level(peak, t_prev)
    return a > t, t
