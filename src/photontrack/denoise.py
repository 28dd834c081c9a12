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
neighbours.  Parzen's bound and smoothing read the occupied voxels too,
so no scheme builds the dense count array.

Parzen thresholding smooths only where the threshold can be crossed.
The histogram is ~98.5% empty, and only the mask leaves the stage, so
:func:`denoise` first finds the lowest threshold ``t_low`` the mode
could use, then windows outside which no smoothed value can pass it,
and smooths just those windows:

  * **Seeds.**  Each kernel's taps sum to 1, so for nonnegative counts
    a smoothed value is at most ``1 + mu`` times the largest count in
    the reach of its nonzero taps (``sx``, ``sy``, ``sz`` voxels per
    axis), where ``mu = prod(fsum(k)) * (1 + 4 eps) * (1 + (taps + 8)
    eps) - 1`` covers the sums of the taps and every pass's rounding
    (below).  A voxel can therefore pass ``t_low`` only within the
    reach of a count above it, a seed, or where rounding lifts a reach
    packed with counts at ``t_low`` just past it.  In a reach without a
    seed, any count of at most ``t_low * (1 - 2 mu / kmin)``, ``kmin``
    the product of each axis's smallest nonzero tap, empty voxels and
    the zeros beyond the grid included, holds the value below
    ``t_low``, since its tap product is at least ``kmin``.  So a voxel
    without a seed in reach passes only inside a run of counts above
    that margin, at least ``min(sz + 1, nz)`` long, in its own z column,
    and such runs are seeds too; where ``kmin <= 2 mu`` every count
    above zero is a seed.  The argument covers values above ``t_low``,
    the mask, and for ``t_low > 0`` values at it, the peak.
  * **Seed windows.**  In each x-plane, the seeds within ``sx`` planes
    are sorted by z and split wherever two lie more than ``2 sz + 1``
    apart; each cluster's window is the y and z bounding box of its
    seeds' reach, clipped to the grid.  A plane may hold several
    windows, and none overlap.
  * **The shaped bound.**  When the seed windows, stacked with their
    margins, would not fit one stack of ``_STACK_CELLS`` cells, or the
    seeds are too many to cluster cheaply (``seeds * (2 sx + 1)`` over
    ``_STACK_CELLS``), the windows come from a bound in the kernel's own
    shape with the same ``t_low``.  The counts are summed over blocks of
    4 voxels in z, and ``kzb[d]`` is the largest z tap between a voxel
    of a block and one of the block ``d`` away.  For nonnegative counts
    every smoothed value in a block is therefore at most ``U``, the
    block sums correlated with the x taps, the y taps and ``kzb`` in
    turn.  Each pass of the smoothing adds nonnegative products, so its
    computed value exceeds the exact one by at most a factor
    ``(1 + u)**taps`` (u the unit roundoff); each pass of ``U``, summed
    in whatever order, and each block sum fall short of theirs by at
    most ``(1 - u)**n``, ``n`` their terms, and ``kzb`` has no more taps
    than ``kz``.  So ``U * (1 + (taps + 8) eps)``
    covers all of them and its own rounding, and adding the smallest
    normal float covers products that underflow, whose error is
    absolute.  Each x-plane's window is the bounding box of its blocks
    where that is at least ``t_low``; at a ``t_low`` no larger than
    that float every block is, and the windows are whole planes.
  * **Exact windows.**  Inside a window the three passes use the same
    taps in the same order as :func:`parzen_smooth`, reading zeros only
    beyond the real grid, so every value there is bit for bit the dense
    one; no voxel outside can exceed the threshold.  Consecutive
    windows share one pass per axis over a cache-sized stack of their
    planes, and the x pass reads the occupied voxels
    (:func:`_smoothed_windows`).
  * **Peak modes.**  ``peak_fraction`` and ``moving_average`` threshold
    at a value that grows with the peak, which is at least the smoothed
    value at the first brightest voxel.  That value is smoothed first,
    as a one-voxel window, so it is bit for bit the value that voxel
    gets in the windows.  ``t_low`` is the lower of it and the threshold
    it would give, so the peak voxel and every voxel above the true
    threshold lie inside the windows, and the peak, ``t_used`` and the
    mask come out exact.

Non-integer or negative counts void both bounds; their windows are
whole planes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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
    boundary voxel, and the rule clears both; a grid thinner than 3 on
    any axis has no interior voxel, so nothing survives.
    """
    nx, ny, nz = shape
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
    degenerates to the identity kernel.  A tap 40 sigmas or more from
    the centre is 0, as ``exp`` would round it (it underflows past
    38.6), and is not computed, since ``(x / sigma) ** 2`` could
    overflow there.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    r = math.ceil(radius_factor * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    near = np.abs(x) < 40.0 * sigma
    k = np.zeros(len(x))
    k[near] = np.exp(-0.5 * (x[near] / sigma) ** 2)
    return k / k.sum()


@lru_cache(maxsize=8)
def _kernels(sigmas: tuple[float, float, float], radius_factor: float):
    """The x, y and z kernels of ``sigmas``, built once per argument pair
    and read-only, since every caller shares them."""
    kernels = tuple(gaussian_kernel(s, radius_factor) for s in sigmas)
    for k in kernels:
        k.flags.writeable = False
    return kernels


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


_STACK_CELLS = 2**15  # float64 cells (256 KiB) of one stack of windows
_EPS = np.finfo(float).eps


def _stacks(windows, ry: int, rz: int):
    """Split ``windows`` into consecutive runs whose planes, widened by
    ``ry`` rows and ``rz`` columns either side and stacked at the width
    of the widest, hold at most ``_STACK_CELLS`` cells; a run holds at
    least one window, so a window too large for the limit has a stack of
    its own.  Yields each stack's ``(rows, columns)`` and its
    ``(first row, window)`` pairs."""
    placed, rows, width = [], 0, 0
    for window in windows:
        _, y0, y1, z0, z1 = window
        h, w = y1 - y0 + 2 * ry, z1 - z0 + 2 * rz
        if placed and (rows + h) * max(width, w) > _STACK_CELLS:
            yield (rows, width), placed
            placed, rows, width = [], 0, 0
        placed.append((rows, window))
        rows, width = rows + h, max(width, w)
    if placed:
        yield (rows, width), placed


def _ranges(starts: np.ndarray, stops: np.ndarray):
    """The ranges ``[starts[i], stops[i])`` laid end to end, and the
    ``i`` of each of their elements."""
    lengths = stops - starts
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.arange(len(owner)) + (starts - np.cumsum(lengths) + lengths)[owner]


def _smoothed_windows(grid: VoxelGrid, kernels, windows) -> list[np.ndarray]:
    """The smoothed histogram over each window ``(x, y0, y1, z0, z1)``,
    ``parzen_smooth(grid.counts)[x, y0:y1, z0:z1]``, one 2-D array per
    window, read from the occupied voxels alone.  A plane may hold any
    number of windows; the denoiser's are disjoint, several to a plane
    where its seeds lie apart in z.

    Each window is smoothed in its own zero plane, widened by ``ry`` rows
    and ``rz`` columns either side.  The planes of consecutive windows
    are stacked, up to ``_STACK_CELLS`` cells, in one zero array as wide
    as the widest, so that one pass per axis serves the whole stack.  A
    stack stays small enough for cache, which a single stack of every
    window would not.

    The x pass fills the part of each plane that lies inside the grid,
    so the plane is zero exactly where the whole-grid passes read zero
    padding; x taps that would read beyond the grid are skipped.  What
    one x tap reads on one in-grid row of a plane, the source row
    between the plane's in-grid columns, is one run of the sorted
    ``grid.flat``, and one ``searchsorted`` bounds every run of the
    stack.  The voxels add their tap products to their cells tap by tap,
    and a cell gets at most one voxel per tap.  An empty voxel would add
    exactly 0.0, so each cell is the dense pass's tap-ordered sum (see
    :func:`_sum_taps` for the one sign of zero that may differ).

    The y pass sums whole rows of the stack, and z tap ``k`` reads its
    columns ``k`` to ``k + w``.  A window's values are the rows of its
    own plane less the ``2 * ry`` margin rows and its first ``w``
    columns, and each is the same tap-ordered sum as in the whole-grid
    passes, bit for bit; the rows that straddle two planes mix them and
    are dropped.
    """
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    nx, ny, nz = grid.shape
    smoothed = []
    for shape, placed in _stacks(windows, ry, rz):
        r, x, y0, y1, z0, z1 = np.array([(r, *w) for r, w in placed]).T
        top, left = y0 - ry, z0 - rz  # each plane's first row and column
        win, y = _ranges(np.maximum(top, 0), np.minimum(y1 + ry, ny))  # in-grid rows
        za, zb = np.maximum(left, 0), np.minimum(z1 + rz, nz)  # and columns
        # every x tap of every row whose source plane lies in the grid,
        # tap-major, so that each cell's voxels below come in tap order
        source = x[win] + np.arange(len(kx))[:, None] - rx
        tap, at = np.nonzero((source >= 0) & (source < nx))
        win, y, source = win[at], y[at], source[tap, at]
        base = (source * ny + y) * nz  # the flat index of the row's z = 0
        bounds = np.searchsorted(grid.flat, [base + za[win], base + zb[win]])
        run, voxel = _ranges(*bounds)
        # the voxel at flat index f lands in stack cell f + shift
        shift = ((r - top)[win] + y) * shape[1] - left[win] - base
        stack = np.zeros(shape)
        np.add.at(
            stack.reshape(-1),
            grid.flat[voxel] + shift[run],
            kx[tap[run]] * grid.values[voxel],
        )
        h, w = len(stack) - 2 * ry, stack.shape[1] - 2 * rz
        rows = _sum_taps(ky, (stack[j : j + h] for j in range(len(ky))))
        out = _sum_taps(kz, (rows[:, k : k + w] for k in range(len(kz))))
        for r, (_, y0, y1, z0, z1) in placed:
            smoothed.append(out[r : r + y1 - y0, : z1 - z0])
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

    The input's nonzero voxels are smoothed as a
    :class:`~photontrack.voxelizer.VoxelGrid`, the same path as the
    pipeline's.  The y and z passes of an x-plane need only that plane's
    x-pass output, so the grid is smoothed in stacks of whole x-planes
    that hold at most ``_STACK_CELLS`` cells, which is one plane of a
    32x32x600 grid at the default kernels (a padded 38x606 plane is
    184 kB), and the intermediates stay in cache.  Every output value
    is the tap-ordered sum of each pass over the zero-padded input.
    """
    counts = np.asarray(counts)
    flat = np.flatnonzero(counts)
    grid = VoxelGrid(counts.shape, flat, counts.reshape(-1)[flat])
    kernels = _kernels(tuple(sigmas), kernel_radius_factor)
    planes = _smoothed_windows(grid, kernels, _whole_planes(counts.shape))
    # np.array, unlike np.stack, takes the empty list of a grid without voxels
    return np.array(planes, dtype=np.float64).reshape(counts.shape)


_ZBLOCK = 4  # z voxels per block of the bound
_TINY = np.finfo(float).tiny  # the smallest normal float


def _lowest_level(grid: VoxelGrid, kernels, mode, t_prev) -> float:
    """The lowest threshold ``mode`` can use on ``grid``; for the peak
    modes it is also at most the peak."""
    if isinstance(mode, Fixed):
        return mode.t
    if not len(grid.flat):
        return 0.0
    # the peak is at least the smoothed value at the first brightest
    # voxel, and every mode's threshold is nondecreasing in the peak,
    # so the threshold that value gives is the lowest one possible
    x, y, z = np.unravel_index(grid.flat[np.argmax(grid.values)], grid.shape)
    (at_brightest,) = _smoothed_windows(grid, kernels, [(x, y, y + 1, z, z + 1)])
    peak_low = float(at_brightest[0, 0])
    # the peak itself must be smoothed
    return min(peak_low, mode.level(peak_low, t_prev))


def _seed_windows(grid: VoxelGrid, kernels, t_low: float):
    """The windows around the seeds, the voxels near which a smoothed
    value can pass ``t_low``; ``None`` for counts that are not
    nonnegative integers, for seeds too many to cluster cheaply, and
    for windows that would not fit one stack."""
    values = grid.values
    if values.dtype.kind not in "biu" or values.min(initial=0) < 0:
        return None
    nx, ny, nz = grid.shape
    ry, rz = len(kernels[1]) // 2, len(kernels[2]) // 2
    # each axis's reach, the largest offset of a nonzero tap, and its
    # smallest nonzero tap, at that offset: the taps are symmetric and
    # fall off from the centre
    sx, sy, sz = reach = [np.count_nonzero(k) // 2 for k in kernels]
    kmin = math.prod(float(k[len(k) // 2 - s]) for k, s in zip(kernels, reach))
    taps = sum(len(k) for k in kernels)
    fsums = math.prod(math.fsum(k.tolist()) for k in kernels) * (1.0 + 4 * _EPS)
    mu = fsums * (1.0 + (taps + 8) * _EPS) - 1.0
    if kmin > 2 * mu:
        # in a reach without a seed, a count at most `near` holds the
        # value below t_low, so a voxel without a seed in reach passes
        # only inside a z-run of counts above `near` at least `run` long
        near, run = t_low * (1.0 - 2 * mu / kmin), min(sz + 1, nz)
    else:  # an empty voxel need not hold a value below t_low
        near, run = 0.0, 1
    close = values > near
    f = grid.flat[close]
    seed = values[close] > t_low
    # the first of each `run` consecutive close voxels of one z column
    starts = max(len(f) - run + 1, 0)
    at = np.flatnonzero(f[run - 1 :] - f[:starts] == run - 1)
    at = at[f[at] % nz <= nz - run]
    seed[(at[:, None] + np.arange(run)).reshape(-1)] = True
    flat = f[seed]
    if len(flat) * (2 * sx + 1) > _STACK_CELLS:
        return None
    if not len(flat):
        return []
    # every seed in each plane within sx of it, sorted by plane and z
    x, y, z = np.unravel_index(flat, grid.shape)
    plane = x[:, None] + np.arange(-sx, sx + 1)
    span = nz + 2 * sz + 2  # a plane's z positions, and a gap to the next
    key = (plane * span + z[:, None]) * ny + y[:, None]
    key, y = np.divmod(np.sort(key[(plane >= 0) & (plane < nx)]), ny)
    # a new window at each z gap wider than 2sz + 1, so at each plane,
    # and no two windows of a plane overlap
    first = np.flatnonzero(np.diff(key, prepend=-span) > 2 * sz + 1)
    plane, z = np.divmod(key, span)
    y0 = np.maximum(np.minimum.reduceat(y, first) - sy, 0)
    y1 = np.minimum(np.maximum.reduceat(y, first) + sy + 1, ny)
    z0 = np.maximum(z[first] - sz, 0)
    z1 = np.minimum(z[np.append(first[1:], len(z)) - 1] + sz + 1, nz)
    # the cells of one stack of every window, as _stacks lays them out
    if (y1 - y0 + 2 * ry).sum() * (z1 - z0 + 2 * rz).max() > _STACK_CELLS:
        return None
    return list(zip(*(a.tolist() for a in (plane[first], y0, y1, z0, z1))))


def _hot_windows(grid: VoxelGrid, kernels, t_low: float):
    """The per-x-plane windows outside which no voxel can exceed
    ``t_low``, nor reach it when ``t_low > 0``, from the kernel-shaped
    bound on 4-voxel z-blocks; whole planes for counts that are not
    nonnegative integers.

    The block sums are one ``bincount`` of the occupied voxels' block
    ids, and the bound correlates them with the x taps, the y taps and
    ``kzb`` in turn.
    """
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    nx, ny, nz = grid.shape
    planes = _whole_planes(grid.shape)
    values = grid.values
    if not planes or values.dtype.kind not in "biu" or values.min(initial=0) < 0:
        return planes
    if t_low <= _TINY:  # U * margin + tiny >= t_low at every block
        return planes
    # kzb[rb + d]: the largest z tap between a voxel of a block and one
    # of the block d away, at offsets 4d - 3 to 4d + 3
    rb = -(-rz // _ZBLOCK)
    windows = np.lib.stride_tricks.sliding_window_view
    kzb = windows(np.pad(kz, _ZBLOCK * (rb + 1) - 1 - rz), 2 * _ZBLOCK - 1)
    kzb = kzb[::_ZBLOCK].max(axis=1)
    # a voxel's block id is column * nb + z // _ZBLOCK: padding each
    # column of nz voxels to nb whole blocks makes it one division of the
    # flat index.  float64 sums of the counts neither wrap nor, for bool
    # counts, OR
    nb = -(-nz // _ZBLOCK)
    flat = grid.flat
    block = (flat + flat // nz * (nb * _ZBLOCK - nz)) // _ZBLOCK
    bound = np.bincount(block, weights=values, minlength=nx * ny * nb)
    # the block sums, zero-padded, correlated with the x taps, the y taps
    # and kzb in turn: the margin covers any summation order, so each
    # pass is one product with the taps, not a tap-ordered sum
    bound = np.pad(bound.reshape(nx, ny, nb), [(rx, rx), (ry, ry), (rb, rb)])
    bound = windows(bound, len(kx), axis=0) @ kx
    bound = windows(bound, len(ky), axis=1) @ ky
    bound = windows(bound, len(kzb), axis=2) @ kzb
    margin = 1.0 + (len(kx) + len(ky) + len(kz) + 8) * _EPS
    hot = bound * margin + _TINY >= t_low
    rows, cols = hot.any(axis=2), hot.any(axis=1)
    xs = np.flatnonzero(rows.any(axis=1))
    rows, cols = rows[xs], cols[xs]
    # each hot plane's first and one-past-last hot row and block
    y0, b0 = rows.argmax(axis=1), cols.argmax(axis=1)
    y1 = ny - rows[:, ::-1].argmax(axis=1)
    z1 = np.minimum(nz, (nb - cols[:, ::-1].argmax(axis=1)) * _ZBLOCK)
    return list(zip(*(a.tolist() for a in (xs, y0, y1, b0 * _ZBLOCK, z1))))


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
    the same ``t`` for every threshold mode, but smooths only windows
    around the counts from which the smoothed value can pass the lowest
    threshold the mode could use, or where they are many, the windows
    where a bound in the kernel's shape can (see the module docstring
    for why both bounds hold and why the windows are exact).
    """
    if t_prev is not None and not 0 <= t_prev < math.inf:
        raise ValueError("t_prev must be finite and nonnegative")
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
    """Smooth the seed windows, or the shaped bound's where those do not
    fit one stack, threshold them, and write each window's verdicts into the
    dense mask; no two windows overlap, and a plane may hold several."""
    mode = cfg.threshold_mode
    kernels = _kernels(tuple(cfg.sigmas), cfg.kernel_radius_factor)
    t_low = _lowest_level(grid, kernels, mode, t_prev)
    windows = _seed_windows(grid, kernels, t_low)
    if windows is None:
        windows = _hot_windows(grid, kernels, t_low)
    # a peak mode needs every window's values before it can threshold
    passed, t_used = _apply_threshold(
        _smoothed_windows(grid, kernels, windows), mode, t_prev
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
