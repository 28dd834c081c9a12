"""Loop versions of the vectorized front end, kept as test references.

Each function is the straightforward dense or per-voxel form of the
``photontrack`` entry point of the same name and computes the same
values in the same floating-point order, so tests compare the two with
exact equality.  ``denoise`` smooths and thresholds the whole grid,
where the library smooths only where its threshold can be crossed.
``smoothed_at`` is one voxel of that smoothing, from which
``lowest_level`` finds the peak modes' lowest threshold, as the library
finds it from a one-voxel window of its own smoothing.

The references work on dense arrays.  ``grid_of`` and ``dense_labels``
convert at the boundary: a dense count array to the library's
occupied-voxel histogram, and the library's per-voxel labels to a
dense label grid.  ``observations`` summarizes each component as one
``Observation`` object, and ``candidates`` packs such objects into the
library's ``Candidates`` table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from photontrack.denoise import (
    Fixed,
    MovingAverage,
    PeakFraction,
    Scheme,
    gaussian_kernel,
)
from photontrack.labeling import BoundingBox, Candidates, neighbor_offsets
from photontrack.voxelizer import VoxelGrid


def grid_of(counts) -> VoxelGrid:
    """The histogram whose dense ``counts`` are ``counts`` (any dtype)."""
    counts = np.asarray(counts)
    flat = np.flatnonzero(counts)
    return VoxelGrid(counts.shape, flat, counts.reshape(-1)[flat])


def dense_labels(labels, shape) -> np.ndarray:
    """The int32 label grid of ``label_components``' per-voxel labels,
    zero on background."""
    out = np.zeros(shape, dtype=np.int32)
    out.reshape(-1)[labels.flat] = labels.component
    return out


def build_histogram(frames, cfg) -> VoxelGrid:
    """Gather each in-window pixel's (x, y, z) through broadcast index
    grids, then one flat bincount."""
    nx, ny, nz = cfg.width, cfg.height, cfg.nz
    vals = frames.astype(np.int64, copy=False)
    valid = (vals >= cfg.zmin) & (vals <= cfg.zmax)
    ys, xs = np.indices((cfg.height, cfg.width))
    xv = np.broadcast_to(xs, vals.shape)[valid]
    yv = np.broadcast_to(ys, vals.shape)[valid]
    zv = vals[valid] - cfg.offset
    flat = (xv * ny + yv) * nz + zv
    counts = np.bincount(flat, minlength=nx * ny * nz).astype(np.int32)
    return grid_of(counts.reshape(nx, ny, nz))


def majority_rule(mask: np.ndarray, majority_min: int = 2) -> np.ndarray:
    """Dense vote: the 27 shifted copies of the mask summed over the
    interior."""
    nx, ny, nz = mask.shape
    out = np.zeros(mask.shape, dtype=bool)
    if nx < 3 or ny < 3 or nz < 3:
        return out
    m = mask.astype(np.int32)
    acc = np.zeros((nx - 2, ny - 2, nz - 2), dtype=np.int32)
    for dx in range(3):
        for dy in range(3):
            for dz in range(3):
                acc += m[dx : dx + nx - 2, dy : dy + ny - 2, dz : dz + nz - 2]
    out[1:-1, 1:-1, 1:-1] = acc > majority_min
    return out


def _correlate1d(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """One zero-padded correlation pass along ``axis`` over the whole
    array, taps accumulated in order onto zeros."""
    r = len(kernel) // 2
    if r == 0:
        return arr * kernel[0]
    moved = np.moveaxis(arr, axis, -1)
    pad = [(0, 0)] * arr.ndim
    pad[-1] = (r, r)
    padded = np.pad(moved, pad)
    out = np.zeros_like(moved)
    n = moved.shape[-1]
    for i, w in enumerate(kernel):
        out += w * padded[..., i : i + n]
    return np.moveaxis(out, -1, axis)


def parzen_smooth(grid, sigmas, kernel_radius_factor: float = 3.0) -> np.ndarray:
    """Three whole-array 1D passes, x then y then z."""
    counts = grid.counts if hasattr(grid, "counts") else np.asarray(grid)
    out = counts.astype(np.float64)
    for axis, sigma in enumerate(sigmas):
        out = _correlate1d(out, gaussian_kernel(sigma, kernel_radius_factor), axis)
    return out


def smoothed_at(counts, kernels, voxel) -> float:
    """The smoothed value of one voxel of dense ``counts``: the x taps
    summed over each (y, z), then the y taps over each z, then the z
    taps, each in tap order from 0.0, with zeros beyond the grid."""
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    x0, y0, z0 = voxel

    def count(x, y, z):
        inside = all(0 <= i < n for i, n in zip((x, y, z), counts.shape))
        return int(counts[x, y, z]) if inside else 0

    total = 0.0
    for c, wz in enumerate(kz):
        row = 0.0
        for b, wy in enumerate(ky):
            column = 0.0
            for a, wx in enumerate(kx):
                column += float(wx) * count(x0 + a - rx, y0 + b - ry, z0 + c - rz)
            row += float(wy) * column
        total += float(wz) * row
    return total


def lowest_level(counts, kernels, mode, t_prev) -> float:
    """The lowest threshold ``mode`` can use on dense ``counts``: under
    the peak modes, from the smoothed value at the first brightest
    voxel."""
    if isinstance(mode, Fixed):
        return mode.t
    if not counts.any():
        return 0.0
    brightest = np.unravel_index(np.argmax(counts), counts.shape)
    peak_low = smoothed_at(counts, kernels, brightest)
    return min(peak_low, mode.level(peak_low, t_prev))


def hot_windows(counts, kernels, t):
    """The kernel-shaped bound's windows from plain loops: per x-plane,
    the bounding box of the 4-voxel z blocks whose bound is at least
    ``t``, in C order of x; whole planes for counts that are not
    nonnegative integers.  A block's bound sums, with ``math.fsum``,
    the x tap times the y tap times the largest z tap between the two
    blocks times the count sum of every block in reach."""
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    nx, ny, nz = counts.shape
    planes = [(x, 0, ny, 0, nz) for x in range(nx)] if ny and nz else []
    if not planes or counts.dtype.kind not in "biu" or counts.min() < 0:
        return planes
    nb = math.ceil(nz / 4)
    rb = math.ceil(rz / 4)
    blocks = {}
    for x in range(nx):
        for y in range(ny):
            for b in range(nb):
                total = sum(int(c) for c in counts[x, y, 4 * b : 4 * b + 4])
                if total:
                    blocks[x, y, b] = total

    def kzb(d):
        offsets = range(4 * d - 3, 4 * d + 4)
        return max((float(kz[o + rz]) for o in offsets if abs(o) <= rz), default=0.0)

    windows = []
    for x in range(nx):
        hot = []
        for y in range(ny):
            for b in range(nb):
                bound = math.fsum(
                    float(kx[x1 - x + rx] * ky[y1 - y + ry]) * kzb(b1 - b) * total
                    for (x1, y1, b1), total in blocks.items()
                    if abs(x1 - x) <= rx and abs(y1 - y) <= ry and abs(b1 - b) <= rb
                )
                if bound >= t:
                    hot.append((y, b))
        if hot:
            ys, bs = [y for y, _ in hot], [b for _, b in hot]
            z1 = min(nz, 4 * (max(bs) + 1))
            windows.append((x, min(ys), max(ys) + 1, 4 * min(bs), z1))
    return windows


def denoise(grid, cfg, t_prev=None):
    """Smooth the whole grid when the scheme asks for it, then threshold
    every voxel at the mode's level, each written out here."""
    if t_prev is not None and not 0 <= t_prev < math.inf:
        raise ValueError("t_prev must be finite and nonnegative")
    source = grid.counts if hasattr(grid, "counts") else np.asarray(grid)
    if cfg.scheme is Scheme.PARZEN_THRESHOLD:
        source = parzen_smooth(source, cfg.sigmas, cfg.kernel_radius_factor)
    peak = float(source.max()) if source.size else 0.0
    match cfg.threshold_mode:
        case Fixed(t=t):
            t_used = t
        case PeakFraction(alpha=alpha):
            t_used = alpha * peak
        case MovingAverage(alpha=alpha, beta=beta):
            if t_prev is None:
                t_prev = alpha * peak
            t_used = beta * (alpha * peak) + (1.0 - beta) * t_prev
    mask = source > t_used
    if cfg.scheme is Scheme.THRESHOLD_MAJORITY:
        mask = majority_rule(mask, cfg.majority_min)
    return mask, t_used


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def label_components(mask: np.ndarray, connectivity: int = 26):
    """Per-voxel union-find with path halving; component k is the k-th
    root met in a C-order scan."""
    coords = np.argwhere(mask)
    labels = np.zeros(mask.shape, dtype=np.int32)
    if len(coords) == 0:
        return labels, 0
    index_of = {tuple(c): i for i, c in enumerate(coords)}
    parent = list(range(len(coords)))
    back = [o for o in neighbor_offsets(connectivity) if o < (0, 0, 0)]
    for i, (x, y, z) in enumerate(coords):
        for dx, dy, dz in back:
            j = index_of.get((x + dx, y + dy, z + dz))
            if j is not None:
                ri, rj = _find(parent, i), _find(parent, j)
                if ri != rj:
                    parent[rj] = ri
    label_of_root: dict[int, int] = {}
    flat = []
    for i in range(len(coords)):
        r = _find(parent, i)
        if r not in label_of_root:
            label_of_root[r] = len(label_of_root) + 1
        flat.append(label_of_root[r])
    labels[tuple(coords.T)] = flat
    return labels, len(label_of_root)


@dataclass(frozen=True)
class Observation:
    """One labeled cluster with its summary geometry and photon stats."""

    label: int
    voxels: np.ndarray
    volume: int
    bbox: BoundingBox
    centroid: np.ndarray
    total_photons: int
    peak_photons: int


def candidates(observations) -> Candidates:
    """The library's table of ``observations``, one row each in order,
    with their voxels end to end."""
    rows, voxels, start = [], [np.zeros((0, 3), dtype=np.int64)], 0
    for o in observations:
        rows.append((*o.centroid, *o.bbox.faces, o.volume, o.total_photons,
                     o.peak_photons, o.label, start))
        voxels.append(np.asarray(o.voxels).reshape(-1, 3))
        start += len(voxels[-1])
    return Candidates(np.array(rows, dtype=np.float64).reshape(-1, 14),
                      np.concatenate(voxels))


def observation_score(obs: Observation, cfg, speed: float = 0.0) -> float:
    """One observation's importance under ``cfg``, a Python float sum."""
    values = {
        "volume": float(obs.volume),
        "speed": float(speed),
        "total_photons": float(obs.total_photons),
    }
    return sum(w * values[k] for k, w in cfg.weights.items())


def extract_observations(labels: np.ndarray, grid) -> Candidates:
    """The table of ``observations``."""
    return candidates(observations(labels, grid))


def observations(labels: np.ndarray, grid) -> list[Observation]:
    """Component summaries from an ``argwhere`` scan of the labels."""
    counts = grid.counts if hasattr(grid, "counts") else np.asarray(grid)
    coords = np.argwhere(labels > 0)
    if len(coords) == 0:
        return []
    vals = labels[tuple(coords.T)]
    order = np.argsort(vals, kind="stable")
    coords = coords[order]
    vals = vals[order]
    bounds = np.searchsorted(vals, np.arange(1, vals[-1] + 2))
    out = []
    for lab, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]), start=1):
        vox = coords[a:b]
        if len(vox) == 0:
            continue
        w = counts[tuple(vox.T)].astype(np.float64)
        total = float(w.sum())
        if total > 0:
            centroid = (vox * w[:, None]).sum(axis=0) / total
        else:
            centroid = vox.mean(axis=0)
        out.append(
            Observation(
                label=lab,
                voxels=vox,
                volume=len(vox),
                bbox=BoundingBox(
                    tuple(int(v) for v in vox.min(axis=0)),
                    tuple(int(v) for v in vox.max(axis=0)),
                ),
                centroid=centroid,
                total_photons=int(round(total)),
                peak_photons=int(w.max()),
            )
        )
    return out
