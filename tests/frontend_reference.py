"""Loop versions of the vectorized front end, kept as test references.

Each function is the straightforward dense or per-voxel form of the
``photontrack`` entry point of the same name and computes the same
values in the same floating-point order, so tests compare the two with
exact equality.  ``denoise`` smooths and thresholds the whole grid,
where the library smooths only where its threshold can be crossed.

The references work on dense arrays.  ``grid_of`` and ``dense_labels``
convert at the boundary: a dense count array to the library's
occupied-voxel histogram, and the library's per-voxel labels to a
dense label grid.
"""
from __future__ import annotations

import math

import numpy as np

from photontrack.denoise import (
    Fixed,
    MovingAverage,
    PeakFraction,
    Scheme,
    gaussian_kernel,
)
from photontrack.labeling import (
    BoundingBox,
    TargetObservation,
    neighbor_offsets,
)
from photontrack.voxelizer import VoxelGrid


def grid_of(counts, group_index: int = 0) -> VoxelGrid:
    """The histogram whose dense ``counts`` are ``counts`` (any dtype)."""
    counts = np.asarray(counts)
    flat = np.flatnonzero(counts)
    return VoxelGrid(counts.shape, flat, counts.reshape(-1)[flat], group_index)


def dense_labels(labels, shape) -> np.ndarray:
    """The int32 label grid of ``label_components``' per-voxel labels,
    zero on background."""
    out = np.zeros(shape, dtype=np.int32)
    out.reshape(-1)[labels.flat] = labels.component
    return out


def build_histogram(group, cfg) -> VoxelGrid:
    """Gather each in-window pixel's (x, y, z) through broadcast index
    grids, then one flat bincount."""
    frames = group.frames
    nx, ny, nz = cfg.width, cfg.height, cfg.nz
    vals = frames.astype(np.int64, copy=False)
    valid = (vals >= cfg.zmin) & (vals <= cfg.zmax)
    ys, xs = np.indices((cfg.height, cfg.width))
    xv = np.broadcast_to(xs, vals.shape)[valid]
    yv = np.broadcast_to(ys, vals.shape)[valid]
    zv = vals[valid] - cfg.offset
    flat = (xv * ny + yv) * nz + zv
    counts = np.bincount(flat, minlength=nx * ny * nz).astype(np.int32)
    return grid_of(counts.reshape(nx, ny, nz), group.group_index)


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


def hot_windows(counts, kernels, mode, t_prev):
    """The Parzen bound's windows from plain loops: per x-plane, the
    bounding box of the 4-voxel z blocks whose box sum of counts exceeds
    the cut, in C order of x; whole planes where the bound does not
    apply."""
    kx, ky, kz = kernels
    rx, ry, rz = len(kx) // 2, len(ky) // 2, len(kz) // 2
    nx, ny, nz = counts.shape
    planes = [(x, 0, ny, 0, nz) for x in range(nx)] if ny and nz else []
    if not planes or counts.dtype.kind not in "biu":
        return planes
    exact = counts.astype(np.int64)
    cmax = int(exact.max())
    rb = math.ceil(rz / 4)
    volume = (2 * rx + 1) * (2 * ry + 1) * (2 * rb + 1) * 4
    if exact.min() < 0 or cmax * volume >= 2**31:
        return planes
    centre = float(kz[rz] * (ky[ry] * (kx[rx] * float(cmax))))
    t_low = mode.level(centre, t_prev)
    if not isinstance(mode, Fixed):
        t_low = min(centre, t_low)
    taps = len(kx) + len(ky) + len(kz)
    scale = kx.max() * ky.max() * kz.max() * (1.0 + (taps + 8) * np.finfo(float).eps)
    cut = math.floor(min(t_low / scale, 2**31 - 1))
    nb = math.ceil(nz / 4)
    blocks = np.zeros((nx, ny, nb), dtype=np.int64)
    for x in range(nx):
        for y in range(ny):
            for b in range(nb):
                blocks[x, y, b] = exact[x, y, 4 * b : 4 * b + 4].sum()
    windows = []
    for x in range(nx):
        hot = [
            (y, b)
            for y in range(ny)
            for b in range(nb)
            if blocks[
                max(0, x - rx) : x + rx + 1,
                max(0, y - ry) : y + ry + 1,
                max(0, b - rb) : b + rb + 1,
            ].sum()
            > cut
        ]
        if hot:
            ys, bs = [y for y, _ in hot], [b for _, b in hot]
            z1 = min(nz, 4 * (max(bs) + 1))
            windows.append((x, min(ys), max(ys) + 1, 4 * min(bs), z1))
    return windows


def denoise(grid, cfg, t_prev=None):
    """Smooth the whole grid when the scheme asks for it, then threshold
    every voxel at the mode's level, each written out here."""
    if t_prev is not None and t_prev < 0:
        raise ValueError("t_prev must be nonnegative")
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


def extract_observations(labels: np.ndarray, grid) -> list[TargetObservation]:
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
    observations = []
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
        observations.append(
            TargetObservation(
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
    return observations
