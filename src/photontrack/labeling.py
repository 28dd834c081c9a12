"""Connected-component labeling and target candidate extraction.

After denoising, each cluster of mutually adjacent set voxels is treated
as one candidate target.  Adjacency is selectable (6, 18 or 26 neighbors)
and labels are assigned deterministically: component k is the k-th
component encountered when scanning voxels in C order, so repeated runs
over the same mask always agree.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

_CONNECTIVITIES = (6, 18, 26)


@dataclass(frozen=True)
class BoundingBox:
    """Inclusive voxel-aligned box, ``min[i] <= max[i]`` per axis."""

    min: tuple[int, int, int]
    max: tuple[int, int, int]

    def __post_init__(self) -> None:
        if any(lo > hi for lo, hi in zip(self.min, self.max)):
            raise ValueError(f"degenerate box {self.min}..{self.max}")

    @property
    def sides(self) -> tuple[int, int, int]:
        return tuple(hi - lo + 1 for lo, hi in zip(self.min, self.max))

    @property
    def volume(self) -> int:
        sx, sy, sz = self.sides
        return sx * sy * sz

    def contains(self, other: "BoundingBox") -> bool:
        return all(a <= b for a, b in zip(self.min, other.min)) and all(
            b <= a for a, b in zip(self.max, other.max)
        )


def neighbor_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    """Offsets of the chosen 3D neighborhood, center excluded.

    6 shares faces, 18 adds edges, 26 adds corners.
    """
    if connectivity not in _CONNECTIVITIES:
        raise ValueError(f"connectivity must be one of {_CONNECTIVITIES}")
    limit = {6: 1, 18: 2, 26: 3}[connectivity]
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                d = abs(dx) + abs(dy) + abs(dz)
                if 0 < d <= limit:
                    offsets.append((dx, dy, dz))
    return offsets


def label_components(mask: np.ndarray, connectivity: int = 26) -> tuple[np.ndarray, int]:
    """Label connected clusters of True voxels.

    Returns (labels, n) where labels has the mask's shape, zero marks
    background and components carry 1..n in first-encountered scan order.

    Only the set voxels are visited, as a sorted list of flat indices (a
    C-order scan).  Each voxel's already-scanned neighbors are found with
    one binary search per neighbor offset, giving an edge list; every
    voxel then points at the smallest index of its component after
    rounds of hooking (a root adopts the smallest root it shares an edge
    with) and pointer jumping.  That smallest index is where the scan
    first meets the component, so ranking the roots in index order
    numbers the components exactly as a scan does (edge-list union-find
    after Wu, Otoo & Suzuki, 2009, in whole-array steps).
    """
    back = np.array([o for o in neighbor_offsets(connectivity) if o < (0, 0, 0)])
    labels = np.zeros(mask.shape, dtype=np.int32)
    flat = np.flatnonzero(mask)
    n = len(flat)
    if n == 0:
        return labels, 0

    _, ny, nz = mask.shape
    # inside[k, v]: the neighbor of voxel v at offset back[k] is in the grid
    inside = np.ones((len(back), n), dtype=bool)
    for c, o, size in zip(np.unravel_index(flat, mask.shape), back.T, mask.shape):
        shifted = c + o[:, None]
        inside &= (shifted >= 0) & (shifted < size)
    target = flat + ((back[:, 0] * ny + back[:, 1]) * nz + back[:, 2])[:, None]
    # -1 matches no voxel; an in-grid back neighbor precedes its voxel, so
    # every search lands in range
    target = np.where(inside, target, -1)
    pos = np.searchsorted(flat, target)
    k, voxel = np.nonzero(flat[pos] == target)
    neighbor = pos[k, voxel]

    # root[v] <= v always lies in v's component; a root points at itself
    root = np.arange(n)
    while True:
        ra, rb = root[voxel], root[neighbor]
        split = ra != rb
        if not split.any():
            break
        ra, rb = ra[split], rb[split]
        # hook each root onto the smallest root it shares an edge with,
        # then jump pointers until every voxel points at a root again
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

    is_root = root == np.arange(n)
    labels.reshape(-1)[flat] = np.cumsum(is_root)[root]
    return labels, int(is_root.sum())


@dataclass(frozen=True)
class TargetObservation:
    """One labeled cluster with its summary geometry and photon stats."""

    label: int
    voxels: np.ndarray
    volume: int
    bbox: BoundingBox
    centroid: np.ndarray
    total_photons: int
    peak_photons: int


def extract_observations(labels: np.ndarray, grid) -> list[TargetObservation]:
    """Summarize every component of a label grid.

    ``grid`` supplies photon counts for the weighted centroid; it can be
    a VoxelGrid or a bare count array.  Centroids are photon-weighted and
    fall back to the unweighted voxel mean if a component holds no
    photons at all (possible after smoothing pushed mass off-cluster).
    Labeled voxels come from one boolean scan of the label grid, in
    C order, and a stable sort by label keeps that order within each
    component.
    """
    counts = grid.counts if hasattr(grid, "counts") else np.asarray(grid)
    flat = np.flatnonzero(labels > 0)
    if len(flat) == 0:
        return []
    coords = np.column_stack(np.unravel_index(flat, labels.shape))
    vals = np.take(labels, flat)
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


_IMPORTANCE_KEYS = ("volume", "speed", "total_photons")


@dataclass(frozen=True)
class ImportanceConfig:
    """Weighted sum defining which targets matter most.

    Weights may combine cluster volume, track speed and total photon
    count; anything absent contributes nothing.
    """

    weights: dict[str, float] = field(default_factory=lambda: {"volume": 1.0})

    def __post_init__(self) -> None:
        unknown = set(self.weights) - set(_IMPORTANCE_KEYS)
        if unknown:
            raise ValueError(f"unknown importance keys {sorted(unknown)}")
        if not all(map(math.isfinite, self.weights.values())):
            raise ValueError("importance weights must be finite")
        if not any(w > 0 for w in self.weights.values()):
            raise ValueError("at least one importance weight must be positive")


def observation_score(
    obs: TargetObservation, cfg: ImportanceConfig, speed: float = 0.0
) -> float:
    values = {
        "volume": float(obs.volume),
        "speed": float(speed),
        "total_photons": float(obs.total_photons),
    }
    return sum(w * values[k] for k, w in cfg.weights.items())


def importance_sort(
    observations: list[TargetObservation],
    cfg: ImportanceConfig,
) -> list[TargetObservation]:
    """Sort descending by importance; equal scores keep label order."""
    return sorted(observations, key=lambda o: -observation_score(o, cfg))


def truncate_targets(
    sorted_observations: list[TargetObservation], t_max: int
) -> list[TargetObservation]:
    """Keep the ``t_max`` most important candidates."""
    if t_max < 1:
        raise ValueError("t_max must be positive")
    dropped = len(sorted_observations) - t_max
    if dropped > 0:
        logger.info("capacity %d: dropping %d low-importance candidates", t_max, dropped)
    return sorted_observations[:t_max]
