"""Connected-component labeling and target candidate extraction.

After denoising, each cluster of mutually adjacent set voxels is treated
as one candidate target.  Adjacency is selectable (6, 18 or 26 neighbors)
and labels are assigned deterministically: component k is the k-th
component encountered when scanning voxels in C order, so repeated runs
over the same mask always agree.
"""
from __future__ import annotations

import logging
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


def _find(parent: list[int], i: int) -> int:
    # path halving keeps the forest shallow without recursion
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def label_components(mask: np.ndarray, connectivity: int = 26) -> tuple[np.ndarray, int]:
    """Label connected clusters of True voxels.

    Returns (labels, n) where labels has the mask's shape, zero marks
    background and components carry 1..n in first-encountered scan order.
    Union-find runs over the set voxels only, so sparse masks (the normal
    case after thresholding) stay cheap.
    """
    coords = np.argwhere(mask)
    labels = np.zeros(mask.shape, dtype=np.int32)
    if len(coords) == 0:
        return labels, 0

    index_of = {tuple(c): i for i, c in enumerate(coords)}
    parent = list(range(len(coords)))
    # argwhere scans in C order, so it suffices to union each voxel with
    # its already-visited neighbors (offsets lexicographically below zero)
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
    """
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
