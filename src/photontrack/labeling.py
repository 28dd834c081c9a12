"""Connected-component labeling and target candidate extraction.

After denoising, each cluster of mutually adjacent set voxels is treated
as one candidate target.  Adjacency is selectable (6, 18 or 26 neighbors)
and labels are assigned deterministically: component k is the k-th
component encountered when scanning voxels in C order, so repeated runs
over the same mask always agree.

Labels are held for the set voxels only (:class:`Labels`), and every
component is summarized from them in a few whole-array reductions.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .voxelizer import VoxelGrid

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

    @classmethod
    def from_faces(cls, faces) -> "BoundingBox":
        """The box nearest six faces given min xyz then max xyz.

        Each face rounds to the nearest voxel, halves to even (Python's
        ``round``, like ``np.rint``); a max face that rounds below its
        min face is raised to it.
        """
        lo = tuple(round(float(v)) for v in faces[:3])
        hi = tuple(max(round(float(v)), m) for v, m in zip(faces[3:], lo))
        return cls(lo, hi)

    @property
    def faces(self) -> tuple[int, int, int, int, int, int]:
        """The six faces, min xyz then max xyz."""
        return (*self.min, *self.max)


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


class Labels(NamedTuple):
    """Component numbers of the set voxels of a mask: ``component[i]``
    (1..n) is the component of the voxel at C-order index ``flat[i]``,
    and ``flat`` is sorted."""

    flat: np.ndarray  # (m,) int64
    component: np.ndarray  # (m,) int64


def label_components(mask: np.ndarray, connectivity: int = 26) -> tuple[Labels, int]:
    """Label connected clusters of True voxels.

    Returns (labels, n) where labels numbers every set voxel's component
    1..n in first-encountered scan order.

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
    flat = np.flatnonzero(mask)
    n = len(flat)
    if n == 0:
        return Labels(flat, np.zeros(0, dtype=np.int64)), 0

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
    return Labels(flat, np.cumsum(is_root)[root]), int(is_root.sum())


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


def extract_observations(labels: Labels, grid: VoxelGrid) -> list[TargetObservation]:
    """Summarize every component of a labeling of ``grid``'s voxels.

    Centroids are photon-weighted and fall back to the unweighted voxel
    mean if a component holds no photons at all (possible after
    smoothing pushed mass off-cluster).  Each labeled voxel weighs its
    count in ``grid``, zero where the grid has none.  A stable sort by
    component keeps C order within each component, and each component's
    sums, minima and maxima are one ``reduceat`` per quantity.  Counts
    and coordinates are integers, so every sum is exact (below 2**53)
    and each centroid is one rounding of the exact quotient.
    """
    if len(labels.flat) == 0:
        return []
    order = np.argsort(labels.component, kind="stable")
    flat, component = labels.flat[order], labels.component[order]
    voxels = np.column_stack(np.unravel_index(flat, grid.shape))
    weights = np.zeros(len(flat), dtype=np.int64)
    if len(grid.flat):
        pos = np.minimum(np.searchsorted(grid.flat, flat), len(grid.flat) - 1)
        found = grid.flat[pos] == flat
        weights[found] = grid.values[pos[found]]
    starts = np.flatnonzero(np.diff(component, prepend=0))
    ends = np.append(starts[1:], len(flat))
    total = np.add.reduceat(weights, starts)
    peak = np.maximum.reduceat(weights, starts)
    weighted = total > 0
    # a weighted mean where the component holds photons, else the plain one
    num = np.where(
        weighted[:, None],
        np.add.reduceat(voxels * weights[:, None], starts),
        np.add.reduceat(voxels, starts),
    )
    centroids = num / np.where(weighted, total, ends - starts)[:, None]
    lows = np.minimum.reduceat(voxels, starts).tolist()
    highs = np.maximum.reduceat(voxels, starts).tolist()
    return [
        TargetObservation(
            label=lab,
            voxels=voxels[a:b],
            volume=b - a,
            bbox=BoundingBox(tuple(lo), tuple(hi)),
            centroid=centroid,
            total_photons=tot,
            peak_photons=pk,
        )
        for lab, a, b, centroid, lo, hi, tot, pk in zip(
            component[starts].tolist(),
            starts.tolist(),
            ends.tolist(),
            centroids,
            lows,
            highs,
            total.tolist(),
            peak.tolist(),
        )
    ]


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
