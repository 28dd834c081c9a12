"""Connected-component labeling and target candidate extraction.

After denoising, each cluster of mutually adjacent set voxels is treated
as one candidate target.  Adjacency is selectable (6, 18 or 26 neighbors)
and labels are assigned deterministically: component k is the k-th
component encountered when scanning voxels in C order, so repeated runs
over the same mask always agree.

Labels are held for the set voxels only (:class:`Labels`), and every
component is summarized from them in a few whole-array reductions, as
one row of a :class:`Candidates` table: its geometry, its photons and
its voxels' coordinate covariance, from which a track's orientation is
taken.  Ranking and truncation reorder and cut that table's rows, and
the tracker keeps the rows its tracks last matched; no stage after
extraction reads a voxel.
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
    C-order scan).  They are indexed in the grid padded by one empty
    voxel per side, where every neighbor offset is one fixed flat step
    and a neighbor beyond the grid is a padding voxel that matches no set
    voxel.  Each voxel's already-scanned neighbors are found with one
    binary search per neighbor offset, giving an edge list; every voxel
    then points at the smallest index of its component after rounds of
    hooking (a root adopts the smallest root it shares an edge with) and
    pointer jumping.  That smallest index is where the scan first meets
    the component, so ranking the roots in index order numbers the
    components exactly as a scan does (edge-list union-find after Wu,
    Otoo & Suzuki, 2009, in whole-array steps).
    """
    back = np.array([o for o in neighbor_offsets(connectivity) if o < (0, 0, 0)])
    flat = np.flatnonzero(mask)
    n = len(flat)
    if n == 0:
        return Labels(flat, np.zeros(0, dtype=np.int64)), 0

    _, py, pz = (size + 2 for size in mask.shape)
    x, y, z = np.unravel_index(flat, mask.shape)
    padded = ((x + 1) * py + y + 1) * pz + z + 1
    # a back neighbor precedes its voxel, so no search runs past the end
    target = padded + ((back[:, 0] * py + back[:, 1]) * pz + back[:, 2])[:, None]
    pos = np.searchsorted(padded, target)
    k, voxel = np.nonzero(padded[pos] == target)
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


@dataclass(frozen=True, eq=False)
class Candidates:
    """Candidate targets, one row each, in one table.

    ``rows`` is a ``(k, 22)`` float64 array.  Its columns 0-11 are
    ``FeatureVector``'s first twelve fields: the centroid, the six box
    faces (min xyz, then max xyz), the volume, and the total and peak
    photons.  Columns 12-20 are the 3x3 coordinate covariance of the
    component's voxels, row-major, and column 21 is its label.  Labels,
    counts and coordinates are integers below 2**53, so float64 holds
    them exactly.
    """

    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def centroid(self) -> np.ndarray:
        return self.rows[:, 0:3]

    @property
    def faces(self) -> np.ndarray:
        return self.rows[:, 3:9]

    @property
    def volume(self) -> np.ndarray:
        return self.rows[:, 9]

    @property
    def total_photons(self) -> np.ndarray:
        return self.rows[:, 10]

    @property
    def peak_photons(self) -> np.ndarray:
        return self.rows[:, 11]

    @property
    def covariance(self) -> np.ndarray:
        """The ``(k, 3, 3)`` covariances, a view of ``rows``."""
        return self.rows[:, 12:21].reshape(-1, 3, 3)

    @property
    def label(self) -> np.ndarray:
        return self.rows[:, 21]

    def take(self, rows) -> Candidates:
        """The table of rows ``rows`` (an index array or a slice), in
        that order."""
        return Candidates(self.rows[rows])


def covariances(voxels: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Coordinate covariance of each run of an ``(m, 3)`` voxel array,
    as a ``(k, 3, 3)`` array; run i is ``voxels[starts[i]:starts[i + 1]]``
    (the last runs to the end), and no run is empty.

    Each run's sums are one ``np.add.reduceat`` segment over the float64
    ``(3, m)`` points: the coordinates for its mean, then the centred
    outer products.  Each sum runs in point order, so a run's entries
    are the ones it gives alone (``starts=[0]``), and may differ from
    its own BLAS ``c.T @ c / n`` by the rounding of two n-term dot
    products, at most ``(n + 1) * eps * sqrt(Cii * Cjj)``.
    """
    pts = np.asarray(voxels, dtype=np.float64).T
    starts = np.asarray(starts, dtype=np.intp)
    n = np.concatenate((starts[1:], [pts.shape[1]])) - starts
    c = pts - np.repeat(np.add.reduceat(pts, starts, axis=1) / n, n, axis=1)
    return (np.add.reduceat(c[:, None] * c, starts, axis=2) / n).transpose(2, 0, 1)


def extract_observations(labels: Labels, grid: VoxelGrid) -> Candidates:
    """Summarize every component of a labeling of ``grid``'s voxels, one
    row per component in label order.

    Centroids are photon-weighted and fall back to the unweighted voxel
    mean if a component holds no photons at all (possible after
    smoothing pushed mass off-cluster).  Each labeled voxel weighs its
    count in ``grid``, zero where the grid has none.  A stable sort by
    component keeps C order within each component, and each component's
    sums, minima and maxima are one ``reduceat`` per quantity.  Counts
    and coordinates are integers, so every sum is exact (below 2**53)
    and each centroid is one rounding of the exact quotient.  The
    covariances are unweighted, from ``covariances``.
    """
    order = np.argsort(labels.component, kind="stable")
    flat, component = labels.flat[order], labels.component[order]
    voxels = np.column_stack(np.unravel_index(flat, grid.shape))
    weights = np.zeros(len(flat), dtype=np.int64)
    if len(grid.flat):
        pos = np.minimum(np.searchsorted(grid.flat, flat), len(grid.flat) - 1)
        found = grid.flat[pos] == flat
        weights[found] = grid.values[pos[found]]
    starts = np.flatnonzero(np.diff(component, prepend=0))
    volume = np.diff(starts, append=len(flat))
    total = np.add.reduceat(weights, starts)
    weighted = total > 0
    # a weighted mean where the component holds photons, else the plain one
    num = np.where(
        weighted[:, None],
        np.add.reduceat(voxels * weights[:, None], starts),
        np.add.reduceat(voxels, starts),
    )
    rows = np.empty((len(starts), 22))
    rows[:, 0:3] = num / np.where(weighted, total, volume)[:, None]
    rows[:, 3:6] = np.minimum.reduceat(voxels, starts)
    rows[:, 6:9] = np.maximum.reduceat(voxels, starts)
    rows[:, 9] = volume
    rows[:, 10] = total
    rows[:, 11] = np.maximum.reduceat(weights, starts)
    rows[:, 12:21] = covariances(voxels, starts).reshape(-1, 9)
    rows[:, 21] = component[starts]
    return Candidates(rows)


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


def scores(rows: np.ndarray, cfg: ImportanceConfig, speed=0.0) -> np.ndarray:
    """The importance of each row of a ``(k, >=12)`` array laid out as
    ``Candidates.rows``, at speeds ``speed`` (a scalar or one per row).

    The terms ``w * value`` are added to 0 one weight at a time, in the
    weights' order.  A term too large for float64 is infinite, as in
    Python float arithmetic, and opposite infinite terms give NaN, all
    without a warning.
    """
    values = {"volume": rows[:, 9], "speed": speed, "total_photons": rows[:, 10]}
    total = np.zeros(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for key, w in cfg.weights.items():
            total = total + w * values[key]
    return total


def importance_sort(candidates: Candidates, cfg: ImportanceConfig) -> Candidates:
    """Sort descending by importance; equal scores keep label order and
    a NaN score sorts last."""
    order = np.argsort(-scores(candidates.rows, cfg), kind="stable")
    return candidates.take(order)


def truncate_targets(sorted_candidates: Candidates, t_max: int) -> Candidates:
    """Keep the ``t_max`` most important candidates."""
    if t_max < 1:
        raise ValueError("t_max must be positive")
    dropped = len(sorted_candidates) - t_max
    if dropped > 0:
        logger.info("capacity %d: dropping %d low-importance candidates", t_max, dropped)
    return sorted_candidates.take(slice(0, t_max))
