"""Frame-to-frame target association.

Old tracks (rows) are scored against new observations (columns) under
one of three modes:

  * bounding-box expansion: boxes match when each sits inside the
    other's expanded box, a cheap symmetric test tolerant of e voxels of
    drift per face;
  * Kalman centroid: distance gating against the predicted centroid,
    scored so that nearer pairs win;
  * Kalman bbox: box-expansion matching against the box predicted by
    a filter over the six box faces.

Conflicts are resolved greedily on the score matrix, guaranteeing a
one-to-one pairing.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kalman import centroid_gate
from .labeling import BoundingBox, TargetObservation


class AssocMode(Enum):
    BBOX_EXPANSION = "bbox"
    KALMAN_CENTROID = "kalman_centroid"
    KALMAN_BBOX = "kalman_bbox"


@dataclass(frozen=True)
class AssociationConfig:
    mode: AssocMode = AssocMode.BBOX_EXPANSION
    expansion_e: int = 2
    gate_radius: float = 5.0

    def __post_init__(self) -> None:
        if self.expansion_e < 0:
            raise ValueError("expansion_e must be nonnegative")
        if self.gate_radius <= 0:
            raise ValueError("gate_radius must be positive")


def expand_bbox(b: BoundingBox, e: int) -> BoundingBox:
    """Grow a box by ``e`` voxels on every face (no clamping: matching
    near the sensor edge must behave like matching in the interior)."""
    if e < 0:
        raise ValueError("expansion must be nonnegative")
    return BoundingBox(
        tuple(v - e for v in b.min),
        tuple(v + e for v in b.max),
    )


def bbox_match(old_box: BoundingBox, new_box: BoundingBox, e: int) -> bool:
    """Symmetric containment under expansion.

    Both directions are required, so a huge new cluster cannot swallow a
    small old track (or vice versa) just by covering it.
    """
    return expand_bbox(new_box, e).contains(old_box) and expand_bbox(
        old_box, e
    ).contains(new_box)


@dataclass(frozen=True)
class OldTargetView:
    """Minimal row-side interface for scoring: the last confirmed box
    plus whatever predictions the mode needs.  Tracks satisfy the same
    attribute set, so the tracker passes them straight in."""

    bbox: BoundingBox
    pred_centroid: np.ndarray | None = None
    pred_bbox: BoundingBox | None = None


@dataclass(frozen=True)
class AssociationMatrix:
    """Scores with old targets as rows and new observations as columns;
    nonpositive means incompatible."""

    scores: np.ndarray


def build_association_matrix(
    old_targets: list,
    new_observations: list[TargetObservation],
    cfg: AssociationConfig,
) -> AssociationMatrix:
    scores = np.zeros((len(old_targets), len(new_observations)), dtype=np.float64)
    for i, old in enumerate(old_targets):
        for j, obs in enumerate(new_observations):
            scores[i, j] = _pair_score(old, obs, cfg)
    return AssociationMatrix(scores=scores)


def _pair_score(old, obs: TargetObservation, cfg: AssociationConfig) -> float:
    if cfg.mode is AssocMode.BBOX_EXPANSION:
        if bbox_match(old.bbox, obs.bbox, cfg.expansion_e):
            return 1.0
        return 0.0
    if cfg.mode is AssocMode.KALMAN_CENTROID:
        if old.pred_centroid is None:
            raise ValueError("centroid mode needs predicted centroids")
        if centroid_gate(old.pred_centroid, obs.centroid, cfg.gate_radius):
            dist = float(np.linalg.norm(old.pred_centroid - obs.centroid))
            return 1.0 / (1.0 + dist)
        return 0.0
    if cfg.mode is AssocMode.KALMAN_BBOX:
        if old.pred_bbox is None:
            raise ValueError("bbox-filter mode needs predicted boxes")
        if bbox_match(old.pred_bbox, obs.bbox, cfg.expansion_e):
            return 1.0
        return 0.0
    raise ValueError(f"unknown association mode {cfg.mode!r}")


@dataclass(frozen=True)
class MatchSet:
    """Resolved one-to-one pairing: fw maps old row -> new column and bw
    is its inverse."""

    fw: dict[int, int]
    bw: dict[int, int]


def resolve_matches(matrix: AssociationMatrix) -> MatchSet:
    """Greedy conflict resolution.

    Repeatedly take the largest positive score, pair that row and
    column, and disable both.  Ties go to the smallest row index, then
    the smallest column index, which is exactly the first flat argmax in
    C order.
    """
    scores = matrix.scores.astype(np.float64).copy()
    fw: dict[int, int] = {}
    bw: dict[int, int] = {}
    if scores.size == 0:
        return MatchSet(fw=fw, bw=bw)
    while True:
        flat = int(np.argmax(scores))
        i, j = np.unravel_index(flat, scores.shape)
        if scores[i, j] <= 0:
            return MatchSet(fw=fw, bw=bw)
        fw[int(i)] = int(j)
        bw[int(j)] = int(i)
        scores[i, :] = -np.inf
        scores[:, j] = -np.inf
