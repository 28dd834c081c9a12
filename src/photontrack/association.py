"""Frame-to-frame target association.

Old tracks (rows) are scored against new observations (columns) under
one of three modes:

  * bounding-box expansion: two boxes match when every one of their six
    faces lies within e voxels of the matching face.  This is symmetric
    containment under expansion (each box sits inside the other's box
    grown by e), so a huge new cluster cannot swallow a small old track
    just by covering it;
  * Kalman centroid: distance gating against the predicted centroid,
    scored 1 / (1 + distance) so that nearer pairs win;
  * Kalman bbox: the same face test against the box predicted by a
    filter over the six box faces.

Every mode is one whole-array distance gate between the rows' faces or
centroids and the columns'.  Conflicts are resolved greedily on the
score matrix, guaranteeing a one-to-one pairing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .labeling import TargetObservation


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
        if not 0 < self.gate_radius < math.inf:
            raise ValueError("gate_radius must be finite and positive")


@dataclass(frozen=True)
class AssociationMatrix:
    """Scores with old targets as rows and new observations as columns;
    nonpositive means incompatible."""

    scores: np.ndarray


def _faces(boxes) -> np.ndarray:
    """(k, 6) array of box faces, min xyz then max xyz."""
    return np.array([(*b.min, *b.max) for b in boxes]).reshape(-1, 6)


def build_association_matrix(
    old_targets: list,
    new_observations: list[TargetObservation],
    cfg: AssociationConfig,
) -> AssociationMatrix:
    """Score every (old, new) pair at once.

    Rows need ``bbox`` (``bbox`` mode), ``pred_centroid``
    (``kalman_centroid``) or ``pred_bbox`` (``kalman_bbox``); columns
    need ``bbox`` and ``centroid``.
    """
    if cfg.mode is AssocMode.KALMAN_CENTROID:
        preds = [old.pred_centroid for old in old_targets]
        if any(p is None for p in preds):
            raise ValueError("centroid mode needs predicted centroids")
        rows = np.array(preds, dtype=np.float64).reshape(-1, 3)
        cols = np.array(
            [obs.centroid for obs in new_observations], dtype=np.float64
        ).reshape(-1, 3)
        diff = rows[:, None, :] - cols[None, :, :]
        # a stacked (1x3)(3x1) product, like np.linalg.norm of one
        # vector, sums through the BLAS dot (norm(axis=-1) and einsum
        # round differently by an ulp)
        dist = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
        scores = np.where(dist <= cfg.gate_radius, 1.0 / (1.0 + dist), 0.0)
        return AssociationMatrix(scores=scores)
    if cfg.mode is AssocMode.BBOX_EXPANSION:
        boxes = [old.bbox for old in old_targets]
    elif cfg.mode is AssocMode.KALMAN_BBOX:
        boxes = [old.pred_bbox for old in old_targets]
        if any(b is None for b in boxes):
            raise ValueError("bbox-filter mode needs predicted boxes")
    else:
        raise ValueError(f"unknown association mode {cfg.mode!r}")
    rows = _faces(boxes)
    cols = _faces(obs.bbox for obs in new_observations)
    gap = np.abs(rows[:, None, :] - cols[None, :, :]).max(axis=2)
    return AssociationMatrix(scores=(gap <= cfg.expansion_e).astype(np.float64))


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
