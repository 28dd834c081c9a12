"""Frame-to-frame target association.

Old tracks (rows) are scored against new candidates (columns) under
one of three modes:

  * bounding-box expansion: a track's last reported box (the box
    columns of its feature row) and a candidate's box match when
    every one of their six faces lies within e voxels of the matching
    face.  This is symmetric containment under expansion (each box
    sits inside the other's box grown by e), so a huge new cluster
    cannot swallow a small old track just by covering it;
  * Kalman centroid: distance gating against the predicted centroid,
    scored 1 / (1 + distance) so that nearer pairs win;
  * Kalman bbox: the same face test against the box predicted by a
    filter over the six box faces.

Every mode is one whole-array distance gate between the rows' faces or
centroids and the columns'.  Conflicts are resolved greedily, giving a
one-to-one pairing: the positive scores are sorted in descending order
(ties by row, then column) and scanned once, and each pair whose row
and column are both still free is taken.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .features import row_norms
from .labeling import Candidates


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
    """Scores with old targets as rows and new candidates as columns;
    nonpositive means incompatible."""

    scores: np.ndarray


def build_association_matrix(
    rows: np.ndarray | list,
    candidates: Candidates,
    cfg: AssociationConfig,
) -> AssociationMatrix:
    """Score every (old, new) pair at once.

    ``rows`` holds what each old track is gated on, one row per track:
    in ``bbox`` mode the six faces of the box it was last reported at
    (the box columns ``features[3:9]`` of its last feature row, moved
    with its prediction while it coasts), in ``kalman_centroid`` mode
    its predicted centroid, and in ``kalman_bbox`` mode its predicted
    faces.  The columns are the candidates' faces or centroids.  In
    ``kalman_bbox`` mode the predicted faces round to the nearest voxel,
    halves to even (``np.rint``, like Python's ``round``), and a max face
    that rounds below its min face is raised to it.
    """
    if cfg.mode is AssocMode.KALMAN_CENTROID:
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
        diff = rows[:, None, :] - candidates.centroid[None, :, :]
        dist = row_norms(diff.reshape(-1, 3)).reshape(diff.shape[:2])
        scores = np.where(dist <= cfg.gate_radius, 1.0 / (1.0 + dist), 0.0)
        return AssociationMatrix(scores=scores)
    if cfg.mode is AssocMode.BBOX_EXPANSION:
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    elif cfg.mode is AssocMode.KALMAN_BBOX:
        rows = np.rint(rows).reshape(-1, 6)
        np.maximum(rows[:, 3:], rows[:, :3], out=rows[:, 3:])
    else:
        raise ValueError(f"unknown association mode {cfg.mode!r}")
    gap = np.abs(rows[:, None, :] - candidates.faces[None, :, :]).max(axis=2)
    return AssociationMatrix(scores=(gap <= cfg.expansion_e).astype(np.float64))


@dataclass(frozen=True)
class MatchSet:
    """Resolved one-to-one pairing: fw maps old row -> new column, and
    its values are the matched columns."""

    fw: dict[int, int]


def resolve_matches(matrix: AssociationMatrix) -> MatchSet:
    """Greedy conflict resolution.

    The positive pairs, in C order, are sorted by descending score with
    a stable sort, so ties go to the smallest row index, then the
    smallest column index.  One scan of that order pairs a row with a
    column whenever both are still free, which is the same pairing as
    repeatedly taking the largest remaining positive score.
    """
    scores = np.asarray(matrix.scores, dtype=np.float64)
    rows, cols = np.nonzero(scores > 0)
    order = np.argsort(-scores[rows, cols], kind="stable")
    fw: dict[int, int] = {}
    taken: set[int] = set()
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if i not in fw and j not in taken:
            fw[i] = j
            taken.add(j)
    return MatchSet(fw=fw)
