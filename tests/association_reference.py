"""Per-pair association scorer, kept as a test reference.

``build_association_matrix`` here is the straightforward double loop
that expands both boxes into new ``BoundingBox`` objects and checks
containment twice, or takes ``np.linalg.norm`` of one centroid
difference at a time.  A row's box is built from the box columns of
its feature row (``bbox`` mode), or from its face filter one face at
a time with Python's ``round`` (``kalman_bbox``).  Tests compare
``photontrack``'s whole-array gate against it.
"""
from __future__ import annotations

import numpy as np

from photontrack.association import AssociationMatrix, AssocMode
from photontrack.labeling import BoundingBox


def expand_bbox(b: BoundingBox, e: int) -> BoundingBox:
    """Grow a box by ``e`` voxels on every face, without clamping."""
    if e < 0:
        raise ValueError("expansion must be nonnegative")
    return BoundingBox(
        tuple(v - e for v in b.min),
        tuple(v + e for v in b.max),
    )


def contains(outer: BoundingBox, inner: BoundingBox) -> bool:
    return all(a <= b for a, b in zip(outer.min, inner.min)) and all(
        b <= a for a, b in zip(outer.max, inner.max)
    )


def bbox_match(old_box: BoundingBox, new_box: BoundingBox, e: int) -> bool:
    """Symmetric containment under expansion."""
    return contains(expand_bbox(new_box, e), old_box) and contains(
        expand_bbox(old_box, e), new_box
    )


def predicted_box(faces) -> BoundingBox:
    """The box nearest six predicted faces, min xyz then max xyz: each
    face rounds to the nearest voxel, halves to even, and a max face
    that rounds below its min face is raised to it."""
    lo = tuple(round(float(v)) for v in faces[:3])
    hi = tuple(max(round(float(v)), m) for v, m in zip(faces[3:], lo))
    return BoundingBox(lo, hi)


def centroid_gate(p, q, radius: float) -> bool:
    """True when the points sit within ``radius`` of each other
    (boundary inclusive)."""
    if radius <= 0:
        raise ValueError("gate radius must be positive")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("gate operands must share a dimension")
    return bool(np.linalg.norm(p - q) <= radius)


def pair_score(old, obs, cfg) -> float:
    if cfg.mode is AssocMode.BBOX_EXPANSION:
        box = old.features[3:9]
        reported = BoundingBox(tuple(map(int, box[:3])), tuple(map(int, box[3:])))
        return 1.0 if bbox_match(reported, obs.bbox, cfg.expansion_e) else 0.0
    if cfg.mode is AssocMode.KALMAN_CENTROID:
        pred = old.kf.position
        if centroid_gate(pred, obs.centroid, cfg.gate_radius):
            dist = float(np.linalg.norm(pred - obs.centroid))
            return 1.0 / (1.0 + dist)
        return 0.0
    if cfg.mode is AssocMode.KALMAN_BBOX:
        pred = predicted_box(old.bbox_kf.position)
        return 1.0 if bbox_match(pred, obs.bbox, cfg.expansion_e) else 0.0
    raise ValueError(f"unknown association mode {cfg.mode!r}")


def build_association_matrix(old_targets, new_observations, cfg) -> AssociationMatrix:
    scores = np.zeros((len(old_targets), len(new_observations)), dtype=np.float64)
    for i, old in enumerate(old_targets):
        for j, obs in enumerate(new_observations):
            scores[i, j] = pair_score(old, obs, cfg)
    return AssociationMatrix(scores=scores)
