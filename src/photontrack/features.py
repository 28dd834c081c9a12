"""Per-track feature extraction, for all of a step's tracks at once.

Every maintained track carries a 23-element descriptor refreshed each
step: position (3), bounding box (6), size and photon statistics (3),
velocity and speed (4), acceleration (3), principal orientation (3) and
age (1).  The field order of ``FeatureVector`` is the on-disk contract:
it is the column order of the tracks CSV and must not be reshuffled.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class FeatureVector(NamedTuple):
    """One track's descriptor for one step; each field is a CSV column."""

    centroid_x: float
    centroid_y: float
    centroid_z: float
    bbox_min_x: float
    bbox_min_y: float
    bbox_min_z: float
    bbox_max_x: float
    bbox_max_y: float
    bbox_max_z: float
    volume: float
    total_photons: float
    peak_photons: float
    velocity_x: float
    velocity_y: float
    velocity_z: float
    speed: float
    accel_x: float
    accel_y: float
    accel_z: float
    orient_x: float
    orient_y: float
    orient_z: float
    age: float


FEATURE_NAMES = FeatureVector._fields


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float array, without its dispatch:
    numpy computes it as this same square root of ``a.dot(a)``."""
    return math.sqrt(a.dot(a))


def row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a 2-D float array.  Each row's
    dot product is a stacked (1xd)(dx1) ``matmul``, which sums as the
    one-vector ``a.dot(a)`` does; ``norm(axis=1)`` and ``einsum`` round
    differently in the last bit."""
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


_EYE = np.eye(3)


def principal_orientations(clouds: list[np.ndarray]) -> np.ndarray:
    """Dominant axis of each voxel cloud, as the rows of a (k, 3) array
    of unit vectors.

    Power iteration on the 3x3 coordinate covariance; cheap, and
    accurate well past what a shape descriptor needs.  Degenerate clouds
    (a point, or perfectly isotropic spread where no direction is
    preferred) give the +x unit vector.  The sign is fixed by making
    the first sizable component positive, since an axis has no inherent
    direction.  Each covariance is its own ``c.T @ c`` and each
    iteration its own loop on one 3x3 matrix, as for a single cloud;
    the tests, the start vectors and the sign fix run on all clouds at
    once.
    """
    C = np.zeros((len(clouds), 3, 3))
    for c, voxels in zip(C, clouds):
        pts = np.asarray(voxels, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("voxels must be (k, 3)")
        if len(pts):
            # the sum over n rows divided by n is np.mean's arithmetic
            centered = pts - pts.sum(axis=0) / len(pts)
            c[...] = centered.T @ centered / len(pts)
    axes = np.zeros((len(clouds), 3))
    axes[:, 0] = 1.0
    tr = C[:, 0, 0] + C[:, 1, 1] + C[:, 2, 2]
    spread = np.abs(C - (tr / 3.0)[:, None, None] * _EYE).reshape(-1, 9).max(axis=1)
    live = np.flatnonzero(~(tr <= 0) & ~(spread <= 1e-12 * np.maximum(1.0, tr / 3.0)))

    C = C[live]
    # the column norms as np.linalg.norm(c, axis=0) computes them
    norms = np.sqrt((C * C).sum(axis=1))
    start = C[np.arange(len(live)), :, norms.argmax(axis=1)]
    start = start / row_norms(start)[:, None]
    for i, c, v in zip(live, C, start):
        for _ in range(100):
            w = c @ v
            n = _norm(w)
            if n == 0:
                break
            w = w / n
            if _norm(w - v) < 1e-10 or _norm(w + v) < 1e-10:
                v = w
                break
            v = w
        axes[i] = v

    sizable = np.abs(axes) > 1e-12
    first = axes[np.arange(len(axes)), sizable.argmax(axis=1)]
    flip = sizable.any(axis=1) & (first < 0)
    axes[flip] = -axes[flip]
    return axes


def compute_features(tracks: list, kf) -> list[FeatureVector]:
    """Refresh every track's descriptor from its filter and cluster.

    Row i of the filter bank ``kf`` is ``tracks[i]``'s filter, and
    ``tracks[i].features`` its previous row (None on its first step).
    Acceleration is the first difference of the filter velocity between
    consecutive steps (zero on the first step), and age counts the steps
    the track has lived (1 on the first, ``prev.age + 1`` after that).
    A detected track is reported at its observation's centroid and box.
    A coasting track (``bad_count > 0``) is reported at its predicted
    position ``kf.position``, not the stale last detection, and its box
    is the last observed one moved by the whole voxels,
    ``rint(kf.position - obs.centroid)``, that the centroid has moved
    since.
    """
    if not tracks:
        return []
    obs = [t.obs for t in tracks]
    rows = np.empty((len(tracks), 23))
    rows[:, :3] = [o.centroid for o in obs]
    rows[:, 3:12] = [
        (*o.bbox.faces, o.volume, o.total_photons, o.peak_photons) for o in obs
    ]
    coast = [i for i, t in enumerate(tracks) if t.bad_count]
    if coast:
        moved = kf.position[coast]
        rows[coast, 3:9] += np.tile(np.rint(moved - rows[coast, :3]), 2)
        rows[coast, :3] = moved
    prev = np.array([
        (0.0,) * 4 if t.features is None else (*t.features[12:15], t.features.age)
        for t in tracks
    ])
    rows[:, 12:15] = kf.velocity
    rows[:, 15] = row_norms(kf.velocity)
    rows[:, 16:19] = kf.velocity - prev[:, :3]
    rows[[i for i, t in enumerate(tracks) if t.features is None], 16:19] = 0.0
    rows[:, 19:22] = principal_orientations([o.voxels for o in obs])
    rows[:, 22] = prev[:, 3] + 1.0
    return [FeatureVector(*row) for row in rows.tolist()]
