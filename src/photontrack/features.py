"""Per-track feature extraction.

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


def principal_orientation(voxels: np.ndarray) -> np.ndarray:
    """Dominant axis of a voxel cloud as a unit vector.

    Power iteration on the 3x3 coordinate covariance; cheap, and
    accurate well past what a shape descriptor needs.  Degenerate clouds
    (a point, or perfectly isotropic spread where no direction is
    preferred) return the +x unit vector.  The sign is fixed by making
    the first sizable component positive, since an axis has no inherent
    direction.
    """
    pts = np.asarray(voxels, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("voxels must be (k, 3)")
    fallback = np.array([1.0, 0.0, 0.0])
    if len(pts) == 0:
        return fallback
    centered = pts - pts.mean(axis=0)
    C = centered.T @ centered / len(pts)
    tr = float(np.trace(C))
    if tr <= 0:
        return fallback
    iso = C - (tr / 3.0) * np.eye(3)
    if np.abs(iso).max() <= 1e-12 * max(1.0, tr / 3.0):
        return fallback

    norms = np.linalg.norm(C, axis=0)
    v = C[:, int(np.argmax(norms))]
    v = v / np.linalg.norm(v)
    for _ in range(100):
        w = C @ v
        n = _norm(w)
        if n == 0:
            break
        w = w / n
        if _norm(w - v) < 1e-10 or _norm(w + v) < 1e-10:
            v = w
            break
        v = w

    for c in v:
        if abs(c) > 1e-12:
            if c < 0:
                v = -v
            break
    return v


def compute_features(track, prev: FeatureVector | None) -> FeatureVector:
    """Refresh a track's descriptor from its current filter and cluster.

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
    velocity = np.asarray(track.kf.velocity, dtype=np.float64)
    if prev is None:
        accel, age = np.zeros(3), 1.0
    else:
        accel = velocity - (prev.velocity_x, prev.velocity_y, prev.velocity_z)
        age = prev.age + 1.0
    obs = track.obs
    centroid, faces = obs.centroid, obs.bbox.faces
    if track.bad_count:
        centroid = track.kf.position
        shift = np.rint(centroid - obs.centroid).astype(int)
        faces = np.add(faces, np.tile(shift, 2))
    return FeatureVector(
        *map(float, centroid),
        *map(float, faces),
        float(obs.volume), float(obs.total_photons), float(obs.peak_photons),
        *map(float, velocity),
        float(np.linalg.norm(velocity)),
        *map(float, accel),
        *map(float, principal_orientation(obs.voxels)),
        age,
    )
