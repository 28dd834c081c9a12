"""Features one track at a time, kept as a test reference.

``compute_features`` here is the per-track descriptor the library
builds for all of a step's tracks in one call, reading the track's own
filter ``track.kf``; tests require equal bits in every column but the
orientation.  ``principal_orientation`` is power iteration on one
cloud's covariance, with every norm through ``np.linalg.norm``.  The
library solves all clouds with one ``np.linalg.eigh`` instead, so tests
compare orientations by accuracy: ``power_iteration`` also returns the
steps the iteration took to meet its stopping rule, and ``covariance``
is the one-cloud ``c.T @ c / n`` the library's batched sums are held to.
"""
from __future__ import annotations

import numpy as np

from photontrack.features import FeatureVector


def covariance(voxels: np.ndarray) -> np.ndarray:
    """The 3x3 coordinate covariance of one non-empty (k, 3) cloud."""
    pts = np.asarray(voxels, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    return centered.T @ centered / len(pts)


def principal_orientation(voxels: np.ndarray) -> np.ndarray:
    """Dominant axis of a voxel cloud as a unit vector."""
    return power_iteration(voxels)[0]


def power_iteration(voxels: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Dominant axis of a voxel cloud as a unit vector, and the steps
    the iteration took to meet its 1e-10 stopping rule: 0 for a
    degenerate cloud, None if it stopped at 100 steps without meeting it.

    Power iteration on the 3x3 coordinate covariance, from its column
    of largest norm.  Degenerate clouds (a point, or perfectly isotropic
    spread where no direction is preferred) return the +x unit vector.
    The sign is fixed by making the first sizable component positive,
    since an axis has no inherent direction.
    """
    pts = np.asarray(voxels, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("voxels must be (k, 3)")
    fallback = np.array([1.0, 0.0, 0.0])
    if len(pts) == 0:
        return fallback, 0
    C = covariance(pts)
    tr = float(np.trace(C))
    if tr <= 0:
        return fallback, 0
    iso = C - (tr / 3.0) * np.eye(3)
    if np.abs(iso).max() <= 1e-12 * max(1.0, tr / 3.0):
        return fallback, 0

    norms = np.linalg.norm(C, axis=0)
    v = C[:, int(np.argmax(norms))]
    v = v / np.linalg.norm(v)
    steps = None
    for step in range(1, 101):
        w = C @ v
        n = np.linalg.norm(w)
        if n == 0:
            break
        w = w / n
        if np.linalg.norm(w - v) < 1e-10 or np.linalg.norm(w + v) < 1e-10:
            v, steps = w, step
            break
        v = w

    for c in v:
        if abs(c) > 1e-12:
            if c < 0:
                v = -v
            break
    return v, steps


def compute_features(track, prev: FeatureVector | None) -> FeatureVector:
    """One track's descriptor from its filter ``track.kf``, candidate row
    ``track.row`` (centroid, six faces, volume, total and peak photons),
    voxel cloud ``track.cloud`` and miss count ``track.bad_count``."""
    velocity = np.asarray(track.kf.velocity, dtype=np.float64)
    if prev is None:
        accel, age = np.zeros(3), 1.0
    else:
        accel = velocity - (prev.velocity_x, prev.velocity_y, prev.velocity_z)
        age = prev.age + 1.0
    row = track.row
    centroid, faces = row[0:3], row[3:9]
    if track.bad_count:
        centroid = track.kf.position
        shift = np.rint(centroid - row[0:3]).astype(int)
        faces = np.add(faces, np.tile(shift, 2))
    return FeatureVector(
        *map(float, centroid),
        *map(float, faces),
        *map(float, row[9:12]),
        *map(float, velocity),
        float(np.linalg.norm(velocity)),
        *map(float, accel),
        *map(float, principal_orientation(track.cloud)),
        age,
    )
