"""Features one track at a time, kept as a test reference.

``compute_features`` here is the per-track descriptor the library now
builds for all of a step's tracks in one call, reading the track's own
filter ``track.kf``.  ``principal_orientation`` is the power iteration
for one cloud with every norm through ``np.linalg.norm``; the library
computes the same ``sqrt(x.dot(x))`` directly or as a stacked
``matmul``.  Tests require equal bits.
"""
from __future__ import annotations

import numpy as np

from photontrack.features import FeatureVector


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
        n = np.linalg.norm(w)
        if n == 0:
            break
        w = w / n
        if np.linalg.norm(w - v) < 1e-10 or np.linalg.norm(w + v) < 1e-10:
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
    """One track's descriptor from its filter ``track.kf``, cluster
    ``track.obs`` and miss count ``track.bad_count``."""
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
