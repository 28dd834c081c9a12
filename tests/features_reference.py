"""The power-iteration orientation as it was before its norms became
direct dot products, kept as a test reference.

Every norm here goes through ``np.linalg.norm``; the library computes
the same ``sqrt(x.dot(x))`` directly, so tests require equal bits.
"""
from __future__ import annotations

import numpy as np


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
