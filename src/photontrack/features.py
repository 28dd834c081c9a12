"""Per-track feature extraction.

Every maintained track carries a 23-element descriptor refreshed each
step: position (3), bounding box (6), size and photon statistics (3),
velocity and speed (4), acceleration (3), principal orientation (3) and
age (1).  The ordering in FEATURE_NAMES is the on-disk contract for the
tracks CSV and must not be reshuffled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEATURE_NAMES: tuple[str, ...] = (
    "centroid_x",
    "centroid_y",
    "centroid_z",
    "bbox_min_x",
    "bbox_min_y",
    "bbox_min_z",
    "bbox_max_x",
    "bbox_max_y",
    "bbox_max_z",
    "volume",
    "total_photons",
    "peak_photons",
    "velocity_x",
    "velocity_y",
    "velocity_z",
    "speed",
    "accel_x",
    "accel_y",
    "accel_z",
    "orient_x",
    "orient_y",
    "orient_z",
    "age",
)


@dataclass(frozen=True)
class FeatureVector:
    centroid: tuple[float, float, float]
    bbox_min: tuple[float, float, float]
    bbox_max: tuple[float, float, float]
    volume: float
    total_photons: float
    peak_photons: float
    velocity: tuple[float, float, float]
    speed: float
    accel: tuple[float, float, float]
    orientation: tuple[float, float, float]
    age: float

    def to_array(self) -> np.ndarray:
        return np.concatenate(
            [
                self.centroid,
                self.bbox_min,
                self.bbox_max,
                [self.volume, self.total_photons, self.peak_photons],
                self.velocity,
                [self.speed],
                self.accel,
                self.orientation,
                [self.age],
            ]
        ).astype(np.float64)


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
    consecutive steps (zero on the first step).  Position and box come
    from the track itself so that coasting tracks report their predicted
    location, not the stale last detection.
    """
    velocity = np.asarray(track.kf.velocity, dtype=np.float64)
    speed = float(np.linalg.norm(velocity))
    if prev is None:
        accel = np.zeros(3)
    else:
        accel = velocity - np.asarray(prev.velocity, dtype=np.float64)
    orientation = principal_orientation(track.obs.voxels)
    return FeatureVector(
        centroid=tuple(float(c) for c in track.centroid),
        bbox_min=tuple(float(v) for v in track.bbox.min),
        bbox_max=tuple(float(v) for v in track.bbox.max),
        volume=float(track.obs.volume),
        total_photons=float(track.obs.total_photons),
        peak_photons=float(track.obs.peak_photons),
        velocity=tuple(float(v) for v in velocity),
        speed=speed,
        accel=tuple(float(a) for a in accel),
        orientation=tuple(float(o) for o in orientation),
        age=float(track.age),
    )
