"""Per-track feature extraction, for all of a step's tracks at once.

Every maintained track carries a 23-element descriptor refreshed each
step: position (3), bounding box (6), size and photon statistics (3),
velocity and speed (4), acceleration (3), principal orientation (3) and
age (1).  The field order of ``FeatureVector`` is the on-disk contract:
it is the column order of the tracks CSV and must not be reshuffled.
"""
from __future__ import annotations

from itertools import accumulate
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


def row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a 2-D float array.  Each row's
    dot product is a stacked (1xd)(dx1) ``matmul``, which sums as the
    one-vector ``a.dot(a)`` does; ``norm(axis=1)`` and ``einsum`` round
    differently in the last bit."""
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


# The top two eigenvalues l1 >= l2 count as tied when (l1 - l2) / l1 is
# at most _TIE.  Inside it, 100 steps of power iteration from the start
# column s (tests/features_reference.py) scale its l2 part against its l1
# part by (l2 / l1)^100 >= 0.9999, so they end within ~5e-5 of s's
# projection onto the tied plane, the answer given there.  Outside it,
# eigh's vector error eps * l1 / (l1 - l2) is at most 2.2e-10, far below
# the 1e-8 to which the golden tracks.csv files are compared.
_TIE = 1e-6
# Only a component above _SIZABLE picks the sign: outside the tie band,
# eigh leaves up to ~6 eps * l1 / (l1 - l2) <= 1.3e-9 (measured) in a
# component that is exactly zero.
_SIZABLE = 1e-8
_EYE = np.eye(3).reshape(9, 1)
_X = np.array([1.0, 0.0, 0.0])
_POINT = np.zeros((1, 3))


def covariances(clouds: list[np.ndarray]) -> np.ndarray:
    """Coordinate covariance of each (n, 3) voxel cloud, as a (k, 3, 3)
    array; an empty cloud has the zero covariance of one point.

    All clouds' points are joined into one (3, N) array, and each
    cloud's sums are one ``np.add.reduceat`` segment: the coordinates
    for its mean, then the centred outer products.  Each sum runs in
    point order, so an entry may differ from the cloud's own BLAS
    ``c.T @ c / n`` by the rounding of two n-term dot products, at most
    ``(n + 1) * eps * sqrt(Cii * Cjj)``.
    """
    if not clouds:
        return np.zeros((0, 3, 3))
    clouds = [v if len(v) else _POINT for v in clouds]
    lens = [len(v) for v in clouds]
    starts = [0, *accumulate(lens[:-1])]
    n = np.array(lens)
    pts = np.concatenate(clouds, dtype=np.float64).T
    if pts.ndim != 2 or len(pts) != 3:
        raise ValueError("voxels must be (k, 3)")
    c = pts - np.repeat(np.add.reduceat(pts, starts, axis=1) / n, n, axis=1)
    return (np.add.reduceat(c[:, None] * c, starts, axis=2) / n).transpose(2, 0, 1)


def principal_axes(cov: np.ndarray) -> np.ndarray:
    """Dominant axis of each covariance of a (k, 3, 3) stack, as the
    rows of a (k, 3) array of unit vectors.

    One ``np.linalg.eigh`` over the stack gives each matrix's top
    eigenvector.  Where the top two eigenvalues are tied (see _TIE), no
    axis of their plane is preferred, and the answer is where power
    iteration converges from the start column s, the covariance column
    of largest norm (the first on ties): s projected onto the tied
    plane, ``V12 V12^T s`` normalized with V12 eigh's top two vectors,
    computed as s less its part along the third.  A zero covariance (an
    empty or one-point cloud) or a perfectly isotropic one, where no
    direction is preferred, gives the +x unit vector.  The sign is
    fixed by making the first component above _SIZABLE positive, since
    an axis has no inherent direction.
    """
    M = cov.transpose(1, 2, 0)
    mid = (M[0, 0] + M[1, 1] + M[2, 2]) / 3.0
    # a zero covariance has zero spread, so it needs no test of its own
    spread = np.abs(M.reshape(9, -1) - mid * _EYE).max(axis=0)
    w, V = np.linalg.eigh(cov)
    rows = np.arange(len(cov))
    s = cov[rows, :, np.sqrt((M * M).sum(axis=0)).argmax(axis=0)]
    low = V[:, :, 0]
    axes = np.where(
        (w[:, 1] >= (1 - _TIE) * w[:, 2])[:, None],
        s - (low * s).sum(axis=1)[:, None] * low,
        V[:, :, 2],
    )
    axes[spread <= 1e-12 * np.maximum(1.0, mid)] = _X
    axes /= row_norms(axes)[:, None]
    first = axes[rows, (np.abs(axes) > _SIZABLE).argmax(axis=1)]
    return np.negative(axes, out=axes, where=(first < 0)[:, None])


def principal_orientations(clouds: list[np.ndarray]) -> np.ndarray:
    """Dominant axis of each voxel cloud, as the rows of a (k, 3) array
    of unit vectors: ``principal_axes`` of the clouds' ``covariances``."""
    return principal_axes(covariances(clouds))


def compute_features(
    tracks: list, kf, obs: np.ndarray, clouds: list[np.ndarray]
) -> list[FeatureVector]:
    """Refresh every track's descriptor from its filter and cluster.

    Row i of the filter bank ``kf`` is ``tracks[i]``'s filter, row i of
    the ``(k, 12)`` array ``obs`` the first twelve columns of the
    candidate row it last matched (``Candidates.rows``), ``clouds[i]``
    that candidate's voxels, and ``tracks[i].features`` its previous
    row (None on its first step).
    Acceleration is the first difference of the filter velocity between
    consecutive steps (zero on the first step), and age counts the steps
    the track has lived (1 on the first, ``prev.age + 1`` after that).
    A detected track is reported at its candidate's centroid and box.
    A coasting track (``bad_count > 0``) is reported at its predicted
    position ``kf.position``, not the stale last detection, and its box
    is the last observed one moved by the whole voxels,
    ``rint(kf.position - centroid)``, that the centroid has moved
    since.
    """
    if not tracks:
        return []
    rows = np.empty((len(tracks), 23))
    rows[:, :12] = obs
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
    rows[:, 19:22] = principal_orientations(clouds)
    rows[:, 22] = prev[:, 3] + 1.0
    return [FeatureVector(*row) for row in rows.tolist()]
