"""Constant-velocity Kalman filtering for target centroids and boxes.

State is [position, velocity] per axis with discrete white-noise
acceleration driving the velocity.  The initial covariance is diagonal
with one value per block, q and r are the same on every axis, and the
measurement picks out the position (H = [I 0]).  Predict and update
therefore map a covariance of the form (2x2) ⊗ I to another of that
form, so every axis shares one position/velocity variance triple
(pp, pv, vv) and the gain is a pair of scalars: the alpha-beta filter
(Kalata, "The tracking index", 1984).  ``KalmanState.P`` rebuilds the
dense 2d x 2d matrix on request.

Two usages share this module: one 3D filter per track centroid, and one
6D filter for the faces of a bounding box (min xyz then max xyz).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInnovationError
from .labeling import BoundingBox


@dataclass(frozen=True)
class KalmanParams:
    """Noise intensities and initial uncertainty.

    q scales the white-noise acceleration spectral density, r the
    per-axis measurement variance; p0_* set the diagonal of the initial
    covariance (velocity is unobserved at birth, hence the larger
    default).
    """

    q: float = 0.01
    r: float = 0.1
    p0_pos: float = 1.0
    p0_vel: float = 10.0

    def __post_init__(self) -> None:
        if not (0 <= self.q < math.inf and 0 <= self.r < math.inf):
            raise ValueError("noise intensities must be finite and nonnegative")
        if not (0 < self.p0_pos < math.inf and 0 < self.p0_vel < math.inf):
            raise ValueError("initial variances must be finite and positive")


@dataclass(frozen=True)
class KalmanState:
    """Filter state: per-axis position and velocity plus the covariance
    triple shared by all axes."""

    position: np.ndarray
    velocity: np.ndarray
    pp: float
    pv: float
    vv: float
    params: KalmanParams

    @property
    def dim(self) -> int:
        return len(self.position)

    @property
    def x(self) -> np.ndarray:
        """Stacked state, position then velocity."""
        return np.concatenate([self.position, self.velocity])

    @property
    def P(self) -> np.ndarray:
        """Dense 2d x 2d covariance."""
        block = np.array([[self.pp, self.pv], [self.pv, self.vv]])
        return np.kron(block, np.eye(self.dim))


def kf_init(centroid: np.ndarray, params: KalmanParams) -> KalmanState:
    """Start a filter at a measured position with zero velocity."""
    pos = np.asarray(centroid, dtype=np.float64).ravel()
    return KalmanState(
        position=pos,
        velocity=np.zeros(len(pos)),
        pp=float(params.p0_pos),
        pv=0.0,
        vv=float(params.p0_vel),
        params=params,
    )


def kf_predict(state: KalmanState, dt: float = 1.0) -> tuple[np.ndarray, KalmanState]:
    """Advance one step; returns (predicted position, predicted state).

    With F = [[1, dt], [0, 1]] per axis and the white-noise-acceleration
    process covariance, F P F' + Q expands to the three expressions
    below.
    """
    if dt < 1.0:
        raise ValueError("dt must be at least one frame-group period")
    q = state.params.q
    pp, pv, vv = state.pp, state.pv, state.vv
    position = state.position + dt * state.velocity
    new = KalmanState(
        position=position,
        velocity=state.velocity,
        pp=pp + dt * (pv + pv) + dt**2 * vv + q * dt**4 / 4.0,
        pv=pv + dt * vv + q * dt**3 / 2.0,
        vv=vv + q * dt**2,
        params=state.params,
    )
    return position, new


def kf_update(state: KalmanState, z: np.ndarray) -> KalmanState:
    """Fold a position measurement into a predicted state.

    The innovation variance s = pp + r must be nonzero and finite; a
    singular or blown-up s means the filter diverged and the track
    should die rather than absorb garbage.
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    d = state.dim
    if len(z) != d:
        raise ValueError(f"measurement dim {len(z)} != filter dim {d}")
    pp, pv, vv = state.pp, state.pv, state.vv
    s = pp + state.params.r
    if s == 0 or not math.isfinite(s):
        raise SingularInnovationError(f"innovation variance {s:.3g}")
    inv = 1.0 / s
    kp = pp * inv
    kv = pv * inv
    innovation = z - state.position
    return KalmanState(
        position=state.position + kp * innovation,
        velocity=state.velocity + kv * innovation,
        pp=pp - kp * pp,
        pv=0.5 * ((pv - kp * pv) + (pv - kv * pp)),
        vv=vv - kv * pv,
        params=state.params,
    )


def _faces(bbox: BoundingBox) -> np.ndarray:
    return np.array([*bbox.min, *bbox.max], dtype=np.float64)


def bbox_kf_init(bbox: BoundingBox, params: KalmanParams) -> KalmanState:
    """One 6D filter over the box faces, ordered min xyz then max xyz."""
    return kf_init(_faces(bbox), params)


def bbox_kf_predict(
    state: KalmanState, dt: float = 1.0
) -> tuple[np.ndarray, KalmanState]:
    """Advance the face filter; returns (predicted faces, state)."""
    return kf_predict(state, dt)


def bbox_kf_update(state: KalmanState, bbox: BoundingBox) -> KalmanState:
    """Measure all six faces from an observed box."""
    return kf_update(state, _faces(bbox))
