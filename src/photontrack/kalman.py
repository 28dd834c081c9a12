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

Two usages share this module: a 3D filter per track centroid, and a
6D filter for the six faces of a bounding box, min xyz then max xyz
(``Candidates.faces``).  The face filters are the centroid filters
over six axes, under their own ``bbox_kf_*`` names so that a profiler
can time the two kinds apart.  A tracker holds each kind as one bank,
a ``KalmanState`` whose rows are its tracks' filters, and advances all
rows in one call.  A predicted state is the prediction: its
``position`` is the predicted centroid or faces, not yet rounded to
voxels, which association and coasting read directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInnovationError


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


_ROW_FIELDS = ("position", "velocity", "pp", "pv", "vv")


@dataclass(frozen=True)
class KalmanState:
    """Filter state: per-axis position and velocity plus the covariance
    triple shared by all axes.

    One filter holds ``(d,)`` position and velocity and scalar triple.
    A bank of k filters holds ``(k, d)`` positions and velocities and
    ``(k,)`` triples, row i being filter i; the functions below apply
    the same elementwise expressions to every row, so a row of a bank
    advances exactly as the filter on its own would.
    """

    position: np.ndarray
    velocity: np.ndarray
    pp: float | np.ndarray
    pv: float | np.ndarray
    vv: float | np.ndarray
    params: KalmanParams

    @property
    def dim(self) -> int:
        return self.position.shape[-1]

    @property
    def x(self) -> np.ndarray:
        """Stacked state of one filter, position then velocity."""
        return np.concatenate([self.position, self.velocity])

    @property
    def P(self) -> np.ndarray:
        """Dense 2d x 2d covariance of one filter."""
        block = np.array([[self.pp, self.pv], [self.pv, self.vv]])
        return np.kron(block, np.eye(self.dim))

    def take(self, rows) -> KalmanState:
        """The bank of this bank's rows ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return KalmanState(*(getattr(self, f)[rows] for f in _ROW_FIELDS), self.params)


def kf_concat(banks: list[KalmanState]) -> KalmanState:
    """The banks' rows end to end, in one bank."""
    return KalmanState(
        *(np.concatenate([getattr(b, f) for b in banks]) for f in _ROW_FIELDS),
        banks[0].params,
    )


def _quiet_triple():
    """The covariance triple overflows to inf and 1 / 0 is inf without
    a warning, as in Python float arithmetic: a diverged triple is
    caught as a singular innovation variance at the filter's next
    update."""
    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


def kf_init(centroid: np.ndarray, params: KalmanParams) -> KalmanState:
    """Start a filter at a measured position with zero velocity, or a
    bank at the rows of a ``(k, d)`` array of positions."""
    pos = np.asarray(centroid, dtype=np.float64)
    ones = np.ones(pos.shape[:-1])
    return KalmanState(
        position=pos,
        velocity=np.zeros_like(pos),
        pp=float(params.p0_pos) * ones,
        pv=0.0 * ones,
        vv=float(params.p0_vel) * ones,
        params=params,
    )


def kf_predict(state: KalmanState, dt: float = 1.0) -> KalmanState:
    """Advance one step; the predicted position is the returned state's
    ``position``.

    With F = [[1, dt], [0, 1]] per axis and the white-noise-acceleration
    process covariance, F P F' + Q expands to the three expressions
    below.
    """
    if dt < 1.0:
        raise ValueError("dt must be at least one frame-group period")
    q = state.params.q
    pp, pv, vv = state.pp, state.pv, state.vv
    with _quiet_triple():
        triple = (
            pp + dt * (pv + pv) + dt**2 * vv + q * dt**4 / 4.0,
            pv + dt * vv + q * dt**3 / 2.0,
            vv + q * dt**2,
        )
    return KalmanState(
        state.position + dt * state.velocity, state.velocity, *triple, state.params
    )


def kf_update(state: KalmanState, z: np.ndarray) -> KalmanState:
    """Fold position measurements, one per row, into a predicted state.

    Every row's innovation variance s = pp + r must be finite, and so
    must its reciprocal, which rules out zero and the subnormal values
    whose reciprocal overflows; a singular or blown-up s means the
    filter diverged and the track should die rather than absorb garbage.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != state.position.shape:
        raise ValueError(
            f"measurement shape {z.shape} != filter shape {state.position.shape}"
        )
    pp, pv, vv = state.pp, state.pv, state.vv
    with _quiet_triple():
        s = np.add(pp, state.params.r)
        inv = 1.0 / s
        kp = pp * inv
        kv = pv * inv
        triple = (
            pp - kp * pp,
            0.5 * ((pv - kp * pv) + (pv - kv * pp)),
            vv - kv * pv,
        )
    bad = ~(np.isfinite(s) & np.isfinite(inv))
    if bad.any():
        raise SingularInnovationError(
            f"innovation variance {np.extract(bad, s)[0]:.3g}"
        )
    innovation = z - state.position
    return KalmanState(
        state.position + kp[..., None] * innovation,
        state.velocity + kv[..., None] * innovation,
        *triple,
        state.params,
    )


bbox_kf_init, bbox_kf_predict, bbox_kf_update = kf_init, kf_predict, kf_update
