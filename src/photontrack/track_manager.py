"""Track lifecycle, fusion of old and new target lists, and history.

A track is born from an unassociated observation, is refreshed whenever
an observation associates with it, coasts on predictions while missed,
and dies after too many consecutive misses.  Each step the surviving old
tracks and the newly born ones are fused by one stable importance sort
(old tracks first on ties) and truncated to the configured capacity.

Each step's record, a ``StepRecord``, is the step's track list with
slot-to-slot links to its neighbours; the last ten live in a ring
buffer.  Following the links forward or backward replays a short
trajectory without storing full histories per track.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .association import (
    AssocMode,
    AssociationConfig,
    build_association_matrix,
    resolve_matches,
)
from .errors import ConfigViolationError, EntryEvictedError
from .features import FeatureVector, compute_features
from .kalman import (
    KalmanParams,
    KalmanState,
    bbox_kf_init,
    bbox_kf_predict,
    bbox_kf_update,
    kf_init,
    kf_predict,
    kf_update,
)
from .labeling import ImportanceConfig, TargetObservation, observation_score
from .voxelizer import VoxelGrid

logger = logging.getLogger(__name__)

HISTORY_LEN = 10


class TrackState(Enum):
    """Lifecycle states.

    NEW marks a first appearance, MATCHED a continued detection,
    COASTING a miss bridged by prediction, REACQUIRED a detection that
    ended a coasting stretch.
    """

    NEW = "new"
    MATCHED = "matched"
    COASTING = "coasting"
    REACQUIRED = "reacquired"


@dataclass(frozen=True)
class TrackerConfig:
    t_max: int = 10
    max_coast: int = 3
    assoc: AssociationConfig = field(default_factory=AssociationConfig)
    importance: ImportanceConfig = field(default_factory=ImportanceConfig)
    kalman: KalmanParams = field(default_factory=KalmanParams)

    def __post_init__(self) -> None:
        if self.t_max < 1:
            raise ValueError("t_max must be positive")
        if not 1 <= self.max_coast <= 7:
            raise ValueError("max_coast must lie in [1, 7]")


@dataclass
class Track:
    track_id: int
    state: TrackState
    bad_count: int
    obs: TargetObservation
    kf: KalmanState
    features: FeatureVector | None = None
    bbox_kf: KalmanState | None = None


@dataclass(frozen=True)
class TrackSnapshot:
    """Immutable copy of a track as recorded in one history entry; its
    position, box and age are the feature row's columns."""

    track_id: int
    state: TrackState
    bad_count: int
    features: FeatureVector


@dataclass(frozen=True)
class StepRecord:
    """One processed frame group: its recorded track list plus links to
    its neighbours.

    ``step`` is the index of the group.  fwlink[s] is the slot this
    step's track s occupies in the next step, bwlink[s] the slot it
    came from in the previous one; either is None when the step
    boundary was not a confirmed match.  The tracker fills ``fwlink``
    in place when it records the next step.  ``grid`` is the step's
    histogram while a pipeline's ``on_step`` sees the record, and None
    in the ring and in a run's results.
    """

    step: int
    tracks: list[TrackSnapshot]
    fwlink: list[int | None]
    bwlink: list[int | None]
    grid: VoxelGrid | None = None


class HistoryRing:
    """Record of the most recent ``HISTORY_LEN`` steps."""

    def __init__(self):
        self._entries: deque[StepRecord] = deque(maxlen=HISTORY_LEN)

    def push(self, entry: StepRecord) -> None:
        self._entries.append(entry)

    def entry(self, step: int) -> StepRecord:
        for e in self._entries:
            if e.step == step:
                return e
        raise EntryEvictedError(f"step {step} no longer in the ring")

    @property
    def latest(self) -> StepRecord | None:
        return self._entries[-1] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def _follow(
    ring: HistoryRing, start_step: int, slot: int, links: str, step: int
) -> list[tuple[int, int]]:
    """The chain from (start_step, slot) along each entry's ``links``
    list (``"fwlink"`` or ``"bwlink"``), ``step`` steps at a time."""
    entry = ring.entry(start_step)
    chain = [(entry.step, slot)]
    while (nxt := getattr(entry, links)[slot]) is not None:
        try:
            entry = ring.entry(entry.step + step)
        except EntryEvictedError:
            break
        slot = nxt
        chain.append((entry.step, slot))
    return chain


def reconstruct_forward(
    ring: HistoryRing, start_step: int, slot: int
) -> list[tuple[int, int]]:
    """Follow forward links from (start_step, slot) to the chain's end.

    Raises EntryEvictedError when the starting step has already left the
    ring; a chain cut short by eviction at its far end just stops there.
    """
    return _follow(ring, start_step, slot, "fwlink", 1)


def reconstruct_backward(
    ring: HistoryRing, start_step: int, slot: int
) -> list[tuple[int, int]]:
    """Follow backward links; returned newest first."""
    return _follow(ring, start_step, slot, "bwlink", -1)


class Tracker:
    """Runs the per-step associate / update / fuse / record cycle."""

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[Track] = []
        self.ring = HistoryRing()
        self._next_id = 1
        self._step = 0

    def _score(self, t: Track) -> float:
        speed = float(np.linalg.norm(t.kf.velocity))
        return observation_score(t.obs, self.cfg.importance, speed)

    def _new_track(self, obs: TargetObservation) -> Track:
        t = Track(
            track_id=self._next_id,
            state=TrackState.NEW,
            bad_count=0,
            obs=obs,
            kf=kf_init(obs.centroid, self.cfg.kalman),
        )
        if self.cfg.assoc.mode is AssocMode.KALMAN_BBOX:
            t.bbox_kf = bbox_kf_init(obs.bbox, self.cfg.kalman)
        self._next_id += 1
        return t

    def step(self, observations: list[TargetObservation]) -> list[Track]:
        """Advance one frame group.

        ``observations`` must already be importance-sorted and truncated
        to at most t_max entries; more than that means the upstream
        stage skipped truncation, which is a configuration fault.
        """
        if len(observations) > self.cfg.t_max:
            raise ConfigViolationError(
                f"{len(observations)} observations exceed capacity {self.cfg.t_max}"
            )

        for t in self.tracks:
            t.kf = kf_predict(t.kf)
            if t.bbox_kf is not None:
                t.bbox_kf = bbox_kf_predict(t.bbox_kf)

        matches = resolve_matches(
            build_association_matrix(self.tracks, observations, self.cfg.assoc)
        )
        matched = set(matches.fw.values())

        came_from: dict[int, int] = {}  # matched track id -> previous slot
        old_derived: list[Track] = []
        for i, t in enumerate(self.tracks):
            j = matches.fw.get(i)
            if j is not None:
                obs = observations[j]
                t.state = (
                    TrackState.REACQUIRED
                    if t.state is TrackState.COASTING
                    else TrackState.MATCHED
                )
                t.kf = kf_update(t.kf, obs.centroid)
                if t.bbox_kf is not None:
                    t.bbox_kf = bbox_kf_update(t.bbox_kf, obs.bbox)
                t.obs = obs
                t.bad_count = 0
                came_from[t.track_id] = i
                old_derived.append(t)
            else:
                if t.bad_count >= self.cfg.max_coast:
                    logger.info(
                        "track %d dropped after %d consecutive misses",
                        t.track_id,
                        t.bad_count,
                    )
                    continue
                t.state = TrackState.COASTING
                t.bad_count += 1
                old_derived.append(t)

        new_tracks = [
            self._new_track(obs)
            for j, obs in enumerate(observations)
            if j not in matched
        ]

        # one stable sort: on equal scores old tracks stay ahead of
        # newborns, and each list keeps its own order
        merged = sorted(old_derived + new_tracks, key=self._score, reverse=True)
        if len(merged) > 2 * self.cfg.t_max:
            raise ConfigViolationError(
                f"{len(merged)} fused tracks exceed twice the capacity {self.cfg.t_max}"
            )
        if len(merged) > self.cfg.t_max:
            logger.info(
                "capacity %d: dropping %d fused tracks",
                self.cfg.t_max,
                len(merged) - self.cfg.t_max,
            )
        kept = merged[: self.cfg.t_max]

        for t in kept:
            t.features = compute_features(t, t.features)

        bwlink = [came_from.get(t.track_id) for t in kept]
        for s, p in enumerate(bwlink):
            if p is not None:
                self.ring.latest.fwlink[p] = s

        snapshots = [
            TrackSnapshot(t.track_id, t.state, t.bad_count, t.features)
            for t in kept
        ]
        self.ring.push(
            StepRecord(
                step=self._step,
                tracks=snapshots,
                fwlink=[None] * len(kept),
                bwlink=bwlink,
            )
        )
        self.tracks = kept
        self._step += 1
        return kept
