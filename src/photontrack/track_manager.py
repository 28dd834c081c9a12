"""Track lifecycle, fusion of old and new target lists, and history.

A track is born from an unassociated observation, is refreshed whenever
an observation associates with it, coasts on predictions while missed,
and dies after too many consecutive misses.  Each step the surviving old
tracks and the newly born ones are fused by one stable importance sort
(old tracks first on ties) and truncated to the configured capacity.

The last ten per-step track lists live in a ring buffer.  Steps where a
track was matched also record slot-to-slot links between consecutive
entries; following those links forward or backward replays a short
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
from .labeling import (
    BoundingBox,
    ImportanceConfig,
    TargetObservation,
    observation_score,
)

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
    age: int
    obs: TargetObservation
    kf: KalmanState
    centroid: np.ndarray
    bbox: BoundingBox
    features: FeatureVector | None = None
    bbox_kf: KalmanState | None = None
    pred_centroid: np.ndarray | None = None
    pred_bbox: BoundingBox | None = None


@dataclass(frozen=True)
class TrackSnapshot:
    """Immutable copy of a track as recorded in one history entry."""

    track_id: int
    state: TrackState
    bad_count: int
    age: int
    centroid: tuple[float, float, float]
    bbox: BoundingBox
    features: FeatureVector


@dataclass
class RingEntry:
    """One step's recorded track list plus links to its neighbors.

    fwlink[s] is the slot this entry's track s occupies in the next
    entry, bwlink[s] the slot it came from in the previous one; either
    is None when the step boundary was not a confirmed match.
    """

    step: int
    tracks: list[TrackSnapshot]
    fwlink: list[int | None]
    bwlink: list[int | None]


class HistoryRing:
    """Fixed-capacity record of the most recent steps."""

    def __init__(self, capacity: int = HISTORY_LEN):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._entries: deque[RingEntry] = deque(maxlen=capacity)

    def push(self, entry: RingEntry) -> None:
        self._entries.append(entry)

    def entry(self, step: int) -> RingEntry:
        for e in self._entries:
            if e.step == step:
                return e
        raise EntryEvictedError(f"step {step} no longer in the ring")

    @property
    def latest(self) -> RingEntry | None:
        return self._entries[-1] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def reconstruct_forward(
    ring: HistoryRing, start_step: int, slot: int
) -> list[tuple[int, int]]:
    """Follow forward links from (start_step, slot) to the chain's end.

    Raises EntryEvictedError when the starting step has already left the
    ring; a chain cut short by eviction at its far end just stops there.
    """
    entry = ring.entry(start_step)
    chain = [(entry.step, slot)]
    while True:
        nxt = entry.fwlink[slot]
        if nxt is None:
            return chain
        try:
            entry = ring.entry(entry.step + 1)
        except EntryEvictedError:
            return chain
        slot = nxt
        chain.append((entry.step, slot))


def reconstruct_backward(
    ring: HistoryRing, start_step: int, slot: int
) -> list[tuple[int, int]]:
    """Follow backward links; returned newest first."""
    entry = ring.entry(start_step)
    chain = [(entry.step, slot)]
    while True:
        prv = entry.bwlink[slot]
        if prv is None:
            return chain
        try:
            entry = ring.entry(entry.step - 1)
        except EntryEvictedError:
            return chain
        slot = prv
        chain.append((entry.step, slot))


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
            age=1,
            obs=obs,
            kf=kf_init(obs.centroid, self.cfg.kalman),
            centroid=np.asarray(obs.centroid, dtype=np.float64),
            bbox=obs.bbox,
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
            t.pred_centroid, t.kf = kf_predict(t.kf)
            if t.bbox_kf is not None:
                faces, t.bbox_kf = bbox_kf_predict(t.bbox_kf)
                t.pred_bbox = _faces_to_bbox(faces)

        matches = resolve_matches(
            build_association_matrix(self.tracks, observations, self.cfg.assoc)
        )

        prev_slot_by_id = {t.track_id: i for i, t in enumerate(self.tracks)}
        matched_ids = set()
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
                t.centroid = np.asarray(obs.centroid, dtype=np.float64)
                t.bbox = obs.bbox
                t.bad_count = 0
                t.age += 1
                matched_ids.add(t.track_id)
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
                t.age += 1
                t.centroid = np.asarray(t.pred_centroid, dtype=np.float64)
                shift = np.rint(t.pred_centroid - t.obs.centroid).astype(int)
                t.bbox = BoundingBox(
                    tuple(int(v) + s for v, s in zip(t.obs.bbox.min, shift)),
                    tuple(int(v) + s for v, s in zip(t.obs.bbox.max, shift)),
                )
                old_derived.append(t)

        new_tracks = [
            self._new_track(obs)
            for j, obs in enumerate(observations)
            if j not in matches.bw
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

        bwlink: list[int | None] = [None] * len(kept)
        prev_entry = self.ring.latest
        if prev_entry is not None:
            for s, t in enumerate(kept):
                if t.track_id in matched_ids and t.track_id in prev_slot_by_id:
                    p = prev_slot_by_id[t.track_id]
                    bwlink[s] = p
                    prev_entry.fwlink[p] = s

        snapshots = [
            TrackSnapshot(
                track_id=t.track_id,
                state=t.state,
                bad_count=t.bad_count,
                age=t.age,
                centroid=tuple(float(c) for c in t.centroid),
                bbox=t.bbox,
                features=t.features,
            )
            for t in kept
        ]
        self.ring.push(
            RingEntry(
                step=self._step,
                tracks=snapshots,
                fwlink=[None] * len(kept),
                bwlink=bwlink,
            )
        )
        self.tracks = kept
        self._step += 1
        return kept


def _faces_to_bbox(faces: np.ndarray) -> BoundingBox:
    lo = np.rint(faces[:3]).astype(int)
    hi = np.maximum(np.rint(faces[3:]).astype(int), lo)
    return BoundingBox(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
