"""Track lifecycle, fusion of old and new target lists, and history.

A track is born from an unassociated candidate, is refreshed whenever
a candidate associates with it, coasts on predictions while missed,
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
from .features import FeatureVector, compute_features, row_norms
from .kalman import (
    KalmanParams,
    KalmanState,
    bbox_kf_init,
    bbox_kf_predict,
    bbox_kf_update,
    kf_concat,
    kf_init,
    kf_predict,
    kf_update,
)
from .labeling import Candidates, ImportanceConfig, scores
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
    """A live track; its filters and candidate row are its row of the
    tracker's banks."""

    track_id: int
    state: TrackState
    bad_count: int
    features: FeatureVector | None = None


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
    list (``"fwlink"`` or ``"bwlink"``), ``step`` steps at a time.

    Raises IndexError when ``slot`` is not one of the start step's
    tracks."""
    entry = ring.entry(start_step)
    if slot not in range(n := len(entry.tracks)):
        raise IndexError(f"no slot {slot}: step {entry.step} has {n} tracks")
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
    ring, and IndexError when ``slot`` is not a track of that step; a
    chain cut short by eviction at its far end just stops there.
    """
    return _follow(ring, start_step, slot, "fwlink", 1)


def reconstruct_backward(
    ring: HistoryRing, start_step: int, slot: int
) -> list[tuple[int, int]]:
    """Follow backward links; returned newest first."""
    return _follow(ring, start_step, slot, "bwlink", -1)


class Tracker:
    """Runs the per-step associate / update / fuse / record cycle.

    The live tracks are held as banks: row i of ``kf`` (the centroid
    filters), under ``kalman_bbox`` of ``bbox_kf`` (the box face
    filters) and of ``obs`` (a ``Candidates`` table of the candidate
    rows they last matched, covariance columns included) belongs to
    ``tracks[i]``.  Each step advances every filter row with one
    predict, one update of the matched rows and one init of the
    newborns per bank.
    """

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[Track] = []
        self.kf = kf_init(np.empty((0, 3)), cfg.kalman)
        self.bbox_kf = (
            bbox_kf_init(np.empty((0, 6)), cfg.kalman)
            if cfg.assoc.mode is AssocMode.KALMAN_BBOX
            else None
        )
        self.obs = Candidates(np.empty((0, 22)))
        self.ring = HistoryRing()
        self._next_id = 1
        self._step = 0

    def _gate_rows(self, kf: KalmanState, bbox_kf: KalmanState | None):
        """What association gates each track on under the mode: its
        predicted faces, its predicted centroid, or its reported box."""
        if bbox_kf is not None:
            return bbox_kf.position
        if self.cfg.assoc.mode is AssocMode.KALMAN_CENTROID:
            return kf.position
        return [t.features[3:9] for t in self.tracks]

    def _advance(self, bank, update, init, measured, updated, cols, born):
        """A predicted bank's rows, then its rows ``updated`` updated with
        measurements ``cols``, then rows started at the measurements
        ``born``; update and init run only when they have rows."""
        banks = [bank]
        if updated:
            banks.append(update(bank.take(updated), measured[cols]))
        if born:
            banks.append(init(measured[born], self.cfg.kalman))
        return kf_concat(banks)

    def step(self, candidates: Candidates) -> list[Track]:
        """Advance one frame group.

        ``candidates`` must already be importance-sorted and truncated
        to at most t_max rows; more than that means the upstream stage
        skipped truncation, which is a configuration fault.
        """
        if len(candidates) > self.cfg.t_max:
            raise ConfigViolationError(
                f"{len(candidates)} candidates exceed capacity {self.cfg.t_max}"
            )

        kf = kf_predict(self.kf)
        bbox_kf = None if self.bbox_kf is None else bbox_kf_predict(self.bbox_kf)
        matches = resolve_matches(
            build_association_matrix(
                self._gate_rows(kf, bbox_kf), candidates, self.cfg.assoc
            )
        )

        # bank rows: the predicted rows, then the matched rows updated,
        # then the newborns in candidate order
        k = len(self.tracks)
        updated, cols = list(matches.fw), list(matches.fw.values())
        born = sorted(set(range(len(candidates))) - set(cols))
        rows_of = {i: k + n for n, i in enumerate(updated)}
        kf = self._advance(
            kf, kf_update, kf_init, candidates.centroid, updated, cols, born
        )
        if bbox_kf is not None:
            bbox_kf = self._advance(
                bbox_kf, bbox_kf_update, bbox_kf_init, candidates.faces,
                updated, cols, born,
            )
        # the candidate rows in the same order: the old rows, then the
        # matched and the newborn candidates' rows
        obs = Candidates(np.concatenate([self.obs.rows, candidates.rows[cols + born]]))

        # (track, bank row, previous slot if matched)
        fused: list[tuple[Track, int, int | None]] = []
        for i, t in enumerate(self.tracks):
            j = matches.fw.get(i)
            if j is not None:
                t.state = (
                    TrackState.REACQUIRED
                    if t.state is TrackState.COASTING
                    else TrackState.MATCHED
                )
                t.bad_count = 0
                fused.append((t, rows_of[i], i))
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
                fused.append((t, i, None))
        for n, j in enumerate(born):
            t = Track(self._next_id, TrackState.NEW, 0)
            self._next_id += 1
            fused.append((t, k + len(updated) + n, None))

        if len(fused) > 2 * self.cfg.t_max:
            raise ConfigViolationError(
                f"{len(fused)} fused tracks exceed twice the capacity {self.cfg.t_max}"
            )
        if len(fused) > self.cfg.t_max:
            logger.info(
                "capacity %d: dropping %d fused tracks",
                self.cfg.t_max,
                len(fused) - self.cfg.t_max,
            )
        # one stable sort: on equal scores old tracks stay ahead of
        # newborns, and each list keeps its own order
        at = np.array([row for _, row, _ in fused], dtype=np.intp)
        speeds = row_norms(kf.velocity)[at]
        score = scores(obs.rows[at], self.cfg.importance, speeds)
        order = np.argsort(-score, kind="stable")[: self.cfg.t_max]
        top = [fused[n] for n in order.tolist()]
        kept = [t for t, _, _ in top]
        rows = at[order]
        self.kf = kf.take(rows)
        if bbox_kf is not None:
            self.bbox_kf = bbox_kf.take(rows)
        self.obs = obs.take(rows)

        for t, f in zip(kept, compute_features(kept, self.kf, self.obs)):
            t.features = f

        bwlink = [prev for _, _, prev in top]
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
