"""CLEAR MOT scoring of a ``tracks.csv`` against simulator ground truth.

Follows Bernardin & Stiefelhagen, "Evaluating Multiple Object Tracking
Performance" (2008): per step, a truth target keeps last step's track
while that track is still within ``radius``; the remaining targets and
tracks are paired nearest first.  A target matched to another track
than the one it was last matched to counts one identity switch.  Every
``tracks.csv`` row is a hypothesis, coasting rows included.

Truth centroids are box centres, while the sensor only sees a box's
near face, so on 3-deep boxes ``motp_vox`` sits near 1 voxel even for
perfect tracking.

Standard library only, so the benchmark's parent process stays small.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

MATCH_RADIUS = 4.0  # voxels; the radius acceptance test 09 uses


@dataclass(frozen=True)
class MotScore:
    truths: int
    hypotheses: int
    matches: int
    id_switches: int
    distance_sum: float

    @property
    def misses(self) -> int:
        return self.truths - self.matches

    @property
    def false_positives(self) -> int:
        return self.hypotheses - self.matches

    @property
    def mota(self) -> float:
        errors = self.misses + self.false_positives + self.id_switches
        return 1.0 - errors / self.truths

    @property
    def motp(self) -> float:
        return self.distance_sum / self.matches if self.matches else math.nan

    @property
    def recall(self) -> float:
        return self.matches / self.truths

    @property
    def precision(self) -> float:
        return self.matches / self.hypotheses if self.hypotheses else math.nan


def score(truth: dict, hyps: dict, radius: float = MATCH_RADIUS) -> MotScore:
    """Score ``hyps`` against ``truth``.

    Both map step -> {object id: (x, y, z)}; ``truth`` holds only the
    targets alive at that step.
    """
    if not any(truth.values()):
        raise ValueError("ground truth holds no live target")
    last_track: dict = {}  # target -> track it was last matched to
    previous: dict = {}  # target -> track matched at the previous step
    n_truth = n_hyp = n_match = n_switch = 0
    dist_sum = 0.0
    for step in sorted(set(truth) | set(hyps)):
        objs = truth.get(step, {})
        tracks = hyps.get(step, {})
        n_truth += len(objs)
        n_hyp += len(tracks)
        current: dict = {}
        for obj, trk in previous.items():
            if obj in objs and trk in tracks:
                d = math.dist(objs[obj], tracks[trk])
                if d <= radius:
                    current[obj] = trk
                    dist_sum += d
        taken = set(current.values())
        candidates = sorted(
            (math.dist(p, q), obj, trk)
            for obj, p in objs.items()
            if obj not in current
            for trk, q in tracks.items()
            if trk not in taken
        )
        for d, obj, trk in candidates:
            if d > radius:
                break
            if obj in current or trk in taken:
                continue
            if obj in last_track and last_track[obj] != trk:
                n_switch += 1
            current[obj] = trk
            taken.add(trk)
            dist_sum += d
        n_match += len(current)
        last_track.update(current)
        previous = current
    return MotScore(n_truth, n_hyp, n_match, n_switch, dist_sum)


def read_truth_csv(path) -> dict:
    """Live targets per step from the simulator's truth table."""
    truth: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            objs = truth.setdefault(int(row["step"]), {})
            if row["alive"] == "1":
                objs[int(row["target"])] = _centroid(row)
    return truth


def read_tracks_csv(path) -> dict:
    """Track centroids per step from ``tracks.csv``."""
    hyps: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            hyps.setdefault(int(row["step"]), {})[int(row["track_id"])] = (
                _centroid(row)
            )
    return hyps


def _centroid(row) -> tuple[float, float, float]:
    return (
        float(row["centroid_x"]),
        float(row["centroid_y"]),
        float(row["centroid_z"]),
    )
