"""End-to-end wiring: raw bytes in, per-step track records out.

Pulse groups are handled strictly in order by one loop on the calling
thread: reduce the group to ranked observations, advance the tracker,
emit a StepRecord.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .denoise import DenoiseConfig, denoise
from .labeling import (
    _CONNECTIVITIES,
    extract_observations,
    importance_sort,
    label_components,
    truncate_targets,
)
from .raw_ingest import FrameGroup, SensorConfig, group_frames, parse_frames
from .track_manager import Tracker, TrackerConfig, TrackSnapshot
from .voxelizer import VoxelGrid, build_histogram


@dataclass(frozen=True)
class RunConfig:
    sensor: SensorConfig = field(default_factory=SensorConfig)
    denoise: DenoiseConfig = field(default_factory=DenoiseConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    connectivity: int = 26

    def __post_init__(self) -> None:
        if self.connectivity not in _CONNECTIVITIES:
            raise ValueError(f"connectivity must be one of {_CONNECTIVITIES}")


@dataclass(frozen=True)
class StepRecord:
    """One processed frame group.

    ``links`` pairs (previous-step slot, this-step slot) for tracks
    whose association was confirmed across the boundary; ``grid`` is
    the step's histogram while ``on_step`` sees the record, and None
    in the run's results.
    """

    step: int
    grid: VoxelGrid | None
    tracks: list[TrackSnapshot]
    links: list[tuple[int, int]]


@dataclass(frozen=True)
class RunResult:
    steps: list[StepRecord]
    tracker: Tracker


def _reduce_group(group, cfg: RunConfig, t_prev):
    """Histogram, denoise, label, extract and rank one group; returns
    (grid, observations, threshold used)."""
    grid = build_histogram(group, cfg.sensor)
    mask, t_used = denoise(grid, cfg.denoise, t_prev)
    labels, _ = label_components(mask, cfg.connectivity)
    observations = extract_observations(labels, grid)
    observations = importance_sort(observations, cfg.tracker.importance)
    observations = truncate_targets(observations, cfg.tracker.t_max)
    return grid, observations, t_used


def run_groups(
    groups: list[FrameGroup], cfg: RunConfig, on_step=None
) -> RunResult:
    """Process frame groups strictly in order on the calling thread.

    ``on_step`` is called with each StepRecord while its histogram is
    still attached, so callers can derive imagery or keep grids; the
    returned records drop them, since full histograms are large.
    """
    tracker = Tracker(cfg.tracker)
    steps: list[StepRecord] = []
    t_prev = None
    for group in groups:
        grid, observations, t_prev = _reduce_group(group, cfg, t_prev)
        tracker.step(observations)
        entry = tracker.ring.latest
        links = [(p, s) for s, p in enumerate(entry.bwlink) if p is not None]
        record = StepRecord(
            step=entry.step, grid=grid, tracks=entry.tracks, links=links
        )
        if on_step is not None:
            on_step(record)
        steps.append(replace(record, grid=None))
    return RunResult(steps=steps, tracker=tracker)


def run_tracking(data: bytes, cfg: RunConfig, on_step=None) -> RunResult:
    """Convenience wrapper over parse, group and track."""
    frames = parse_frames(data, cfg.sensor)
    groups = group_frames(frames, cfg.sensor)
    return run_groups(groups, cfg, on_step=on_step)
