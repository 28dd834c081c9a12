"""End-to-end wiring: a raw frame stream in, per-step track records out.

A pulse group is a plain ``(pulses, height, width)`` frame array.
Groups are handled strictly in order by one loop on the calling
thread: reduce the group to a ranked table of candidates, advance the
tracker, emit the step's record.  That record is the tracker's own
``StepRecord``, the one its history deque holds: a run's result is
the list of its StepRecords, ``StepRecord.step`` is the index of the
group it came from, and each record's ``fwlink`` is filled when the
next group is tracked.

``run_tracking`` reads its stream one group at a time into one reused
buffer, so the capture's share of its memory is one group, whatever
the capture's length: a group array it hands on is valid only until
the next group is read.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .denoise import DenoiseConfig, Scheme, denoise
from .labeling import (
    _CONNECTIVITIES,
    extract_observations,
    importance_sort,
    label_components,
    truncate_targets,
)
from .errors import TruncatedFileError
from .raw_ingest import SensorConfig, group_frames, parse_frames, stream_nbytes
from .track_manager import StepRecord, Tracker, TrackerConfig
from .voxelizer import build_histogram


@dataclass(frozen=True)
class RunConfig:
    sensor: SensorConfig = field(default_factory=SensorConfig)
    denoise: DenoiseConfig = field(default_factory=DenoiseConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    connectivity: int = 26

    def __post_init__(self) -> None:
        if self.connectivity not in _CONNECTIVITIES:
            raise ValueError(f"connectivity must be one of {_CONNECTIVITIES}")
        # a Parzen kernel's half-width ceil(factor * sigma) may not exceed
        # the histogram's longest axis; for an integer bound that is the
        # same test on the product, which may be too large for ceil.  The
        # other schemes never read the kernel.
        longest = max(self.sensor.width, self.sensor.height, self.sensor.nz)
        reach = self.denoise.kernel_radius_factor * max(self.denoise.sigmas)
        if self.denoise.scheme is Scheme.PARZEN_THRESHOLD and reach > longest:
            raise ValueError(
                f"Parzen kernel half-width kernel_radius_factor * sigma = "
                f"{reach:.6g} exceeds the histogram's longest axis ({longest})"
            )


def _reduce_group(frames, cfg: RunConfig, t_prev):
    """Histogram, denoise, label, extract and rank one group's frames;
    returns (grid, candidates, threshold used)."""
    grid = build_histogram(frames, cfg.sensor)
    mask, t_used = denoise(grid, cfg.denoise, t_prev)
    labels, _ = label_components(mask, cfg.connectivity)
    candidates = extract_observations(labels, grid)
    candidates = importance_sort(candidates, cfg.tracker.importance)
    candidates = truncate_targets(candidates, cfg.tracker.t_max)
    return grid, candidates, t_used


def run_groups(groups, cfg: RunConfig, on_step=None) -> list[StepRecord]:
    """Process frame groups, any iterable of ``(pulses, height, width)``
    arrays, strictly in order on the calling thread.

    ``on_step`` is called with a copy of each StepRecord that carries
    its histogram as ``grid``, so callers can derive imagery or keep
    grids; the returned records are the tracker's, without histograms,
    since full histograms are large.  The copy shares the record's link
    lists, so its ``fwlink`` too is filled when the next group is
    tracked.  The histogram holds the occupied voxels; its dense
    ``counts`` are built only if a reader asks for them, and no stage
    of the run does.
    """
    tracker = Tracker(cfg.tracker)
    steps: list[StepRecord] = []
    t_prev = None
    for group in groups:
        grid, candidates, t_prev = _reduce_group(group, cfg, t_prev)
        tracker.step(candidates)
        record = tracker.ring[-1]
        if on_step is not None:
            on_step(replace(record, grid=grid))
        steps.append(record)
    return steps


def _read_groups(stream, nbytes: int, sensor: SensorConfig):
    """Yield the whole groups of the next ``nbytes`` of ``stream``, each
    parsed from the same reused buffer of one group, or of all
    ``nbytes`` when that is less; a trailing partial group is parsed
    and dropped with ``group_frames``' warning."""
    buf = memoryview(bytearray(min(nbytes, sensor.group_nbytes)))
    while nbytes:
        chunk = buf[: min(nbytes, len(buf))]
        if stream.readinto(chunk) != len(chunk):
            raise TruncatedFileError(f"stream ended {nbytes} bytes early")
        nbytes -= len(chunk)
        yield from group_frames(parse_frames(chunk, sensor), sensor)


def run_tracking(stream, cfg: RunConfig, on_step=None) -> list[StepRecord]:
    """Track the frames of a seekable binary stream, such as a file
    opened ``"rb"``, from its position to its end.

    The stream's length is checked before any group is read: an empty
    stream raises EmptyInputError, and one that is not a whole number
    of frames TruncatedFileError.  Groups are then read one at a time
    into one reused buffer, so a group array is valid only until the
    next group is read; ``on_step`` sees each record's histogram, which
    holds no reference to it.
    """
    nbytes = stream_nbytes(stream, cfg.sensor)
    groups = _read_groups(stream, nbytes, cfg.sensor)
    return run_groups(groups, cfg, on_step=on_step)
