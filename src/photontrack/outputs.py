"""Disk formats for run results: CSV tables, a JSON summary and PGM
projection images.

All text is written with LF line endings regardless of platform.  Each
CSV table is written with one ``%`` format per row, whose floats use
the %.9g form so diffs between runs stay meaningful.
"""
from __future__ import annotations

import json

import numpy as np

from .features import FEATURE_NAMES
from .track_manager import StepRecord
from .voxelizer import VoxelGrid

TRACKS_HEADER = ("step", "track_id", "state", "bad_count") + FEATURE_NAMES
LINKS_HEADER = ("step", "old_slot", "new_slot")
TRACKS_FMT = "%d,%d,%s,%d" + ",%.9g" * len(FEATURE_NAMES)


def _write_rows(path, header, fmt, rows) -> None:
    lines = [",".join(header)]
    lines.extend(fmt % row for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_tracks_csv(steps: list[StepRecord], path) -> None:
    """One row per maintained track per step, in slot order."""
    rows = [
        (rec.step, snap.track_id, snap.state.value, snap.bad_count) + snap.features
        for rec in steps
        for snap in rec.tracks
    ]
    _write_rows(path, TRACKS_HEADER, TRACKS_FMT, rows)


def write_links_csv(steps: list[StepRecord], path) -> None:
    """Confirmed slot links between consecutive steps.

    The rows are each record's ``bwlink`` pairs.  The step column names
    the older of the two steps: a row ``n,a,b`` says slot a of step n
    continued as slot b of step n+1.
    """
    rows = [
        (rec.step - 1, old_slot, new_slot)
        for rec in steps
        for new_slot, old_slot in enumerate(rec.bwlink)
        if old_slot is not None
    ]
    _write_rows(path, LINKS_HEADER, "%d,%d,%d", rows)


def write_summary_json(steps: list[StepRecord], path) -> None:
    """Per-track aggregate view over the whole run."""
    by_id: dict[int, dict] = {}
    for rec in steps:
        for snap in rec.tracks:
            info = by_id.setdefault(
                snap.track_id,
                {
                    "track_id": snap.track_id,
                    "first_step": rec.step,
                    "last_step": rec.step,
                    "n_steps": 0,
                    "final_state": snap.state.value,
                    "trajectory_points": [],
                },
            )
            info["last_step"] = rec.step
            info["n_steps"] += 1
            info["final_state"] = snap.state.value
            info["trajectory_points"].append([rec.step, *snap.features[:3]])
    summary = {
        "n_steps": len(steps),
        "tracks": [by_id[k] for k in sorted(by_id)],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_pgm(path, img: np.ndarray) -> None:
    """Binary PGM, intensities rescaled so the peak maps to 255."""
    if img.ndim != 2:
        raise ValueError("image must be 2D")
    a = np.asarray(img, dtype=np.float64)
    peak = a.max() if a.size else 0.0
    if peak > 0:
        scaled = np.rint(a * (255.0 / peak)).clip(0, 255).astype(np.uint8)
    else:
        scaled = np.zeros(a.shape, dtype=np.uint8)
    h, w = scaled.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())


def projection_image(grid: VoxelGrid, axis: int) -> np.ndarray:
    """Maximum-intensity projection of a histogram along ``axis``, as
    image rows x columns, equal to ``grid.counts.max(axis).T``.

    Collapsing z gives an x-y view (rows y, columns x); collapsing y or
    x puts range on the rows instead.  Only the occupied voxels are
    read: each one's pixel, the flat index of its two kept coordinates,
    comes from ``divmod`` of its flat index by ``nz`` and ``ny``, and
    one unbuffered maximum per pixel fills an image of zeros.
    """
    _, ny, nz = grid.shape
    xy, z = np.divmod(grid.flat, nz)
    # collapsing z keeps the pixel x * ny + y, collapsing y keeps
    # x * nz + z and collapsing x keeps y * nz + z
    pixel = xy if axis == 2 else np.divmod(xy, ny)[1 - axis] * nz + z
    kept = [n for d, n in enumerate(grid.shape) if d != axis]
    img = np.zeros(kept[0] * kept[1], dtype=grid.values.dtype)
    np.maximum.at(img, pixel, grid.values)
    return img.reshape(kept).T


def write_truth_csv(truth: tuple, path) -> None:
    """One row per target per step, from ``truth[step][target]``; the
    centroid and box columns are named as in tracks.csv, and the box
    cells are empty when nothing is visible."""
    rows = [
        (step, target, int(rec.alive), *rec.centroid)
        + (rec.bbox.faces if rec.alive else ("",) * 6)
        for step, step_records in enumerate(truth)
        for target, rec in enumerate(step_records)
    ]
    header = ("step", "target", "alive") + FEATURE_NAMES[:9]
    _write_rows(path, header, "%d,%d,%d,%.9g,%.9g,%.9g" + ",%s" * 6, rows)
