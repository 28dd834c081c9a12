"""Command-line front end.

Three subcommands cover the usual workflow:

  * ``simulate`` renders a scene description to a raw frame stream;
  * ``track`` runs the full pipeline over a raw stream and writes the
    tracks table, the link table, a JSON summary and (optionally)
    per-step projection images;
  * ``inspect`` prints histogram statistics for one frame group and
    writes its three projections, reading the stream with the sensor
    geometry of an optional config file and ``--set`` overrides.

A pipeline config is flat ``key value`` lines.  One table, ``_KEYS``,
declares every key once: its value type and the RunConfig field it
sets.  The defaults live in the config dataclasses alone, so an empty
config is ``RunConfig()``.

Exit codes separate user mistakes from environment trouble: 1 means the
input could not be interpreted (bad scene, config or raw layout, or
Kalman settings under which a filter's innovation variance is zero or
not finite), 2 means file I/O failed, and for ``track`` 3 flags an
internal invariant violation worth a bug report.
"""
from __future__ import annotations

import argparse
import logging
import sys
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import numpy as np

from .association import AssocMode, AssociationConfig
from .denoise import (
    DenoiseConfig,
    Fixed,
    MovingAverage,
    PeakFraction,
    Scheme,
)
from .errors import (
    ConfigViolationError,
    EmptyInputError,
    SceneParseError,
    SingularInnovationError,
    TruncatedFileError,
)
from .kalman import KalmanParams
from .labeling import ImportanceConfig
from .outputs import (
    projection_image,
    write_links_csv,
    write_pgm,
    write_summary_json,
    write_tracks_csv,
    write_truth_csv,
)
from .pipeline import RunConfig, run_tracking
from .raw_ingest import SensorConfig, group_frames, parse_frames
from .simulator import load_scene, simulate, write_raw
from .track_manager import TrackerConfig
from .voxelizer import build_histogram

_MODES = {"fixed": Fixed, "peak_fraction": PeakFraction, "moving_average": MovingAverage}

# key -> (type, part, field): each config key's value type, and the field
# it sets in one part of the RunConfig.  "sigmas" fields are axes of
# DenoiseConfig.sigmas, and "mode" fields belong to the threshold mode
# that "threshold_mode" picks; the other modes ignore them.
_KEYS = {
    **{f.name: (int, "sensor", f.name) for f in fields(SensorConfig)},
    "scheme": (Scheme, "denoise", "scheme"),
    "majority_min": (int, "denoise", "majority_min"),
    "kernel_radius_factor": (float, "denoise", "kernel_radius_factor"),
    "sigma_x": (float, "sigmas", 0),
    "sigma_y": (float, "sigmas", 1),
    "sigma_z": (float, "sigmas", 2),
    "threshold_mode": (_MODES, "denoise", "threshold_mode"),
    "threshold": (float, "mode", "t"),
    "alpha": (float, "mode", "alpha"),
    "beta": (float, "mode", "beta"),
    "connectivity": (int, "run", "connectivity"),
    "t_max": (int, "tracker", "t_max"),
    "max_coast": (int, "tracker", "max_coast"),
    "assoc_mode": (AssocMode, "assoc", "mode"),
    "expansion": (int, "assoc", "expansion_e"),
    "gate_radius": (float, "assoc", "gate_radius"),
    "kf_q": (float, "kalman", "q"),
    "kf_r": (float, "kalman", "r"),
    "kf_p0_pos": (float, "kalman", "p0_pos"),
    "kf_p0_vel": (float, "kalman", "p0_vel"),
    "importance_volume": (float, "importance", "volume"),
    "importance_speed": (float, "importance", "speed"),
    "importance_photons": (float, "importance", "total_photons"),
}


def _coerce(key: str, val: str):
    if key not in _KEYS:
        raise ValueError(f"unknown config key {key!r}")
    kind = _KEYS[key][0]
    try:
        return kind[val] if isinstance(kind, dict) else kind(val)
    except (KeyError, ValueError):
        raise ValueError(f"bad value {val!r} for {key!r}") from None


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse the flat ``key value`` config format; ``#`` comments.

    ``overrides`` holds ``KEY=VALUE`` strings (from --set) that win
    over the file.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'key value'")
        values[parts[0]] = _coerce(parts[0], parts[1])
    for item in overrides or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"--set needs KEY=VALUE, got {item!r}")
        values[key] = _coerce(key, val)
    return build_run_config(values)


def build_run_config(values: dict) -> RunConfig:
    """The RunConfig that coerced ``values`` give; every key left out
    keeps its dataclass default."""
    parts: dict[str, dict] = defaultdict(dict)
    for key, value in values.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        _, part, name = _KEYS[key]
        parts[part][name] = value

    den = parts["denoise"]
    mode = den.get("threshold_mode", Fixed)
    own = {f.name for f in fields(mode)}
    den["threshold_mode"] = mode(**{k: v for k, v in parts["mode"].items() if k in own})
    axes = enumerate(DenoiseConfig.sigmas)
    den["sigmas"] = tuple(parts["sigmas"].get(axis, sigma) for axis, sigma in axes)

    tracker = parts["tracker"]
    tracker["assoc"] = AssociationConfig(**parts["assoc"])
    tracker["kalman"] = KalmanParams(**parts["kalman"])
    if parts["importance"]:  # any weight given replaces the default weights
        tracker["importance"] = ImportanceConfig(weights=parts["importance"])
    return RunConfig(
        sensor=SensorConfig(**parts["sensor"]),
        denoise=DenoiseConfig(**den),
        tracker=TrackerConfig(**tracker),
        **parts["run"],
    )


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def cmd_simulate(args) -> int:
    try:
        scene, sensor = load_scene(args.scene)
    except SceneParseError as exc:
        _err(f"scene: {exc}")
        return 1
    except OSError as exc:
        _err(str(exc))
        return 2
    frames, truth = simulate(scene, sensor)
    try:
        nbytes = write_raw(frames, args.out)
        if args.truth:
            write_truth_csv(truth, args.truth)
    except OSError as exc:
        _err(str(exc))
        return 2
    print(
        f"wrote {nbytes} bytes ({len(frames)} frames, "
        f"{scene.n_groups} groups) to {args.out}"
    )
    return 0


def _read_inputs(args) -> tuple[RunConfig, bytes] | int:
    """The parsed ``--config``/``--set`` settings and the ``--raw``
    bytes, or the exit code once the reason they cannot be had is
    printed."""
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        data = Path(args.raw).read_bytes()
    except OSError as exc:
        _err(str(exc))
        return 2
    try:
        return parse_config(text, args.set), data
    except ValueError as exc:
        _err(f"config: {exc}")
        return 1


def cmd_track(args) -> int:
    inputs = _read_inputs(args)
    if isinstance(inputs, int):
        return inputs
    cfg, data = inputs
    out_dir = Path(args.out_dir)
    on_step = None
    if args.projections:
        def on_step(rec):
            for axis, tag in ((2, "xy"), (1, "xz"), (0, "yz")):
                img = projection_image(rec.grid.counts, axis)
                write_pgm(out_dir / f"step{rec.step:04d}_{tag}.pgm", img)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        result = run_tracking(data, cfg, on_step=on_step)
        write_tracks_csv(result.steps, out_dir / "tracks.csv")
        write_links_csv(result.steps, out_dir / "links.csv")
        write_summary_json(result.steps, out_dir / "summary.json")
    except (TruncatedFileError, EmptyInputError) as exc:
        _err(f"raw stream: {exc}")
        return 1
    except SingularInnovationError as exc:
        _err(f"config: {exc}")
        return 1
    except OSError as exc:
        _err(str(exc))
        return 2
    except ConfigViolationError as exc:
        _err(f"internal invariant violated: {exc!r}")
        return 3
    n_tracks = len(
        {s.track_id for rec in result.steps for s in rec.tracks}
    )
    print(f"{len(result.steps)} steps, {n_tracks} distinct tracks -> {out_dir}")
    return 0


def cmd_inspect(args) -> int:
    inputs = _read_inputs(args)
    if isinstance(inputs, int):
        return inputs
    sensor, data = inputs[0].sensor, inputs[1]
    try:
        frames = parse_frames(data, sensor)
    except (TruncatedFileError, EmptyInputError) as exc:
        _err(f"raw stream: {exc}")
        return 1
    groups = group_frames(frames, sensor)
    if not 0 <= args.group < len(groups):
        _err(f"group {args.group} out of range (stream has {len(groups)})")
        return 1
    grid = build_histogram(groups[args.group], sensor)
    counts = grid.counts
    total = int(counts.sum())
    occupied = int((counts > 0).sum())
    peak = int(counts.max()) if counts.size else 0
    print(f"group {args.group}: {len(groups[args.group].frames)} frames")
    print(f"histogram {counts.shape[0]}x{counts.shape[1]}x{counts.shape[2]}")
    print(f"photons in window: {total}")
    print(f"occupied voxels: {occupied}")
    if peak > 0:
        x, y, z = np.unravel_index(int(counts.argmax()), counts.shape)
        print(f"peak count {peak} at voxel ({x}, {y}, {z})")
    else:
        print("peak count 0")
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for axis, tag in ((2, "xy"), (1, "xz"), (0, "yz")):
            write_pgm(
                out_dir / f"group{args.group:04d}_{tag}.pgm",
                projection_image(counts, axis),
            )
    except OSError as exc:
        _err(str(exc))
        return 2
    return 0


def _add_set_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config value (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photontrack",
        description="Photon-counting Ladar multi-target tracking pipeline.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable info logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene to a raw frame stream")
    p.add_argument("--scene", required=True, help="scene description file")
    p.add_argument("--out", required=True, help="output raw file")
    p.add_argument("--truth", help="optional ground-truth CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run the tracking pipeline")
    p.add_argument("--raw", required=True, help="raw frame stream")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument(
        "--projections",
        action="store_true",
        help="also write per-step projection images",
    )
    _add_set_option(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("inspect", help="summarize one frame group")
    p.add_argument("--raw", required=True, help="raw frame stream")
    p.add_argument("--group", required=True, type=int, help="group index")
    p.add_argument("--out-dir", default=".", help="where projections go")
    p.add_argument(
        "--config", help="pipeline config file giving the sensor geometry"
    )
    _add_set_option(p)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
