"""Command-line front end.

Three subcommands cover the usual workflow:

  * ``simulate`` renders a scene description to a raw frame stream;
  * ``track`` runs the full pipeline over a raw stream and writes the
    tracks table, the link table, a JSON summary and (optionally)
    per-step projection images;
  * ``inspect`` prints histogram statistics for one frame group and
    writes its three projections, reading the stream with the sensor
    geometry of an optional config file and ``--set`` overrides.

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

_SENSOR_KEYS = ("width", "height", "pulses_per_group", "ceiling", "offset")
_INT_KEYS = _SENSOR_KEYS + (
    "majority_min",
    "connectivity",
    "t_max",
    "max_coast",
    "expansion",
)
_FLOAT_KEYS = (
    "threshold",
    "alpha",
    "beta",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "kernel_radius_factor",
    "gate_radius",
    "kf_q",
    "kf_r",
    "kf_p0_pos",
    "kf_p0_vel",
    "importance_volume",
    "importance_speed",
    "importance_photons",
)
_STR_KEYS = ("scheme", "threshold_mode", "assoc_mode")

_IMPORTANCE_MAP = {
    "importance_volume": "volume",
    "importance_speed": "speed",
    "importance_photons": "total_photons",
}


def _coerce(key: str, val: str):
    try:
        if key in _INT_KEYS:
            return int(val)
        if key in _FLOAT_KEYS:
            return float(val)
    except ValueError:
        raise ValueError(f"bad value {val!r} for {key!r}") from None
    if key in _STR_KEYS:
        return val
    raise ValueError(f"unknown config key {key!r}")


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


def _take(values: dict, *keys: str, **renamed: str) -> dict:
    """Pop the listed config keys that are present, as keyword arguments;
    ``renamed`` maps a config key to its dataclass field.  Absent keys
    are left to the dataclass defaults."""
    fields = {k: k for k in keys} | renamed
    return {f: values.pop(k) for k, f in fields.items() if k in values}


def _enum(values: dict, key: str, cls, field: str | None = None) -> dict:
    """``{field: cls(value)}`` when ``key`` is present, else ``{}``;
    ``field`` defaults to ``key``."""
    if key not in values:
        return {}
    name = values.pop(key)
    try:
        return {field or key: cls(name)}
    except ValueError:
        raise ValueError(f"unknown {key} {name!r}") from None


def build_run_config(values: dict) -> RunConfig:
    values = dict(values)

    sensor = SensorConfig(**_take(values, *_SENSOR_KEYS))

    # the threshold keys feed whichever ThresholdMode is chosen, and the
    # sigmas one tuple, so they keep their fallbacks here
    mode_name = values.pop("threshold_mode", "fixed")
    alpha = values.pop("alpha", 0.5)
    beta = values.pop("beta", 0.5)
    threshold = values.pop("threshold", 2.0)
    if mode_name == "fixed":
        threshold_mode = Fixed(threshold)
    elif mode_name == "peak_fraction":
        threshold_mode = PeakFraction(alpha)
    elif mode_name == "moving_average":
        threshold_mode = MovingAverage(alpha, beta)
    else:
        raise ValueError(f"unknown threshold_mode {mode_name!r}")

    den = DenoiseConfig(
        threshold_mode=threshold_mode,
        sigmas=(
            values.pop("sigma_x", 1.0),
            values.pop("sigma_y", 1.0),
            values.pop("sigma_z", 1.0),
        ),
        **_enum(values, "scheme", Scheme),
        **_take(values, "majority_min", "kernel_radius_factor"),
    )

    assoc = AssociationConfig(
        **_enum(values, "assoc_mode", AssocMode, "mode"),
        **_take(values, "gate_radius", expansion="expansion_e"),
    )

    weights = _take(values, **_IMPORTANCE_MAP)
    importance = (
        ImportanceConfig(weights=weights) if weights else ImportanceConfig()
    )

    kalman = KalmanParams(
        **_take(values, kf_q="q", kf_r="r", kf_p0_pos="p0_pos", kf_p0_vel="p0_vel")
    )
    tracker = TrackerConfig(
        assoc=assoc,
        importance=importance,
        kalman=kalman,
        **_take(values, "t_max", "max_coast"),
    )
    connectivity = _take(values, "connectivity")
    if values:
        raise ValueError(f"unknown config keys {sorted(values)}")
    return RunConfig(sensor=sensor, denoise=den, tracker=tracker, **connectivity)


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


def cmd_track(args) -> int:
    try:
        config_text = Path(args.config).read_text(encoding="utf-8")
        data = Path(args.raw).read_bytes()
    except OSError as exc:
        _err(str(exc))
        return 2
    try:
        cfg = parse_config(config_text, args.set)
    except ValueError as exc:
        _err(f"config: {exc}")
        return 1

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
    try:
        config_text = (
            Path(args.config).read_text(encoding="utf-8") if args.config else ""
        )
        data = Path(args.raw).read_bytes()
    except OSError as exc:
        _err(str(exc))
        return 2
    try:
        sensor = parse_config(config_text, args.set).sensor
    except ValueError as exc:
        _err(f"config: {exc}")
        return 1
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
