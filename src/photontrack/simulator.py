"""Synthetic photon-counting scenes for end-to-end testing.

Targets are axis-aligned boxes drifting through the field of view with
piecewise-constant velocity.  Each pulse the sensor records, per pixel,
the arrival bin of the first detected photon; returns are Poisson in
number, land on the target's front face (nearest plane wins because
later photons at the same pixel are shadowed), and dark counts fall
uniformly over pixels and bins.  The output is the same little-endian
frame stream the ingest stage consumes, plus per-step ground truth: a
tuple with one tuple of TruthRecords (one per target) per step.

Rendering holds one array entry per photon, so every mean rate, a
target's reflectivity and the noise rate alike, is capped at one photon
per sensor pixel per pulse: a group's photon arrays are then no larger
than its frames.  At the cap, noise alone already fires 63% of the
pixels on every pulse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import SceneParseError
from .labeling import BoundingBox
from .raw_ingest import RAW_DTYPE, SensorConfig


def _check_rate(name: str, rate: float) -> None:
    """Reject a mean numpy's Poisson sampler refuses (negative, NaN or
    too large, infinity included), by asking it for zero draws."""
    try:
        np.random.default_rng(0).poisson(rate, 0)
    except ValueError:
        raise ValueError(f"{name} must be a Poisson rate numpy can sample") from None


@dataclass(frozen=True)
class TargetSpec:
    """A box target.

    ``start`` is the continuous box-center position: x and y in pixels,
    z in range bins.  ``velocity_segments`` holds (from_step, velocity)
    pairs sorted by step; the segment with the largest from_step not
    exceeding the current step applies.
    """

    shape: tuple[int, int, int]
    start: tuple[float, float, float]
    reflectivity: float
    velocity_segments: tuple[tuple[int, tuple[float, float, float]], ...] = (
        (0, (0.0, 0.0, 0.0)),
    )

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.shape):
            raise ValueError("shape sides must be positive")
        if not all(map(math.isfinite, self.start)):
            raise ValueError("start must be finite")
        _check_rate("reflectivity", self.reflectivity)
        if not self.velocity_segments:
            raise ValueError("at least one velocity segment is required")
        if not all(math.isfinite(v) for _, vel in self.velocity_segments for v in vel):
            raise ValueError("velocities must be finite")
        steps = [s for s, _ in self.velocity_segments]
        if steps[0] != 0:
            raise ValueError("the first velocity segment must start at step 0")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("velocity segments must have increasing steps")

    def velocity_at(self, step: int) -> np.ndarray:
        v = self.velocity_segments[0][1]
        for from_step, vel in self.velocity_segments:
            if from_step <= step:
                v = vel
            else:
                break
        return np.asarray(v, dtype=np.float64)


@dataclass(frozen=True)
class SceneSpec:
    targets: tuple[TargetSpec, ...] = ()
    noise_rate: float = 0.0
    n_groups: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate("noise_rate", self.noise_rate)
        if self.n_groups < 1:
            raise ValueError("n_groups must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _check_rate_cap(scene: SceneSpec, cfg: SensorConfig) -> None:
    """Reject a mean rate above one photon per sensor pixel per pulse."""
    cap = cfg.frame_pixels
    rates = [("noise_rate", scene.noise_rate)]
    rates += [("reflectivity", t.reflectivity) for t in scene.targets]
    for name, rate in rates:
        if rate > cap:
            raise ValueError(
                f"{name} {rate:g} exceeds {cap} photons per pulse, "
                "one per sensor pixel"
            )


@dataclass(frozen=True)
class TruthRecord:
    """Where one target truly was at one step.

    The centroid is the continuous box center in histogram coordinates
    (z measured in bins past the window start); the box covers the
    in-view emitting voxels, or None when nothing was visible; the
    target is alive exactly when it has a box.
    """

    centroid: tuple[float, float, float]
    bbox: BoundingBox | None

    @property
    def alive(self) -> bool:
        return self.bbox is not None


def _front_face(
    pos: np.ndarray, spec: TargetSpec, cfg: SensorConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """In-view emitting pixels (xs, ys) and their range bin.

    Emission comes from the near face of the box: the full x-y cross
    section at the box's smallest range bin.  Corners far outside the
    view, even at infinity, are clamped to just beyond it.
    """
    sx, sy, _ = spec.shape
    corner = np.rint(pos - (np.asarray(spec.shape) - 1) / 2.0)
    lo, hi = (-sx, -sy, -1), (cfg.width, cfg.height, cfg.ceiling)
    mx, my, z0 = (int(c) for c in np.clip(corner, lo, hi))
    xs = np.arange(mx, mx + sx)
    ys = np.arange(my, my + sy)
    xs = xs[(xs >= 0) & (xs < cfg.width)]
    ys = ys[(ys >= 0) & (ys < cfg.height)]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return gx.ravel(), gy.ravel(), z0


def _pulses(rng: np.random.Generator, rate: float, pulses: int) -> np.ndarray:
    """The pulse index of each photon of one source: Poisson arrivals at
    ``rate`` per pulse, in pulse order."""
    return np.repeat(np.arange(pulses), rng.poisson(rate, pulses))


def _render_group(
    faces: list[tuple[np.ndarray, np.ndarray, int]],
    scene: SceneSpec,
    cfg: SensorConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One group's frames; ``faces`` holds each target's front face.

    Targets draw in scene order, then dark counts, pixels before bins;
    the first photon at a pixel wins.  A zero rate or an empty draw
    takes nothing from ``rng``, so an unlit target or a pulse-free
    group leaves the later draws where they were.
    """
    pulses = cfg.pulses_per_group
    vals = np.full((pulses, cfg.frame_pixels), cfg.ceiling, dtype=np.int64)
    for (xs, ys, z0), spec in zip(faces, scene.targets):
        if len(xs) and 0 <= z0 < cfg.ceiling:
            frame = _pulses(rng, spec.reflectivity, pulses)
            pick = rng.integers(0, len(xs), len(frame))
            np.minimum.at(vals, (frame, ys[pick] * cfg.width + xs[pick]), z0)
    frame = _pulses(rng, scene.noise_rate, pulses)
    pix = rng.integers(0, cfg.frame_pixels, len(frame))
    np.minimum.at(vals, (frame, pix), rng.integers(0, cfg.ceiling, len(frame)))
    return vals.reshape(pulses, cfg.height, cfg.width).astype(np.uint16)


def _truth(
    pos: np.ndarray, face: tuple[np.ndarray, np.ndarray, int], cfg: SensorConfig
) -> TruthRecord:
    """The target's record; it has a box when its face is in view and
    within the range window."""
    xs, ys, z0 = face
    centroid = (float(pos[0]), float(pos[1]), float(pos[2] - cfg.offset))
    box = None
    if len(xs) and cfg.zmin <= z0 <= cfg.zmax:
        zg = z0 - cfg.offset
        box = BoundingBox(
            (int(xs.min()), int(ys.min()), zg), (int(xs.max()), int(ys.max()), zg)
        )
    return TruthRecord(centroid, box)


def simulate(scene: SceneSpec, cfg: SensorConfig) -> tuple[np.ndarray, tuple]:
    """Render every group; returns (frames, truth), where ``truth[step]``
    holds one TruthRecord per target in scene order.

    Randomness is keyed by (scene seed, group index), so any group can
    be re-rendered independently and whole runs repeat bit for bit.
    Raises ValueError when a rate exceeds one photon per sensor pixel
    per pulse.
    """
    _check_rate_cap(scene, cfg)
    positions = [np.asarray(t.start, dtype=np.float64) for t in scene.targets]
    chunks = []
    records = []
    for n in range(scene.n_groups):
        rng = np.random.default_rng([scene.seed, n])
        faces = [_front_face(pos, t, cfg) for pos, t in zip(positions, scene.targets)]
        chunks.append(_render_group(faces, scene, cfg, rng))
        records.append(tuple(_truth(p, f, cfg) for p, f in zip(positions, faces)))
        for i, spec in enumerate(scene.targets):
            positions[i] = positions[i] + spec.velocity_at(n)
    return np.concatenate(chunks, axis=0), tuple(records)


def write_raw(frames: np.ndarray, sink) -> int:
    """Serialize frames as little-endian 16-bit words; returns the byte
    count.  ``sink`` may be a path or a binary file object."""
    data = np.ascontiguousarray(frames, dtype=RAW_DTYPE).tobytes()
    if hasattr(sink, "write"):
        sink.write(data)
    else:
        with open(sink, "wb") as fh:
            fh.write(data)
    return len(data)


def parse_scene(text: str) -> tuple[SceneSpec, SensorConfig]:
    """Parse the plain-text scene format.

    Global lines are ``key value`` pairs: noise_rate, n_groups, seed
    and, as sensor overrides, the SensorConfig fields (width, height,
    pulses_per_group, ceiling, offset).  Each target is a ``target`` ..
    ``end`` block with
    ``shape SX SY SZ``, ``start X Y Z``, ``reflectivity R`` and optional
    ``velocity VX VY VZ`` / repeatable ``velocity_from STEP VX VY VZ``
    lines.  ``#`` starts a comment.  Rates above one photon per sensor
    pixel per pulse are rejected, as :func:`simulate` would reject them.
    """
    scene_keys = {"noise_rate": float, "n_groups": int, "seed": int}
    sensor_keys = {f.name for f in fields(SensorConfig)}
    scene_kwargs: dict = {}
    sensor_kwargs: dict = {}
    targets: list[TargetSpec] = []
    block: dict | None = None

    def fail(lineno: int, msg: str):
        raise SceneParseError(f"line {lineno}: {msg}")

    def numbers(lineno: int, parts: list[str], n: int, kind=float) -> list:
        if len(parts) != n:
            fail(lineno, f"expected {n} values, got {len(parts)}")
        try:
            return [kind(p) for p in parts]
        except ValueError:
            fail(lineno, f"bad number in {parts!r}")

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, *parts = line.split()
        if block is None:
            if key == "target":
                if parts:
                    fail(lineno, "'target' takes no arguments")
                block = {"segments": {}, "line": lineno}
            elif key == "end":
                fail(lineno, "'end' outside a target block")
            elif key in scene_keys:
                scene_kwargs[key] = numbers(lineno, parts, 1, scene_keys[key])[0]
            elif key in sensor_keys:
                sensor_kwargs[key] = numbers(lineno, parts, 1, int)[0]
            else:
                fail(lineno, f"unknown key {key!r}")
        else:
            if key == "end":
                if parts:
                    fail(lineno, "'end' takes no arguments")
                targets.append(_close_block(block, fail))
                block = None
            elif key == "shape":
                block["shape"] = tuple(numbers(lineno, parts, 3, int))
            elif key == "start":
                block["start"] = tuple(numbers(lineno, parts, 3))
            elif key == "reflectivity":
                block["reflectivity"] = numbers(lineno, parts, 1)[0]
            elif key == "velocity":
                block["segments"][0] = tuple(numbers(lineno, parts, 3))
            elif key == "velocity_from":
                step = numbers(lineno, parts[:1], 1, int)[0]
                block["segments"][step] = tuple(numbers(lineno, parts[1:], 3))
            else:
                fail(lineno, f"unknown target key {key!r}")
    if block is not None:
        fail(block["line"], "target block never closed with 'end'")

    try:
        sensor = SensorConfig(**sensor_kwargs)
        scene = SceneSpec(targets=tuple(targets), **scene_kwargs)
        _check_rate_cap(scene, sensor)
    except ValueError as exc:
        raise SceneParseError(str(exc)) from exc
    return scene, sensor


def _close_block(block: dict, fail) -> TargetSpec:
    for required in ("shape", "start", "reflectivity"):
        if required not in block:
            fail(block["line"], f"target block is missing {required!r}")
    segments = dict(block["segments"])
    segments.setdefault(0, (0.0, 0.0, 0.0))
    try:
        return TargetSpec(
            shape=block["shape"],
            start=block["start"],
            reflectivity=block["reflectivity"],
            velocity_segments=tuple(sorted(segments.items())),
        )
    except ValueError as exc:
        raise SceneParseError(f"line {block['line']}: {exc}") from exc


def load_scene(path) -> tuple[SceneSpec, SensorConfig]:
    """Parse a scene file; bytes that are not UTF-8 are a scene error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SceneParseError(str(exc)) from exc
    return parse_scene(text)
