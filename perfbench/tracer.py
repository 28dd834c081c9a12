"""Per-layer spans around photontrack's public entry points.

Each entry point is replaced, in the namespace of the module that calls
it, by a wrapper that times the call; the program's own files stay as
they are and run the same code path.  Spans are attributed to a frame
group (front-end calls, counted by ``build_histogram``), a tracker step
(counted by ``Tracker.step``) or the run as a whole, and nested spans on
one thread give their parent a self time.  Spans stay in memory until
the run ends.

An entry point that is missing, or that a workload needs but never
calls, raises TraceError: such a layer must never read as zero.
"""
from __future__ import annotations

import threading
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter

# (layer, module, name, attributed to, workload feature that needs it)
ENTRY_POINTS = (
    ("raw_ingest", "pipeline", "parse_frames", "run", None),
    ("raw_ingest", "pipeline", "group_frames", "run", None),
    ("voxelizer", "pipeline", "build_histogram", "group", None),
    ("denoise", "pipeline", "denoise", "group", None),
    ("labeling.label", "pipeline", "label_components", "group", None),
    ("labeling.extract", "pipeline", "extract_observations", "group", None),
    ("labeling.rank", "pipeline", "importance_sort", "group", None),
    ("labeling.rank", "pipeline", "truncate_targets", "group", None),
    ("association", "track_manager", "build_association_matrix", "step", None),
    ("association", "track_manager", "resolve_matches", "step", None),
    ("kalman", "track_manager", "kf_init", "step", None),
    ("kalman", "track_manager", "kf_predict", "step", None),
    ("kalman", "track_manager", "kf_update", "step", None),
    ("kalman", "track_manager", "bbox_kf_init", "step", "bbox_filters"),
    ("kalman", "track_manager", "bbox_kf_predict", "step", "bbox_filters"),
    ("kalman", "track_manager", "bbox_kf_update", "step", "bbox_filters"),
    ("features", "track_manager", "compute_features", "step", None),
    ("outputs.write", "cli", "write_tracks_csv", "run", None),
    ("outputs.write", "cli", "write_links_csv", "run", None),
    ("outputs.write", "cli", "write_summary_json", "run", None),
    ("outputs.projection", "cli", "projection_image", "step", "projections"),
    ("outputs.projection", "cli", "write_pgm", "step", "projections"),
)

# layers whose self time is reported as a share of traced step time
SHARE_LAYERS = (
    "voxelizer",
    "denoise",
    "labeling.label",
    "labeling.extract",
    "labeling.rank",
    "association",
    "kalman",
    "features",
    "track_manager",
    "outputs.projection",
)


class TraceError(RuntimeError):
    """An entry point is missing or was never called."""


class Tracer:
    def __init__(self, uses=()):
        self.uses = set(uses)
        self.index = {"group": -1, "step": -1, "run": 0}
        # layer -> index -> [duration, self time, calls, first start]
        self.spans = defaultdict(dict)
        self.counts = defaultdict(Counter)  # counter -> index -> value
        self.calls = Counter()
        self.required = []
        self._local = threading.local()

    def install(self, modules) -> None:
        """Wrap every entry point; ``modules`` maps short names to the
        imported photontrack modules."""
        hooks = {
            "build_histogram": self._after_histogram,
            "denoise": self._after_denoise,
            "label_components": self._after_label,
            "truncate_targets": self._after_truncate,
            "build_association_matrix": self._after_matrix,
            "resolve_matches": self._after_matches,
            "parse_frames": self._after_parse,
        }
        for layer, mod, name, kind, needed_by in ENTRY_POINTS:
            qualname = f"{mod}.{name}"
            fn = _lookup(modules[mod], name, qualname)
            advance = name == "build_histogram"
            wrapped = self._wrap(layer, kind, fn, qualname, advance, hooks.get(name))
            setattr(modules[mod], name, wrapped)
            if needed_by is None or needed_by in self.uses:
                self.required.append(qualname)

        tracker_cls = _lookup(modules["track_manager"], "Tracker", "Tracker")
        step = _lookup(tracker_cls, "step", "Tracker.step")
        tracker_cls.step = self._wrap(
            "track_manager", "step", step, "Tracker.step", True, self._after_step
        )

        cli = modules["cli"]
        path_cls = type(_lookup(cli, "Path", "cli.Path")())
        read = self._wrap(
            "raw_ingest", "run", path_cls.read_bytes, "cli.Path.read_bytes", False, None
        )
        cli.Path = type("TracedPath", (path_cls,), {"read_bytes": read})
        self.required += ["Tracker.step", "cli.Path.read_bytes"]

    def check_called(self) -> None:
        idle = [q for q in self.required if not self.calls[q]]
        if idle:
            raise TraceError(f"entry points never called: {', '.join(idle)}")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, kind, fn, qualname, advance, after):
        tracer = self

        def traced(*args, **kwargs):
            if advance:
                tracer.index[kind] += 1
            idx = tracer.index[kind]
            stack = tracer._stack()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dur
                acc = tracer.spans[layer].setdefault(idx, [0.0, 0.0, 0, t0])
                acc[0] += dur
                acc[1] += dur - nested
                acc[2] += 1
                tracer.calls[qualname] += 1
            if after is not None:
                after(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # counters, taken outside the timed span

    def _after_histogram(self, idx, args, grid):
        counts = grid.counts
        self.counts["photons"][idx] = int(counts.sum())
        self.counts["occupied"][idx] = int((counts > 0).sum())
        self.counts["voxels"][idx] = int(counts.size)

    def _after_denoise(self, idx, args, result):
        self.counts["mask"][idx] = int(result[0].sum())

    def _after_label(self, idx, args, result):
        self.counts["components"][idx] = int(result[1])

    def _after_truncate(self, idx, args, result):
        self.counts["kept"][idx] = len(result)

    def _after_matrix(self, idx, args, matrix):
        self.counts["pairs"][idx] += int(matrix.scores.size)
        self.counts["offered"][idx] += int(matrix.scores.shape[1])

    def _after_matches(self, idx, args, matches):
        self.counts["matches"][idx] += len(matches.fw)

    def _after_parse(self, idx, args, frames):
        self.counts["bytes"][idx] += len(args[0])

    def _after_step(self, idx, args, kept):
        self.counts["live"][idx] = len(kept)

    def summary(self, emit_end: list[float]) -> dict:
        """Per-layer metrics; ``emit_end[n]`` is when the caller's
        handling of step n's record returned."""
        n_steps = self.index["step"] + 1
        n_groups = self.index["group"] + 1
        if n_steps < 2 or len(emit_end) != n_steps:
            raise TraceError(
                f"{n_steps} tracker steps for {len(emit_end)} emitted records"
            )

        def per(layer, n, field=0):
            spans = self.spans[layer]
            return [spans[i][field] if i in spans else 0.0 for i in range(n)]

        def ms(values):
            return 1e3 * median(values)

        def ratio(num, den, n):
            vals = [num[i] / den[i] for i in range(n) if den[i]]
            return median(vals) if vals else 0.0

        counts = self.counts
        g, s = n_groups, n_steps
        step_start = [self.spans["track_manager"][i][3] for i in range(s)]
        step_dur = per("track_manager", s)
        projection = per("outputs.projection", s)
        wait = [step_start[n] - emit_end[n - 1] for n in range(1, s)]
        interval = sum(emit_end[n] - emit_end[n - 1] for n in range(1, s))
        covered = sum(wait) + sum(step_dur[1:]) + sum(projection[1:])
        run = self.spans
        out = {
            "raw_ingest.s": run["raw_ingest"][0][0],
            "raw_ingest.bytes": counts["bytes"][0],
            "voxelizer.ms": ms(per("voxelizer", g)),
            "voxelizer.photons": median(counts["photons"][i] for i in range(g)),
            "voxelizer.occupancy": ratio(counts["occupied"], counts["voxels"], g),
            "denoise.ms": ms(per("denoise", g)),
            "denoise.mask_voxels": median(counts["mask"][i] for i in range(g)),
            "denoise.keep_ratio": ratio(counts["mask"], counts["occupied"], g),
            "labeling.label_ms": ms(per("labeling.label", g)),
            "labeling.extract_ms": ms(per("labeling.extract", g)),
            "labeling.rank_ms": ms(per("labeling.rank", g)),
            "labeling.components": median(counts["components"][i] for i in range(g)),
            "labeling.kept_ratio": ratio(counts["kept"], counts["components"], g),
            "association.ms": ms(per("association", s)),
            "association.pairs": median(counts["pairs"][i] for i in range(s)),
            "association.match_ratio": ratio(counts["matches"], counts["offered"], s),
            "kalman.ms": ms(per("kalman", s)),
            "kalman.calls": median(per("kalman", s, 2)),
            "features.ms": ms(per("features", s)),
            "features.calls": median(per("features", s, 2)),
            "track_manager.step_ms": ms(step_dur),
            "track_manager.self_ms": ms(per("track_manager", s, 1)),
            "pipeline.handoff_wait_ms": ms(wait),
            "outputs.write_ms": 1e3 * run["outputs.write"][0][0],
            "outputs.projection_ms": ms(projection),
            "trace.coverage": covered / interval,
            "share.handoff_wait": sum(wait) / interval,
        }
        for layer in SHARE_LAYERS:
            self_times = per(layer, g if layer in _FRONT_END else s, 1)
            out[f"share.{layer}"] = sum(self_times[1:]) / interval
        return out


_FRONT_END = {
    layer for layer, _, _, kind, _ in ENTRY_POINTS if kind == "group"
}


def _lookup(owner, name, qualname):
    try:
        return getattr(owner, name)
    except AttributeError:
        raise TraceError(f"entry point {qualname} is missing") from None
