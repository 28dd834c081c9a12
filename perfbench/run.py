"""Benchmark of `photontrack track` on simulated captures.

    python3 perfbench/run.py --workload crossing --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One workload per call; ``--workload all`` runs every workload untraced
and traced and prints one table.  The capture is simulated from the
seed and cached under perfbench/_work, outside every timing.  Each run
of `track` is a fresh child process (closed loop, one at a time).

Untraced (``--trace 0``): five probe runs that stop at the first step,
then full runs until ``--seconds`` is used up and at least 100 step
gaps are timed.  They give the end-to-end metrics:

  groups_per_s   groups / wall time of a full run, from before photontrack
                 is imported until `main` returns (median over runs)
  step_ms_p50/90 gaps between consecutive emitted StepRecords, first step
                 excluded, pooled over the full runs
  setup_s        start to the first StepRecord (median over all runs)
  peak_rss_mb    ru_maxrss of the child (median over full runs)
  mot_recall, mot_precision, motp_vox, and id_kept_ratio = 1 - ID
                 switches / matches: CLEAR MOT scores (mot.py) of
                 tracks.csv against the simulator's truth
  pass_ratio     runs passing every output check / runs attempted

MOTA, ID switches and the fail ratio are printed beside them but not
reported as gated metrics: bounds are shares of the parent's median,
and these read 0 (ID switches, failures) or below 0 (MOTA is about -3
on clutter, where noise tracks fill 8 of the 10 rows a step).

Traced (``--trace 1``): one untraced reference run, then one run with
spans around each module's entry points (tracer.py), giving the
per-layer metrics.  Every run's outputs are checked; the last stdout
line is the JSON result.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import mot
from workloads import CONFIG, DEMO_SCENE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference_outputs.json"  # sha256 at the seed commit

PROBES = 5  # setup-only runs per untraced run
MIN_GAPS = 100  # step gaps per untraced run, so >= 10 lie beyond the p90
CHILD_TIMEOUT = 150  # seconds, for capture generation
RUN_LIMIT = 170  # seconds a single-workload run may take in all
KEEP_CAPTURES = 3

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Run:
    """One child run of `track` and what its checks found; a full or
    traced run also keeps its outputs' sha256 and CLEAR MOT score."""

    result: dict | None
    problems: list[str]
    out_dir: Path
    hashes: tuple[str, str] | None = None
    score: mot.MotScore | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def setup_s(self) -> float:
        return self.result["stamps"][0] - self.result["t_start"]

    @property
    def wall_s(self) -> float:
        return self.result["t_end"] - self.result["t_start"]

    @property
    def main_s(self) -> float:
        return self.result["t_end"] - self.result["t_main"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ensure_capture(family: str, seed: int) -> Path:
    """Simulate (or reuse) the capture for ``family`` and ``seed``."""
    captures = WORK / "captures"
    target = captures / f"{family}-{seed}"
    if (target / "done").exists():
        (target / "done").touch()
        return target
    captures.mkdir(parents=True, exist_ok=True)
    old = sorted(
        (d for d in captures.iterdir() if (d / "done").exists()),
        key=lambda d: (d / "done").stat().st_mtime,
    )
    for d in old[: max(0, len(old) - KEEP_CAPTURES + 1)]:
        shutil.rmtree(d)
    partial = captures / f"{family}-{seed}.partial"
    shutil.rmtree(partial, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "gen", str(ROOT), family,
         str(seed), str(partial)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"capture generation failed: {proc.stderr.strip()}")
    (partial / "done").touch()
    shutil.rmtree(target, ignore_errors=True)
    partial.rename(target)
    return target


def run_track(workload, capture: Path, mode: str, truth: dict, deadline: float) -> Run:
    out_dir = WORK / "out" / f"{workload.name}-{mode}"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = WORK / "out" / f"{workload.name}-{mode}.json"
    result_path.unlink(missing_ok=True)
    argv = [
        sys.executable, str(HERE / "child.py"), "track", str(ROOT), mode,
        str(result_path), ",".join(workload.uses), "--",
        "track", "--raw", str(capture / "capture.raw"),
        "--config", str(ROOT / CONFIG), "--out-dir", str(out_dir),
        *workload.track_args,
    ]
    timeout = deadline - time.monotonic()
    out_of_time = f"{workload.name}: out of time at a {mode} run"
    if timeout <= 0:
        raise BenchError(out_of_time)
    try:
        proc = subprocess.run(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=None if math.isinf(timeout) else timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(out_of_time) from None
    if "TraceError" in proc.stderr:
        raise BenchError(proc.stderr.strip().splitlines()[-1])
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return Run(None, [f"{mode} run failed: {tail[0]}"], out_dir)
    run = Run(json.loads(result_path.read_text()), [], out_dir)
    if run.result["rc"] != 0:
        run.problems.append(f"track exited {run.result['rc']}")
    elif mode == "probe":
        if len(run.result["stamps"]) != 1:
            run.problems.append("probe did not stop at the first step")
    else:
        run.problems += check_outputs(out_dir, run.result, len(truth))
        run.hashes = sha256(out_dir / "tracks.csv"), sha256(out_dir / "links.csv")
        run.score = mot.score(truth, mot.read_tracks_csv(out_dir / "tracks.csv"))
    return run


def check_outputs(out_dir: Path, result: dict, n_groups: int) -> list[str]:
    """The invariants every `track` output must keep."""
    problems = []
    if len(result["stamps"]) != n_groups:
        problems.append(f"{len(result['stamps'])} steps for {n_groups} groups")
    rows_per_step = [0] * n_groups
    ids: set = set()
    with open(out_dir / "tracks.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            step = int(row["step"])
            if not 0 <= step < n_groups:
                problems.append(f"track row at step {step}")
                continue
            rows_per_step[step] += 1
            key = (step, int(row["track_id"]))
            if key in ids:
                problems.append(f"duplicate track_id {key[1]} at step {step}")
            ids.add(key)
            if int(row["bad_count"]) > result["max_coast"]:
                problems.append(f"bad_count above max_coast at step {step}")
    over = [s for s, n in enumerate(rows_per_step) if n > result["t_max"]]
    if over:
        problems.append(f"more than t_max rows at steps {over[:5]}")
    sources: set = set()
    targets: set = set()
    with open(out_dir / "links.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            step, a, b = int(row["step"]), int(row["old_slot"]), int(row["new_slot"])
            if not (0 <= step < n_groups - 1 and 0 <= a < rows_per_step[step]
                    and 0 <= b < rows_per_step[step + 1]):
                problems.append(f"link {step},{a},{b} points at a missing slot")
            elif (step, a) in sources or (step, b) in targets:
                problems.append(f"link {step},{a},{b} is not one-to-one")
            sources.add((step, a))
            targets.add((step, b))
    return problems


def read_truth(capture: Path) -> dict:
    """Live truth targets per step; their number must hold steady."""
    truth = mot.read_truth_csv(capture / "truth.csv")
    alive = {len(objs) for objs in truth.values()}
    if len(alive) != 1 or 0 in alive:
        raise BenchError(f"live truth targets vary across the run: {sorted(alive)}")
    return truth


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def completed(runs: list[Run]) -> list[Run]:
    """Runs whose `track` exited 0, whatever their output checks said."""
    done = [r for r in runs if r.result and r.result["rc"] == 0]
    if not done:
        raise BenchError("; ".join(p for r in runs for p in r.problems))
    return done


def untraced(workload, capture: Path, seconds: float, deadline: float):
    truth = read_truth(capture)
    start = time.monotonic()
    runs = [
        run_track(workload, capture, "probe", truth, deadline)
        for _ in range(PROBES)
    ]
    full: list[Run] = []
    while True:
        full.append(run_track(workload, capture, "full", truth, deadline))
        done = completed(full)
        timed = sum(len(r.result["stamps"]) - 1 for r in done)
        typical = statistics.median(r.wall_s for r in done)
        if timed >= MIN_GAPS and time.monotonic() - start + typical > seconds:
            break
    runs += full
    done = completed(full)
    if len({r.hashes for r in done}) > 1:
        done[-1].problems.append("outputs differ between identical runs")
    gaps = [
        1e3 * (b - a)
        for r in done
        for a, b in zip(r.result["stamps"], r.result["stamps"][1:])
    ]
    score = done[-1].score
    failed = sum(not r.ok for r in runs)
    metrics = {
        "groups_per_s": statistics.median(len(truth) / r.wall_s for r in done),
        "step_ms_p50": statistics.median(gaps),
        "step_ms_p90": percentile(gaps, 90),
        "setup_s": statistics.median(r.setup_s for r in completed(runs)),
        "peak_rss_mb": statistics.median(r.result["maxrss_kb"] / 1024 for r in done),
        "mot_recall": score.recall,
        "mot_precision": score.precision,
        "motp_vox": score.motp,
        "id_kept_ratio": 1.0 - score.id_switches / score.matches,
        "pass_ratio": 1.0 - failed / len(runs),
    }
    notes = {
        "mota": (score.mota, "ratio"),
        "id_switches": (score.id_switches, "count"),
        "fail_ratio": (failed / len(runs), "ratio"),
        "step_gaps": (len(gaps), "count"),
        "full_runs": (len(done), "count"),
    }
    check_names(metrics, END_TO_END)
    return runs, metrics, notes, done[-1].hashes


def traced(workload, capture: Path, deadline: float):
    truth = read_truth(capture)
    ref = run_track(workload, capture, "full", truth, deadline)
    traced_run = run_track(workload, capture, "trace", truth, deadline)
    runs = [ref, traced_run]
    if len(completed(runs)) < len(runs):
        raise BenchError("; ".join(p for r in runs for p in r.problems))
    if traced_run.hashes != ref.hashes:
        traced_run.problems.append("traced outputs differ from the untraced run")
    score = ref.score
    hyps = mot.read_tracks_csv(traced_run.out_dir / "tracks.csv")
    births = len({track for tracks in hyps.values() for track in tracks})
    live = len(hyps.get(len(truth) - 1, ()))
    layers = dict(traced_run.result["layers"])
    layers.update({
        "track_manager.live": live,
        "track_manager.births": births,
        "track_manager.drops": births - live,
        "outputs.bytes": sum(
            p.stat().st_size for p in traced_run.out_dir.iterdir()
        ),
        "trace.overhead_ratio": traced_run.main_s / ref.main_s,
        "mot.mota": score.mota,
        "mot.id_switches": score.id_switches,
        "mot.misses": score.misses,
        "mot.false_positives": score.false_positives,
        "checks.fail_ratio": sum(not r.ok for r in runs) / len(runs),
    })
    check_names(layers, PER_LAYER)
    return runs, layers, ref.hashes


def check_names(metrics: dict, declared: list[str]) -> None:
    if set(metrics) != set(declared):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}"
        )


def print_trace_summary(name: str, layers: dict) -> None:
    shares = {k: v for k, v in layers.items() if k.startswith("share.")}
    print(f"[{name}] self-time share of traced step time (front end runs on "
          "its own thread, so shares can sum above 1):")
    for key, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {key[6:]:<22} {value:7.1%}")
    print(f"  {'handoff_wait_ms':<22} {layers['pipeline.handoff_wait_ms']:.3f}")
    coverage = layers["trace.coverage"]
    flag = "" if coverage >= 0.9 else "  << spans plus wait cover less than 90%"
    print(f"  coverage {coverage:.1%}{flag}")


def print_hashes(name: str, seed: int, hashes: tuple[str, str]) -> None:
    """Print the outputs' sha256 and whether they match the reference
    recorded for this workload and seed."""
    reference = json.loads(REFERENCE.read_text()).get(f"{name}/{seed}")
    if reference is None:
        verdict = "no reference recorded for this seed"
    elif reference == list(hashes):
        verdict = "byte-identical to the reference"
    else:
        verdict = "DIFFERENT from the reference"
    print(f"sha256 {name} seed {seed}: tracks.csv {hashes[0]} "
          f"links.csv {hashes[1]} ({verdict})")


def result_line(runs: list[Run], metrics: dict, units: dict) -> str:
    for run in runs:
        for problem in run.problems:
            print(f"check failed: {problem}")
    failed = sum(not r.ok for r in runs)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
    })


def bench_one(workload, seed: int, seconds: float, trace: bool) -> str:
    deadline = time.monotonic() + RUN_LIMIT
    capture = ensure_capture(workload.capture, seed)
    if trace:
        runs, metrics, hashes = traced(workload, capture, deadline)
        print_trace_summary(workload.name, metrics)
    else:
        runs, metrics, notes, hashes = untraced(workload, capture, seconds, deadline)
        for key, value in metrics.items():
            print(f"{key:<16} {value:.6g} {UNITS[key]}")
        for key, (value, unit) in notes.items():
            print(f"{key:<16} {value:.6g} {unit}")
    print_hashes(workload.name, seed, hashes)
    return result_line(runs, metrics, UNITS)


def bench_all(seed: int, seconds: float) -> str:
    """Every workload, untraced and traced, as one table."""
    all_runs: list[Run] = []
    metrics: dict = {}
    units: dict = {}
    for workload in WORKLOADS.values():
        capture = ensure_capture(workload.capture, seed)
        runs, e2e, notes, hashes = untraced(workload, capture, seconds, math.inf)
        t_runs, layers, _ = traced(workload, capture, math.inf)
        all_runs += runs + t_runs
        print_hashes(workload.name, seed, hashes)
        print_trace_summary(workload.name, layers)
        for key, value in {**e2e, **layers}.items():
            metrics[f"{workload.name}.{key}"] = value
            units[f"{workload.name}.{key}"] = UNITS[key]
        for key, (value, unit) in notes.items():
            metrics[f"{workload.name}.{key}"] = value
            units[f"{workload.name}.{key}"] = unit
    names = sorted({k.split(".", 1)[1] for k in metrics}, key=_metric_order)
    print(f"{'metric':<30}{'unit':>9}" + "".join(f"{w:>13}" for w in WORKLOADS))
    for name in names:
        unit = units[f"{next(iter(WORKLOADS))}.{name}"]
        cells = "".join(
            f"{metrics[f'{w}.{name}']:>13.6g}" for w in WORKLOADS
        )
        print(f"{name:<30}{unit:>9}{cells}")
    return result_line(all_runs, metrics, units)


def _metric_order(name: str):
    keys = END_TO_END + ["mota", "id_switches", "fail_ratio"]
    return (keys.index(name) if name in keys else len(keys), name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for needed in ("src/photontrack/cli.py", CONFIG, DEMO_SCENE):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    try:
        if args.workload == "all":
            line = bench_all(args.seed, args.seconds)
        else:
            line = bench_one(
                WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
