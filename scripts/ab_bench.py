"""Time this checkout's pipeline stages against another checkout's, in
one process, and check that both track alike.

    python scripts/ab_bench.py --against CHECKOUT [--rounds N] [--seed S]

Builds the capture of each benchmark workload (crossing, parzen, swarm
and clutter, from ``perfbench/workloads.py``) once, with
``perfbench/child.py``'s ``build_scene`` and the simulator.  Each side,
this checkout and the ``src/photontrack`` of CHECKOUT (loaded under a
module name of its own), builds its config from its own
``cli.parse_config`` of ``configs/default.cfg`` and the workload's
``--set`` overrides, and tracks every group with its own tracker: the
front end (histogram, denoise, label), extract+rank (extract, sort,
truncate) and ``Tracker.step``.  The side that runs a group first
alternates from group to group and from round to round.

The script exits 1 at the first step whose tracks (id, state, bad
count, feature bits) or backward links differ between the sides.
Otherwise it prints, for each workload and stage, each side's median
milliseconds a group over the ``--rounds`` rounds, their ratio (this
checkout over the other), the rounds this checkout won and the other
side's interquartile range, then the whole step's row and, last, the
geometric mean of the workloads' step ratios.  The timings are noisy
and a run of many rounds takes minutes, so CI runs one round against
this checkout itself (``--against . --rounds 1 --seed 1``) and gates
only the exit code.
"""
from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))  # child.build_scene imports workloads

import child  # noqa: E402
import photontrack  # noqa: E402
from _checkout import load_package  # noqa: E402
from workloads import CONFIG, WORKLOADS  # noqa: E402

NAMES = ("crossing", "parzen", "swarm", "clutter")
STAGES = ("front end", "extract+rank", "Tracker.step", "step")


def overrides(track_args) -> list[str]:
    """The ``KEY=VALUE`` of each ``--set`` among ``track_args``."""
    return [v for flag, v in zip(track_args, track_args[1:]) if flag == "--set"]


class Side:
    """One checkout's stages, config and tracker for one run."""

    def __init__(self, package, sets: list[str]):
        cli = importlib.import_module(f"{package.__name__}.cli")
        self.pipeline = package.pipeline
        self.cfg = cli.parse_config((ROOT / CONFIG).read_text(), sets)
        self.tracker = package.pipeline.Tracker(self.cfg.tracker)
        self.t_prev = None

    def step(self, frames, ms: list[float]):
        """Track one group, adding each stage's milliseconds to ``ms``;
        returns the step's record as comparable plain values."""
        p, cfg = self.pipeline, self.cfg
        t0 = perf_counter()
        grid = p.build_histogram(frames, cfg.sensor)
        mask, self.t_prev = p.denoise(grid, cfg.denoise, self.t_prev)
        labels, _ = p.label_components(mask, cfg.connectivity)
        t1 = perf_counter()
        candidates = p.extract_observations(labels, grid)
        candidates = p.importance_sort(candidates, cfg.tracker.importance)
        candidates = p.truncate_targets(candidates, cfg.tracker.t_max)
        t2 = perf_counter()
        self.tracker.step(candidates)
        t3 = perf_counter()
        for n, t in enumerate((t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
            ms[n] += t * 1e3
        # by iteration, so an older checkout whose ring is not a
        # sequence can be the other side
        record = list(self.tracker.ring)[-1]
        tracks = [
            (t.track_id, t.state.value, t.bad_count, np.array(t.features).tobytes())
            for t in record.tracks
        ]
        return tracks, record.bwlink


def run_rounds(name: str, groups, packages, rounds: int):
    """Track every group on both sides in each round; returns each
    side's milliseconds a group per stage, one list of rounds each, or
    exits 1 at the first step where the sides differ."""
    sets = overrides(WORKLOADS[name].track_args)
    ms = [[[] for _ in STAGES] for _ in packages]
    for r in range(rounds):
        sides = [Side(p, sets) for p in packages]
        totals = [[0.0] * len(STAGES) for _ in packages]
        for i, frames in enumerate(groups):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            records = [None, None]
            for s in order:
                records[s] = sides[s].step(frames, totals[s])
            if records[0] != records[1]:
                sys.exit(f"{name}, round {r}, step {i}: the two checkouts differ")
        for s, total in enumerate(totals):
            for n, t in enumerate(total):
                ms[s][n].append(t / len(groups))
    return ms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against",
        type=Path,
        metavar="CHECKOUT",
        required=True,
        help="the checkout whose src/photontrack to compare with",
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="alternating rounds (default 5)"
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="the captures' seed (default 1)"
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    packages = (photontrack, load_package(args.against))
    print(f"{'workload':<9} {'stage':<13} {'ms':>7} {'against':>7} "
          f"{'ratio':>6} {'won':>5} {'IQR':>6}")
    step_ratios = []
    for name in NAMES:
        scene, sensor = child.build_scene(
            photontrack, ROOT, WORKLOADS[name].capture, args.seed
        )
        frames, _ = photontrack.simulate(scene, sensor)
        groups = list(photontrack.group_frames(frames, sensor))
        ms, other_ms = run_rounds(name, groups, packages, args.rounds)
        for stage, mine, theirs in zip(STAGES, ms, other_ms):
            a, b = statistics.median(mine), statistics.median(theirs)
            won = sum(x < y for x, y in zip(mine, theirs))
            q = statistics.quantiles(theirs, n=4) if len(theirs) > 1 else [b] * 3
            print(f"{name:<9} {stage:<13} {a:7.3f} {b:7.3f} {a / b:6.3f} "
                  f"{won:>2}/{args.rounds:<2} {q[2] - q[0]:6.3f}")
        step_ratios.append(statistics.median(ms[-1]) / statistics.median(other_ms[-1]))
        print(f"{name}: {len(groups)} steps equal in each of {args.rounds} rounds")
    print(f"geometric mean step ratio {statistics.geometric_mean(step_ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
