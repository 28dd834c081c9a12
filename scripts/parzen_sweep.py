"""Check Parzen denoising's seed windows against the shaped bound, and
time both.

    python scripts/parzen_sweep.py            # every group, with timings
    python scripts/parzen_sweep.py --quick    # 3 groups a capture, equality only
    python scripts/parzen_sweep.py --against CHECKOUT [--rounds N]

Simulates three captures with the public simulator API: the benchmark's
demo60 (seed 1), swarm (seed 3) and clutter (seed 1) scenes, built by
``perfbench/child.py``'s ``build_scene``.  Each capture is denoised
under ``parzen_threshold`` at sigmas (1, 1, 1), (2, 2, 2) and
(0.5, 1, 3), each with 8 threshold modes: 72 configurations.  Every
group is denoised twice, once as ``denoise`` does and once with the
windows from the bound alone; the script fails unless the masks and
the thresholds used are equal.  Without ``--quick`` it prints, for each
configuration, how many groups took the seed windows and each path's
median milliseconds a group.

With ``--against``, every group is denoised instead by this checkout's
``denoise`` and by the one in ``CHECKOUT/src/photontrack``, loaded under
a module name of its own, in alternating order over ``--rounds``
rounds; the script fails unless the masks and the thresholds used are
equal.  It prints each side's median milliseconds a group over the
rounds, their ratio (this checkout over the other), the rounds this
checkout won and the other side's interquartile range, then the
geometric mean of the ratios.  The timings are noisy; the check takes
minutes, so it is no CI step.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))  # child.build_scene imports workloads

import photontrack  # noqa: E402
import photontrack.denoise as denoise_module  # noqa: E402
from _checkout import load_package  # noqa: E402
from photontrack.denoise import (  # noqa: E402
    DenoiseConfig,
    Fixed,
    MovingAverage,
    PeakFraction,
    Scheme,
)

CAPTURES = (("demo60", 1), ("swarm", 3), ("clutter", 1))
SIGMAS = ((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (0.5, 1.0, 3.0))
MODES = (
    Fixed(0.0),
    Fixed(0.5),
    Fixed(1.0),
    Fixed(2.0),
    Fixed(3.0),
    PeakFraction(0.5),
    PeakFraction(0.2),
    MovingAverage(),
)
QUICK_GROUPS = 3


def build_scene(family: str, seed: int):
    path = ROOT / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.build_scene(photontrack, ROOT, family, seed)


def capture_grids(family: str, seed: int, groups: int | None):
    """The histogram of each group of the capture, the first ``groups``
    only when given (and only those are simulated)."""
    scene, sensor = build_scene(family, seed)
    if groups is not None:
        scene = dataclasses.replace(scene, n_groups=min(groups, scene.n_groups))
    frames, _ = photontrack.simulate(scene, sensor)
    return [
        photontrack.build_histogram(group, sensor)
        for group in photontrack.group_frames(frames, sensor)
    ]


def timed(cfg, grid, t_prev, bound: bool):
    """``denoise``'s mask, threshold and milliseconds, with the windows
    from the bound alone when ``bound``."""
    patch = mock.patch.object(denoise_module, "_seed_windows", lambda *args: None)
    with patch if bound else contextlib.nullcontext():
        start = perf_counter()
        mask, t_used = denoise_module.denoise(grid, cfg, t_prev)
        return mask, t_used, (perf_counter() - start) * 1e3


def sweep(grids, cfg):
    """Denoise every group on both paths, the threshold chained as in a
    run; returns how many groups took the seed windows and each path's
    milliseconds a group."""
    kernels = denoise_module._kernels(cfg.sigmas, cfg.kernel_radius_factor)
    seeded, ms = 0, {False: [], True: []}
    t_prev = None
    for i, grid in enumerate(grids):
        t_low = denoise_module._lowest_level(grid, kernels, cfg.threshold_mode, t_prev)
        seeded += denoise_module._seed_windows(grid, kernels, t_low) is not None
        # alternate which path runs first, so neither always finds the
        # other's arrays in cache
        results = {}
        for bound in (i % 2 == 1, i % 2 == 0):
            *results[bound], t = timed(cfg, grid, t_prev, bound)
            ms[bound].append(t)
        (mask, t_used), (want, want_t) = results[False], results[True]
        if not (np.array_equal(mask, want) and t_used == want_t):
            raise SystemExit(f"{cfg}, group {i}: the seed windows change the result")
        t_prev = t_used
    return seeded, ms[False], ms[True]


def side_of(package, mode, sigmas):
    """``package``'s ``denoise``, its config for ``mode`` and ``sigmas``
    built from its own classes, and its ``VoxelGrid``."""
    module = package.denoise
    side_mode = getattr(module, type(mode).__name__)(**dataclasses.asdict(mode))
    cfg = module.DenoiseConfig(
        scheme=module.Scheme.PARZEN_THRESHOLD, threshold_mode=side_mode, sigmas=sigmas
    )
    return module.denoise, cfg, package.voxelizer.VoxelGrid


def against(grids, sides, rounds: int, label: str):
    """Denoise every group on both sides, the threshold chained as in a
    run and the side that runs first alternating from round to round;
    returns each side's milliseconds a group in each round."""
    ms = [[], []]
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        total, t_prev = [0.0, 0.0], [None, None]
        for i, grid in enumerate(grids):
            results = [None, None]
            for s in order:
                denoise, cfg, voxel_grid = sides[s]
                side_grid = voxel_grid(grid.shape, grid.flat, grid.values)
                start = perf_counter()
                results[s] = denoise(side_grid, cfg, t_prev[s])
                total[s] += perf_counter() - start
                t_prev[s] = results[s][1]
            (mask, t_used), (want, want_t) = results
            if not (np.array_equal(mask, want) and t_used == want_t):
                raise SystemExit(f"{label}, group {i}: the two checkouts differ")
        for s in (0, 1):
            ms[s].append(total[s] / len(grids) * 1e3)
    return ms


def compare(checkout: Path, rounds: int, groups: int | None, quick: bool) -> int:
    other = load_package(checkout)
    if not quick:
        print(f"{'capture':<10} {'sigmas':<16} {'mode':<34} "
              f"{'ms':>7} {'against':>7} {'ratio':>6} {'won':>5} {'IQR':>6}")
    n, ratios = 0, []
    for family, seed in CAPTURES:
        grids = capture_grids(family, seed, groups)
        for sigmas in SIGMAS:
            for mode in MODES:
                label = f"{family}-{seed} {sigmas} {mode}"
                sides = [side_of(p, mode, sigmas) for p in (photontrack, other)]
                ms, other_ms = against(grids, sides, rounds, label)
                n += 1
                if quick:
                    continue
                a, b = statistics.median(ms), statistics.median(other_ms)
                won = sum(x < y for x, y in zip(ms, other_ms))
                q = statistics.quantiles(other_ms, n=4) if rounds > 1 else [b, b, b]
                ratios.append(a / b)
                print(f"{family}-{seed:<3} {str(sigmas):<16} {str(mode):<34} "
                      f"{a:7.2f} {b:7.2f} {a / b:6.3f} {won:>2}/{rounds:<2} "
                      f"{q[2] - q[0]:6.2f}")
    if ratios:
        print(f"geometric mean ratio {statistics.geometric_mean(ratios):.3f}")
    print(f"{n} configurations: masks and thresholds equal on both checkouts")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"simulate {QUICK_GROUPS} groups a capture and check equality only",
    )
    parser.add_argument(
        "--against",
        type=Path,
        metavar="CHECKOUT",
        help="compare with the denoise of another checkout instead",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=8,
        help="alternating rounds of each configuration under --against (default 8)",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    groups = QUICK_GROUPS if args.quick else None
    if args.against is not None:
        return compare(args.against, args.rounds, groups, args.quick)
    if not args.quick:
        print(f"{'capture':<10} {'sigmas':<16} {'mode':<34} "
              f"{'seeded':>7} {'ms':>7} {'bound ms':>8} {'ratio':>6}")
    n = 0
    for family, seed in CAPTURES:
        grids = capture_grids(family, seed, groups)
        for sigmas in SIGMAS:
            for mode in MODES:
                cfg = DenoiseConfig(
                    scheme=Scheme.PARZEN_THRESHOLD, threshold_mode=mode, sigmas=sigmas
                )
                seeded, ms, bound_ms = sweep(grids, cfg)
                n += 1
                if not args.quick:
                    a, b = statistics.median(ms), statistics.median(bound_ms)
                    print(f"{family}-{seed:<3} {str(sigmas):<16} {str(mode):<34} "
                          f"{seeded:>3}/{len(grids):<3} {a:7.2f} {b:8.2f} {a / b:6.2f}")
    print(f"{n} configurations: masks and thresholds equal on both paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
