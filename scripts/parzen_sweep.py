"""Check Parzen denoising's seed windows against the shaped bound, and
time both.

    python scripts/parzen_sweep.py            # every group, with timings
    python scripts/parzen_sweep.py --quick    # 3 groups a capture, equality only
    python scripts/parzen_sweep.py --against CHECKOUT [--rounds N]

Simulates three captures with the public simulator API: the benchmark's
demo60 (seed 1), swarm (seed 3) and clutter (seed 1) scenes, built by
``perfbench/child.py``'s ``build_scene`` through ``scripts/_checkout.py``,
the module this script shares with ``ab_bench.py``.  Each capture is
denoised under ``parzen_threshold`` at sigmas (1, 1, 1), (2, 2, 2) and
(0.5, 1, 3), each with 8 threshold modes: 72 configurations.  Every
group is denoised on two sides, each chaining its threshold as a run
does: once as ``denoise`` does and once with the windows from the bound
alone (``_seed_windows`` patched to return ``None``).  The side that
runs first alternates from group to group.  The script exits 1, naming
the configuration and the group (its step), unless the masks and the
thresholds used are equal.  Without ``--quick`` it prints, for each
configuration, how many groups took the seed windows and each side's
mean milliseconds a group.

With ``--against``, the two sides are instead this checkout's
``denoise`` and the one in ``CHECKOUT/src/photontrack``, loaded under a
module name of its own, over ``--rounds`` rounds; the side that runs
first alternates from group to group and from round to round.  The
script exits 1 as above, and 2 when CHECKOUT holds no
``src/photontrack``.  It prints each side's median milliseconds a group
over the rounds, their ratio (this checkout over the other), the rounds
this checkout won and the other side's interquartile range, then the
geometric mean of the ratios.  The timings are noisy; the check takes
minutes, so it is no CI step.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import statistics
import sys
from pathlib import Path
from time import perf_counter
from unittest import mock

# _checkout puts this checkout's src/ and perfbench/ on the path
from _checkout import alternate, capture, load_package, photontrack, summary
from photontrack.denoise import Fixed, MovingAverage, PeakFraction

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


class Side:
    """Denoise each group under one Parzen config with ``package``'s
    ``denoise``, the threshold chained as in a run; with ``windows`` in
    place of its ``_seed_windows`` unless that is None."""

    def __init__(self, package, windows, mode, sigmas):
        module = package.denoise
        side_mode = getattr(module, type(mode).__name__)(**dataclasses.asdict(mode))
        self.cfg = module.DenoiseConfig(
            scheme=module.Scheme.PARZEN_THRESHOLD,
            threshold_mode=side_mode,
            sigmas=sigmas,
        )
        self.denoise, self.voxel_grid = module.denoise, package.voxelizer.VoxelGrid
        self.patch = contextlib.nullcontext()
        if windows is not None:
            self.patch = mock.patch.object(module, "_seed_windows", windows)
        self.t_prev = None

    def step(self, grid, ms: list[float]):
        """Denoise one group, adding its milliseconds to ``ms``; returns
        the mask's bytes and the threshold used."""
        grid = self.voxel_grid(grid.shape, grid.flat, grid.values)
        with self.patch:
            start = perf_counter()
            mask, self.t_prev = self.denoise(grid, self.cfg, self.t_prev)
            ms[0] += (perf_counter() - start) * 1e3
        return mask.tobytes(), self.t_prev


def counting(seeded: list[bool]):
    """``_seed_windows``, noting in ``seeded`` whether each call found
    windows."""
    seed_windows = photontrack.denoise._seed_windows

    def windows(*args):
        found = seed_windows(*args)
        seeded.append(found is not None)
        return found

    return windows


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
    own = args.against is None
    seeded: list[bool] = []
    if own:  # the seed windows against the bound alone, in one round
        packages, rounds = (photontrack, photontrack), 1
        windows = (counting(seeded), lambda *args: None)
        columns = f"{'seeded':>7} {'ms':>7} {'bound ms':>8} {'ratio':>6}"
    else:
        packages, rounds = (photontrack, load_package(args.against)), args.rounds
        windows = (None, None)
        columns = f"{'ms':>7} {'against':>7} {'ratio':>6} {'won':>5} {'IQR':>6}"
    if not args.quick:
        print(f"{'capture':<10} {'sigmas':<16} {'mode':<34} {columns}")
    ratios = []
    for family, seed in CAPTURES:
        groups, sensor = capture(family, seed, QUICK_GROUPS if args.quick else None)
        grids = [photontrack.build_histogram(group, sensor) for group in groups]
        for sigmas in SIGMAS:
            for mode in MODES:
                seeded.clear()
                (ms,), (other_ms,) = alternate(
                    lambda: [Side(*side, mode, sigmas) for side in zip(packages, windows)],
                    grids, rounds, f"{family}-{seed} {sigmas} {mode}",
                )
                if args.quick:
                    continue
                a, b, ratio, won, iqr = summary(ms, other_ms)
                row = f"{family}-{seed:<3} {str(sigmas):<16} {str(mode):<34} "
                if own:
                    row += f"{sum(seeded):>3}/{len(grids):<3} {a:7.2f} {b:8.2f} {ratio:6.2f}"
                else:
                    ratios.append(ratio)
                    row += f"{a:7.2f} {b:7.2f} {ratio:6.3f} {won:>2}/{rounds:<2} {iqr:6.2f}"
                print(row)
    if ratios:
        print(f"geometric mean ratio {statistics.geometric_mean(ratios):.3f}")
    n = len(CAPTURES) * len(SIGMAS) * len(MODES)
    print(f"{n} configurations: masks and thresholds equal on both "
          f"{'paths' if own else 'checkouts'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
