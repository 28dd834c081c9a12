"""The in-process A/B loop that the comparison scripts share: another
checkout's ``photontrack`` imported beside this one's, a benchmark
capture, the rounds that run both sides in alternating order and check
that they agree, and the summary row of both sides' timings."""
from __future__ import annotations

import dataclasses
import importlib.util
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))  # child.build_scene imports workloads

import child  # noqa: E402
import photontrack  # noqa: E402


def load_package(checkout: Path):
    """The ``src/photontrack`` package of another checkout, imported as
    ``photontrack_against`` so that it sits beside this one's; exits 2
    when the checkout has none."""
    package = Path(checkout).resolve() / "src" / "photontrack"
    init = package / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found: not a photontrack checkout", file=sys.stderr)
        raise SystemExit(2)
    spec = importlib.util.spec_from_file_location(
        "photontrack_against", init, submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def capture(family: str, seed: int, groups: int | None = None):
    """The frame groups and the sensor of a benchmark capture, built by
    ``perfbench/child.py`` and simulated by this checkout; the first
    ``groups`` only when given (and only those are simulated)."""
    scene, sensor = child.build_scene(photontrack, ROOT, family, seed)
    if groups is not None:
        scene = dataclasses.replace(scene, n_groups=min(groups, scene.n_groups))
    frames, _ = photontrack.simulate(scene, sensor)
    return list(photontrack.group_frames(frames, sensor)), sensor


def alternate(make_sides, items, rounds: int, label: str, stages: int = 1):
    """Run every item on both sides of ``make_sides()``, made afresh
    each round, by ``side.step(item, ms)``, which adds each stage's
    milliseconds to ``ms`` and returns a comparable result.  The side
    that runs first alternates from item to item and from round to
    round.  Exits 1 at the first item whose results differ; returns
    each side's milliseconds an item per stage, one list of rounds each.
    """
    ms = [[[] for _ in range(stages)] for _ in range(2)]
    for r in range(rounds):
        sides, totals = make_sides(), [[0.0] * stages, [0.0] * stages]
        for i, item in enumerate(items):
            results = [None, None]
            for s in (0, 1) if (r + i) % 2 == 0 else (1, 0):
                results[s] = sides[s].step(item, totals[s])
            if results[0] != results[1]:
                sys.exit(f"{label}, round {r}, step {i}: the two sides differ")
        for side, total in zip(ms, totals):
            for rounds_ms, t in zip(side, total):
                rounds_ms.append(t / len(items))
    return ms


def summary(mine: list[float], theirs: list[float]):
    """Both sides' median, their ratio (mine over theirs), the rounds
    ``mine`` won and the interquartile range of ``theirs`` (0 for one
    round)."""
    a, b = statistics.median(mine), statistics.median(theirs)
    won = sum(x < y for x, y in zip(mine, theirs))
    q = statistics.quantiles(theirs, n=4) if len(theirs) > 1 else [b] * 3
    return a, b, a / b, won, q[2] - q[0]
