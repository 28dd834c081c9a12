"""Child processes of the benchmark; each run of `track` gets a fresh one
so that its memory peak and caches belong to it alone.

  child.py gen ROOT FAMILY SEED OUT_DIR
      simulate a capture; writes capture.raw and truth.csv
  child.py track ROOT MODE RESULT USES -- TRACK_ARGS...
      run `photontrack track` in-process with a step stamp chained onto
      its on_step; MODE is full, probe (stop at the first step) or
      trace (full, with per-layer spans); writes a JSON result
"""
from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# variants of scenes/crossing_demo.scene, as SceneSpec field overrides;
# group counts keep each workload's minimum of 100 timed step gaps short
DEMO_VARIANTS = {
    "demo": {},
    "demo60": {"n_groups": 60},  # the paths still cross, near step 48
    "clutter": {"noise_rate": 400.0, "n_groups": 35},
}
SWARM_TARGETS = 40
SWARM_GROUPS = 60


def import_photontrack(root: Path):
    """Import the checkout's photontrack and nothing installed elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import photontrack

    if Path(photontrack.__file__).resolve().parent != src / "photontrack":
        raise SystemExit(f"photontrack imported from outside {src}")
    return photontrack


def build_scene(pt, root: Path, family: str, seed: int):
    import dataclasses

    import numpy as np
    from workloads import DEMO_SCENE

    if family in DEMO_VARIANTS:
        scene, sensor = pt.load_scene(root / DEMO_SCENE)
        return dataclasses.replace(scene, seed=seed, **DEMO_VARIANTS[family]), sensor
    if family != "swarm":
        raise SystemExit(f"unknown capture family {family!r}")
    # a 7 x 6 lattice, 4 px apart, with 3 px margins: drifting at most
    # 0.015 px per step, no box leaves the 32 x 32 view within 100 steps
    rng = np.random.default_rng([seed, SWARM_TARGETS])
    depths = 60 + 12 * rng.permutation(SWARM_TARGETS)
    drift = rng.uniform(-0.015, 0.015, size=(SWARM_TARGETS, 2))
    targets = []
    for k in range(SWARM_TARGETS):
        x, y = 4.0 + 4.0 * (k % 7), 4.0 + 4.8 * (k // 7)
        targets.append(
            pt.TargetSpec(
                shape=(3, 3, 3),
                start=(x, y, float(depths[k])),
                reflectivity=2.0,
                velocity_segments=((0, (drift[k, 0], drift[k, 1], 0.0)),),
            )
        )
    scene = pt.SceneSpec(
        targets=tuple(targets), noise_rate=50.0, n_groups=SWARM_GROUPS, seed=seed
    )
    return scene, pt.SensorConfig()


def cmd_gen(root: Path, family: str, seed: int, out_dir: Path) -> None:
    pt = import_photontrack(root)
    from photontrack.outputs import write_truth_csv

    scene, sensor = build_scene(pt, root, family, seed)
    frames, truth = pt.simulate(scene, sensor)
    out_dir.mkdir(parents=True, exist_ok=True)
    pt.write_raw(frames, out_dir / "capture.raw")
    write_truth_csv(truth, out_dir / "truth.csv")


class ProbeDone(Exception):
    """Raised at the first step of a probe run."""


def cmd_track(root: Path, mode: str, result_path: Path, uses, argv) -> int:
    import_photontrack(root)
    from photontrack import cli, pipeline, track_manager

    stamps: list[float] = []
    emit_end: list[float] = []
    seen: dict = {}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(uses)
        tracer.install(
            {"cli": cli, "pipeline": pipeline, "track_manager": track_manager}
        )

    run_tracking = cli.run_tracking

    def stamped_run_tracking(data, cfg, *args, on_step=None, **kwargs):
        seen["t_max"] = cfg.tracker.t_max
        seen["max_coast"] = cfg.tracker.max_coast

        def stamp(rec):
            stamps.append(perf_counter())
            if mode == "probe":
                raise ProbeDone
            if on_step is not None:
                on_step(rec)
            emit_end.append(perf_counter())

        return run_tracking(data, cfg, *args, on_step=stamp, **kwargs)

    cli.run_tracking = stamped_run_tracking
    t_main = perf_counter()
    try:
        rc = cli.main(argv)
    except ProbeDone:
        rc = 0
    t_end = perf_counter()
    result = {
        "rc": rc,
        "t_start": T_START,
        "t_main": t_main,
        "t_end": t_end,
        "stamps": stamps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **seen,
    }
    if tracer is not None and rc == 0:
        tracer.check_called()
        result["layers"] = tracer.summary(emit_end)
    result_path.write_text(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    cmd, root = argv[0], Path(argv[1])
    if cmd == "gen":
        cmd_gen(root, argv[2], int(argv[3]), Path(argv[4]))
        return 0
    if cmd == "track":
        sep = argv.index("--")
        mode, result, uses = argv[2], Path(argv[3]), argv[4]
        return cmd_track(
            root, mode, result, [u for u in uses.split(",") if u], argv[sep + 1 :]
        )
    raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
