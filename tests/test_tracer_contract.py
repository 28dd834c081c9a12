"""The benchmark's tracer still finds and sees called every entry point
it times.

``perfbench/tracer.py`` wraps named functions in the namespaces of
``pipeline``, ``track_manager`` and ``cli`` and fails a run in which a
required one is missing or never called.  This runs one traced child,
as ``perfbench/run.py --trace 1`` does, on a small capture under
``kalman_bbox`` with projections, which needs the face filters' and
the projections' entry points too.  Its three targets give three
components in every group, of which ``t_max=2`` keeps two, so the
tracer's component and kept counts are pinned.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from photontrack.raw_ingest import SensorConfig
from photontrack.simulator import SceneSpec, TargetSpec, simulate, write_raw

ROOT = Path(__file__).resolve().parents[1]


def test_traced_child_calls_every_entry_point(tmp_path):
    scene = SceneSpec(
        targets=(
            TargetSpec((3, 3, 3), (8.0, 8.0, 150.0), 2.0, ((0, (0.4, 0.2, 0.0)),)),
            TargetSpec((3, 3, 3), (24.0, 20.0, 330.0), 2.0, ((0, (-0.4, 0.0, 0.0)),)),
            TargetSpec((3, 3, 3), (16.0, 26.0, 480.0), 2.0, ((0, (0.0, -0.3, 0.0)),)),
        ),
        noise_rate=30.0,
        n_groups=6,
        seed=11,
    )
    frames, _ = simulate(scene, SensorConfig())
    write_raw(frames, tmp_path / "capture.raw")
    result = tmp_path / "result.json"
    argv = [
        sys.executable, str(ROOT / "perfbench" / "child.py"), "track", str(ROOT),
        "trace", str(result), "bbox_filters,projections", "--",
        "track", "--raw", str(tmp_path / "capture.raw"),
        "--config", str(ROOT / "configs" / "default.cfg"),
        "--out-dir", str(tmp_path / "out"),
        "--set", "assoc_mode=kalman_bbox", "--set", "t_max=2", "--projections",
    ]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result.read_text())
    assert run["rc"] == 0
    layers = run["layers"]
    # one call per bank and kind (predict, update, init) and one
    # features call per step
    assert layers["kalman.calls"] <= 6
    assert layers["features.calls"] == 1
    # the kept candidates are counted with len(), so a candidate table's
    # length must be its row count: two of the three components
    assert layers["labeling.components"] == 3
    assert layers["labeling.kept_ratio"] == pytest.approx(2 / 3)
