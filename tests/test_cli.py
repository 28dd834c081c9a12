"""Command-line workflow and exit codes."""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from photontrack.cli import main, parse_config
from photontrack.denoise import Fixed, MovingAverage, Scheme
from photontrack.association import AssocMode
from photontrack.outputs import TRACKS_HEADER
from photontrack.pipeline import RunConfig
from photontrack.raw_ingest import FrameGroup, SensorConfig, parse_frames
from photontrack.voxelizer import build_histogram, max_projection

SCENE = """
noise_rate 30
n_groups 6
seed 2

target
  shape 3 3 3
  start 10 10 200
  reflectivity 2
  velocity 0.3 0 0
end
"""

CONFIG = """
# pipeline settings
scheme threshold_majority
threshold 2
majority_min 2
connectivity 26
t_max 10
max_coast 3
expansion 2
"""


@pytest.fixture()
def workspace(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    config = tmp_path / "pipeline.cfg"
    config.write_text(CONFIG)
    raw = tmp_path / "frames.raw"
    assert main(["simulate", "--scene", str(scene), "--out", str(raw)]) == 0
    return tmp_path, scene, config, raw


def test_simulate_writes_expected_bytes(workspace):
    tmp_path, _, _, raw = workspace
    assert raw.stat().st_size == 6 * 200 * 2048


def test_simulate_truth_table(workspace, tmp_path):
    _, scene, _, raw = workspace
    truth = tmp_path / "truth.csv"
    assert (
        main(
            ["simulate", "--scene", str(scene), "--out", str(raw), "--truth", str(truth)]
        )
        == 0
    )
    lines = truth.read_text().splitlines()
    assert lines[0].startswith("step,target,alive,centroid_x")
    assert len(lines) == 1 + 6


def test_track_outputs(workspace):
    tmp_path, _, config, raw = workspace
    out = tmp_path / "out"
    rc = main(
        ["track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out)]
    )
    assert rc == 0
    tracks = (out / "tracks.csv").read_text()
    assert tracks.splitlines()[0] == ",".join(TRACKS_HEADER)
    assert "\r" not in tracks
    links = (out / "links.csv").read_text().splitlines()
    assert links[0] == "step,old_slot,new_slot"
    assert len(links) > 1  # a steady target links every boundary
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_steps"] == 6
    assert summary["tracks"][0]["track_id"] == 1
    assert summary["tracks"][0]["n_steps"] == 6


def test_track_projections_are_valid_pgm(workspace):
    tmp_path, _, config, raw = workspace
    out = tmp_path / "proj"
    rc = main(
        [
            "track",
            "--raw", str(raw),
            "--config", str(config),
            "--out-dir", str(out),
            "--projections",
        ]
    )
    assert rc == 0
    pgms = sorted(out.glob("step*_xy.pgm"))
    assert len(pgms) == 6
    blob = pgms[0].read_bytes()
    assert blob.startswith(b"P5\n32 32\n255\n")
    assert len(blob) == len(b"P5\n32 32\n255\n") + 32 * 32
    # the peak pixel must saturate after rescaling
    assert max(blob[len(b"P5\n32 32\n255\n"):]) == 255


def test_track_set_overrides_config(workspace):
    tmp_path, _, config, raw = workspace
    out = tmp_path / "cap"
    rc = main(
        [
            "track",
            "--raw", str(raw),
            "--config", str(config),
            "--out-dir", str(out),
            "--set", "t_max=1",
        ]
    )
    assert rc == 0
    rows = (out / "tracks.csv").read_text().splitlines()[1:]
    steps = [r.split(",")[0] for r in rows]
    assert len(steps) == len(set(steps))  # at most one track per step


def test_inspect_stats_match_voxelizer(workspace, capsys):
    tmp_path, _, _, raw = workspace
    rc = main(
        ["inspect", "--raw", str(raw), "--group", "2", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    frames = parse_frames(raw.read_bytes(), SensorConfig())
    grid = build_histogram(
        FrameGroup(frames=frames[400:600], group_index=2), SensorConfig()
    )
    assert f"photons in window: {int(grid.counts.sum())}" in out
    assert f"occupied voxels: {int((grid.counts > 0).sum())}" in out
    pgm = (tmp_path / "group0002_xy.pgm").read_bytes()
    payload = pgm.split(b"255\n", 1)[1]
    proj = max_projection(grid.counts, 2).T
    expected = np.rint(proj * (255.0 / proj.max())).clip(0, 255).astype(np.uint8)
    assert payload == expected.tobytes()


def test_inspect_reads_with_the_configured_sensor(workspace, capsys):
    """The same bytes read as 16x16 frames give 4x the frames per
    group count; inspect must use that geometry, not the default."""
    tmp_path, _, _, raw = workspace
    argv = ["inspect", "--raw", str(raw), "--group", "2", "--out-dir", str(tmp_path)]
    assert main(argv + ["--set", "width=16", "--set", "height=16"]) == 0
    out = capsys.readouterr().out
    sensor = SensorConfig(width=16, height=16)
    frames = parse_frames(raw.read_bytes(), sensor)
    grid = build_histogram(
        FrameGroup(frames=frames[400:600], group_index=2), sensor
    )
    assert "histogram 16x16x600" in out
    assert f"photons in window: {int(grid.counts.sum())}" in out
    assert f"occupied voxels: {int((grid.counts > 0).sum())}" in out

    config = tmp_path / "sensor.cfg"
    config.write_text("width 16\n")
    assert main(argv + ["--config", str(config), "--set", "height=16"]) == 0
    assert capsys.readouterr().out == out


def test_inspect_config_errors(workspace, capsys):
    tmp_path, _, _, raw = workspace
    argv = ["inspect", "--raw", str(raw), "--group", "0", "--out-dir", str(tmp_path)]
    assert main(argv + ["--set", "widht=16"]) == 1
    assert "error: config:" in capsys.readouterr().err
    assert main(argv + ["--config", str(tmp_path / "nope.cfg")]) == 2


def test_inspect_group_out_of_range(workspace):
    tmp_path, _, _, raw = workspace
    assert main(["inspect", "--raw", str(raw), "--group", "6"]) == 1
    assert main(["inspect", "--raw", str(raw), "--group", "-1"]) == 1


def test_simulate_bad_scene_exits_1(tmp_path):
    scene = tmp_path / "bad.txt"
    scene.write_text("gibberish here\n")
    assert main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 1


def test_simulate_missing_scene_exits_2(tmp_path):
    assert (
        main(["simulate", "--scene", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        == 2
    )


def test_track_missing_raw_exits_2(workspace):
    tmp_path, _, config, _ = workspace
    rc = main(
        [
            "track",
            "--raw", str(tmp_path / "nope.raw"),
            "--config", str(config),
            "--out-dir", str(tmp_path / "o"),
        ]
    )
    assert rc == 2


def test_track_truncated_raw_exits_1(workspace):
    tmp_path, _, config, raw = workspace
    bad = tmp_path / "trunc.raw"
    bad.write_bytes(raw.read_bytes()[:-5])
    rc = main(
        ["track", "--raw", str(bad), "--config", str(config), "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 1


def test_track_unknown_config_key_exits_1(workspace, tmp_path):
    _, _, _, raw = workspace
    config = tmp_path / "bad.cfg"
    config.write_text("warp_speed 9\n")
    rc = main(
        ["track", "--raw", str(raw), "--config", str(config), "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 1


@pytest.mark.parametrize(
    "setting",
    [
        f"{key}={value}"
        for key in ("sigma_x", "sigma_y", "sigma_z", "kernel_radius_factor", "threshold")
        for value in ("inf", "nan")
    ],
)
def test_track_non_finite_denoise_setting_exits_1(workspace, tmp_path, capsys, setting):
    _, _, config, raw = workspace
    out = tmp_path / "o"
    rc = main(
        [
            "track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out),
            "--set", "scheme=parzen_threshold", "--set", setting,
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["bbox", "kalman_centroid"])
def test_track_singular_filter_exits_1(workspace, tmp_path, capsys, mode):
    _, _, config, raw = workspace
    rc = main(
        [
            "track", "--raw", str(raw), "--config", str(config),
            "--out-dir", str(tmp_path / "o"),
            "--set", "kf_r=0", "--set", "kf_q=0", "--set", f"assoc_mode={mode}",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: config: ")


def test_parse_config_full():
    cfg = parse_config(
        "\n".join(
            [
                "width 16",
                "height 16",
                "scheme parzen_threshold",
                "threshold_mode moving_average",
                "alpha 0.4",
                "beta 0.7",
                "sigma_z 2.5",
                "connectivity 6",
                "t_max 4",
                "max_coast 5",
                "assoc_mode kalman_centroid",
                "gate_radius 7.5",
                "kf_q 0.5",
                "importance_photons 2.0",
            ]
        )
    )
    assert cfg.sensor.width == 16
    assert cfg.denoise.scheme is Scheme.PARZEN_THRESHOLD
    assert cfg.denoise.threshold_mode == MovingAverage(0.4, 0.7)
    assert cfg.denoise.sigmas == (1.0, 1.0, 2.5)
    assert cfg.connectivity == 6
    assert cfg.tracker.t_max == 4
    assert cfg.tracker.max_coast == 5
    assert cfg.tracker.assoc.mode is AssocMode.KALMAN_CENTROID
    assert cfg.tracker.assoc.gate_radius == 7.5
    assert cfg.tracker.kalman.q == 0.5
    assert cfg.tracker.importance.weights == {"total_photons": 2.0}


def test_parse_config_defaults_and_overrides():
    cfg = parse_config("", overrides=["threshold=3.5"])
    assert cfg.denoise.threshold_mode == Fixed(3.5)
    assert cfg.tracker.t_max == 10
    with pytest.raises(ValueError):
        parse_config("", overrides=["threshold"])
    with pytest.raises(ValueError):
        parse_config("t_max banana\n")
    with pytest.raises(ValueError):
        parse_config("scheme sorcery\n")


def test_empty_config_is_the_dataclass_defaults():
    assert parse_config("") == RunConfig()


def test_default_cfg_differs_from_the_defaults_only_in_scheme():
    text = (Path(__file__).parents[1] / "configs" / "default.cfg").read_text()
    cfg = parse_config(text)
    assert cfg.denoise.scheme is Scheme.THRESHOLD_MAJORITY
    assert RunConfig().denoise.scheme is Scheme.THRESHOLD
    unschemed = replace(cfg, denoise=replace(cfg.denoise, scheme=Scheme.THRESHOLD))
    assert unschemed == RunConfig()
