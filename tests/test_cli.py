"""Command-line workflow and exit codes."""
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photontrack.cli import _KEYS, main, parse_config
from photontrack.denoise import DenoiseConfig, Fixed, MovingAverage, PeakFraction, Scheme
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


@pytest.mark.parametrize(
    "setting",
    [
        f"{key}={value}"
        for key in (
            "gate_radius", "kf_q", "kf_r", "kf_p0_pos", "kf_p0_vel",
            "importance_volume", "importance_speed", "importance_photons",
        )
        for value in ("inf", "nan")
    ],
)
def test_track_non_finite_tracker_setting_exits_1(workspace, tmp_path, capsys, setting):
    _, _, config, raw = workspace
    out = tmp_path / "o"
    rc = main(
        [
            "track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out),
            "--set", "assoc_mode=kalman_centroid", "--set", setting,
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "reflectivity nan", "reflectivity inf", "reflectivity 1e30",
        "start nan 5 50", "velocity 0 inf 0", "velocity_from 2 0 0 nan",
    ],
)
def test_simulate_non_finite_target_exits_1(tmp_path, capsys, text):
    scene = tmp_path / "bad.txt"
    scene.write_text(
        f"target\nshape 1 1 1\nstart 5 5 50\nreflectivity 1\n{text}\nend\n"
    )
    out = tmp_path / "o.raw"
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: scene: line 1: ")
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "inf", "1e30", "-1"])
def test_simulate_bad_noise_rate_exits_1(tmp_path, capsys, rate):
    scene = tmp_path / "bad.txt"
    scene.write_text(f"noise_rate {rate}\n")
    out = tmp_path / "o.raw"
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: scene: noise_rate ")
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


DEFAULT_CFG = Path(__file__).parents[1] / "configs" / "default.cfg"


def test_default_cfg_differs_from_the_defaults_only_in_scheme():
    text = DEFAULT_CFG.read_text()
    cfg = parse_config(text)
    assert cfg.denoise.scheme is Scheme.THRESHOLD_MAJORITY
    assert RunConfig().denoise.scheme is Scheme.THRESHOLD
    unschemed = replace(cfg, denoise=replace(cfg.denoise, scheme=Scheme.THRESHOLD))
    assert unschemed == RunConfig()


def test_default_cfg_commented_settings_parse_and_show_the_defaults():
    """Each commented ``# key value`` line parses once uncommented, and
    the threshold and smoothing values shown are the dataclass defaults."""
    lines = DEFAULT_CFG.read_text().splitlines()
    shown = {}
    for i, line in enumerate(lines):
        m = re.fullmatch(r"# (\w+) ([-+.\deE]+)\s*(#.*)?", line)
        if m is None:
            continue
        key, value = m.group(1, 2)
        shown[key] = float(value)
        uncommented = lines[:i] + [f"{key} {value}"] + lines[i + 1 :]
        parse_config("\n".join(uncommented))
    assert {"alpha", "beta", "sigma_x", "sigma_y", "sigma_z"} <= set(shown)
    assert shown["alpha"] == PeakFraction().alpha == MovingAverage().alpha
    assert shown["beta"] == MovingAverage().beta
    assert tuple(shown[f"sigma_{a}"] for a in "xyz") == DenoiseConfig().sigmas
    assert shown["kernel_radius_factor"] == DenoiseConfig().kernel_radius_factor


def test_mode_keys_of_other_modes_are_ignored():
    text = DEFAULT_CFG.read_text()
    cfg = parse_config(text, ["threshold_mode=peak_fraction", "beta=0.9"])
    assert cfg.denoise.threshold_mode == PeakFraction()
    cfg = parse_config("alpha 0.3\nbeta 0.2\n")
    assert cfg.denoise.threshold_mode == Fixed()
    cfg = parse_config("threshold_mode moving_average\nthreshold 9\nbeta 0.2\n")
    assert cfg.denoise.threshold_mode == MovingAverage(beta=0.2)


def test_any_importance_key_replaces_the_default_weights():
    cfg = parse_config("importance_speed 0.5\n")
    assert cfg.tracker.importance.weights == {"speed": 0.5}
    assert parse_config("").tracker.importance.weights == {"volume": 1.0}


TOKENS = st.sampled_from(
    [
        "0", "1", "-1", "2", "2.5", "0.5", "6", "27", "620", "nan", "inf", "-inf",
        "1e30", "1e400", "99999999999999999999", "abc", "", "fixed", "peak_fraction",
        "moving_average", "threshold", "threshold_majority", "parzen_threshold",
        "bbox", "kalman_centroid", "kalman_bbox",
    ]
)
KEYS = st.sampled_from(sorted(_KEYS) + ["bogus", "", "threshold mode"])


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.one_of(st.builds("{} {}".format, KEYS, TOKENS), st.text(max_size=20)),
        max_size=8,
    ),
    overrides=st.lists(
        st.one_of(st.builds("{}={}".format, KEYS, TOKENS), st.text(max_size=20)),
        max_size=4,
    ),
)
def test_parse_config_raises_only_value_error(lines, overrides):
    try:
        cfg = parse_config("\n".join(lines), overrides)
    except ValueError:
        return
    assert isinstance(cfg, RunConfig)
