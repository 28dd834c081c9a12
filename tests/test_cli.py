"""Command-line workflow and exit codes."""
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import defaultdict
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photontrack
from photontrack import cli, errors
from photontrack.cli import _KEYS, main, parse_config
from photontrack.denoise import DenoiseConfig, Fixed, MovingAverage, PeakFraction, Scheme
from photontrack.association import AssocMode
from photontrack.outputs import LINKS_HEADER, TRACKS_HEADER
from photontrack.pipeline import RunConfig
from photontrack.raw_ingest import SensorConfig, parse_frames
from photontrack.voxelizer import build_histogram

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


def test_track_projections_never_build_the_dense_grid(workspace, monkeypatch):
    """Under threshold_majority nothing in a ``track --projections`` run
    reads ``grid.counts``, so no group's dense grid is built."""
    tmp_path, _, config, raw = workspace
    grids = []

    def build_histogram(frames, cfg):
        grids.append(photontrack.voxelizer.build_histogram(frames, cfg))
        return grids[-1]

    monkeypatch.setattr(photontrack.pipeline, "build_histogram", build_histogram)
    rc = main(
        [
            "track",
            "--raw", str(raw),
            "--config", str(config),
            "--out-dir", str(tmp_path / "proj"),
            "--projections",
        ]
    )
    assert rc == 0 and len(grids) == 6
    assert not any("counts" in vars(grid) for grid in grids)


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
    grid = build_histogram(frames[400:600], SensorConfig())
    assert f"photons in window: {int(grid.counts.sum())}" in out
    assert f"occupied voxels: {int((grid.counts > 0).sum())}" in out
    pgm = (tmp_path / "group0002_xy.pgm").read_bytes()
    payload = pgm.split(b"255\n", 1)[1]
    proj = grid.counts.max(axis=2).T
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
    grid = build_histogram(frames[400:600], sensor)
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


def test_inspect_reads_only_its_group(workspace, capsys):
    """After a trailing partial group, inspect shows the last whole
    group as it does without the tail, with the same images, and
    refuses the partial one."""
    tmp_path, _, _, raw = workspace
    data = raw.read_bytes()
    tailed = tmp_path / "tailed.raw"
    tailed.write_bytes(data + bytes(3 * SensorConfig().frame_nbytes))
    outs = []
    for n, path in enumerate((raw, tailed)):
        argv = ["inspect", "--raw", str(path), "--group", "5"]
        assert main(argv + ["--out-dir", str(tmp_path / f"i{n}")]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    grid = build_histogram(parse_frames(data, SensorConfig())[1000:], SensorConfig())
    assert f"photons in window: {int(grid.values.sum())}" in outs[0]
    for tag in ("xy", "xz", "yz"):
        name = f"group0005_{tag}.pgm"
        assert (tmp_path / "i0" / name).read_bytes() == (tmp_path / "i1" / name).read_bytes()
    assert main(["inspect", "--raw", str(tailed), "--group", "6"]) == 1


@pytest.mark.parametrize("cut", [5, None], ids=["truncated", "empty"])
def test_inspect_bad_capture_exits_1(workspace, capsys, cut):
    tmp_path, _, _, raw = workspace
    bad = tmp_path / "bad.raw"
    bad.write_bytes(raw.read_bytes()[:-cut] if cut else b"")
    argv = ["inspect", "--raw", str(bad), "--group", "0", "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: raw stream: ")
    assert not (tmp_path / "o").exists()


def test_simulate_bad_scene_exits_1(tmp_path):
    scene = tmp_path / "bad.txt"
    scene.write_text("gibberish here\n")
    assert main(["simulate", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 1


def test_simulate_missing_scene_exits_2(tmp_path):
    assert (
        main(["simulate", "--scene", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        == 2
    )


NOT_UTF8 = b"\xff\xfe" + "noise_rate 30\n".encode("utf-16-le")


def _assert_refused(rc, capsys, prefix):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {prefix}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


def test_simulate_scene_not_utf8_exits_1(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_bytes(NOT_UTF8)
    out = tmp_path / "o.raw"
    rc = main(["simulate", "--scene", str(scene), "--out", str(out)])
    _assert_refused(rc, capsys, "scene")
    assert not out.exists()


def test_track_config_not_utf8_exits_1(workspace, capsys):
    tmp_path, _, config, raw = workspace
    config.write_bytes(NOT_UTF8)
    out = tmp_path / "o"
    rc = main(["track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out)])
    _assert_refused(rc, capsys, "config")
    assert not out.exists()


def test_inspect_config_not_utf8_exits_1(workspace, capsys):
    tmp_path, _, config, raw = workspace
    config.write_bytes(NOT_UTF8)
    rc = main(["inspect", "--raw", str(raw), "--config", str(config), "--group", "0"])
    _assert_refused(rc, capsys, "config")


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


@pytest.mark.parametrize("cut", [5, None], ids=["truncated", "empty"])
def test_track_refuses_a_bad_capture_before_any_output(workspace, capsys, cut):
    """A capture that is empty or not a whole number of frames is
    refused before any group is read: exit 1, and no projection image
    and no table is written."""
    tmp_path, _, config, raw = workspace
    bad = tmp_path / "bad.raw"
    bad.write_bytes(raw.read_bytes()[:-cut] if cut else b"")
    out = tmp_path / "o"
    argv = ["track", "--raw", str(bad), "--config", str(config), "--out-dir", str(out)]
    assert main(argv + ["--projections"]) == 1
    assert capsys.readouterr().err.startswith("error: raw stream: ")
    assert list(out.glob("*")) == []


def test_track_memory_is_bounded_by_a_group(tmp_path):
    """The traced peak memory of a ``track`` run does not grow with the
    capture: on 8 and 32 groups it differs by less than one group's
    bytes."""
    config = tmp_path / "pipeline.cfg"
    config.write_text(CONFIG)
    runs = []
    for n in (8, 32):
        scene, raw = tmp_path / f"scene{n}.txt", tmp_path / f"frames{n}.raw"
        scene.write_text(SCENE.replace("n_groups 6", f"n_groups {n}"))
        assert main(["simulate", "--scene", str(scene), "--out", str(raw)]) == 0
        runs.append(
            ["track", "--raw", str(raw), "--config", str(config),
             "--out-dir", str(tmp_path / f"o{n}")]
        )
    assert main(runs[0]) == 0  # first-call allocations are not the capture's
    peaks = []
    for argv in runs:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < SensorConfig().group_nbytes


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


def _main_under_memory_limit(argv: list[str], limit: int = 512 << 20):
    """Run ``photontrack.cli.main(argv)`` in a child whose address space
    is capped at ``limit`` bytes, so a setting that makes the program ask
    for far more memory fails the test instead of taking the machine's."""
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(photontrack.__file__).resolve().parents[1]
    code = "import sys; from photontrack.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_simulate_huge_reflectivity_exits_1_under_a_memory_limit(tmp_path):
    """A rate numpy can sample but far above one photon per sensor pixel
    per pulse is a scene error; rendering it would ask for 1.46 TiB."""
    scene = tmp_path / "bright.txt"
    scene.write_text("target\nshape 1 1 1\nstart 5 5 50\nreflectivity 1e9\nend\n")
    out = tmp_path / "o.raw"
    child = _main_under_memory_limit(["simulate", "--scene", str(scene), "--out", str(out)])
    assert child.returncode == 1
    assert child.stderr.startswith("error: scene: reflectivity 1e+09 exceeds 1024 ")
    assert not out.exists()


@pytest.mark.parametrize(
    "setting", ["sigma_z=1e6", "sigma_x=1e300", "kernel_radius_factor=1e12"]
)
def test_track_huge_parzen_kernel_exits_1_under_a_memory_limit(workspace, setting):
    """A finite Parzen kernel whose half-width exceeds the histogram's
    longest axis (600 voxels here) is a config error; smoothing with it
    would ask for GiB to TiB, or for an array longer than numpy allows."""
    tmp_path, _, config, raw = workspace
    out = tmp_path / "o"
    child = _main_under_memory_limit(
        [
            "track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out),
            "--set", "scheme=parzen_threshold", "--set", setting,
        ]
    )
    assert child.returncode == 1
    assert child.stderr.startswith("error: config: Parzen kernel half-width ")
    assert "(600)" in child.stderr
    assert not out.exists()


def test_track_geometry_too_large_for_memory_exits_2(tmp_path):
    """A sensor geometry whose histogram cannot be allocated (2048 x 2048
    x 600 voxels, 18.8 GiB) is environment trouble, not a traceback."""
    config = tmp_path / "pipeline.cfg"
    config.write_text(CONFIG)
    raw = tmp_path / "big.raw"
    np.zeros((2, 2048, 2048), np.uint16).tofile(raw)
    out = tmp_path / "o"
    child = _main_under_memory_limit(
        [
            "track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out),
            "--set", "width=2048", "--set", "height=2048", "--set", "pulses_per_group=1",
        ]
    )
    assert child.returncode == 2
    assert child.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in child.stderr
    assert not (out / "tracks.csv").exists()


def test_track_capture_shorter_than_a_huge_group_exits_0_under_a_memory_limit(tmp_path):
    """A group of 10**8 default frames would take 191 GiB, but the read
    buffer is no larger than the capture: 4 frames are one partial
    group, dropped with its warning, and the tables are header-only."""
    config = tmp_path / "pipeline.cfg"
    config.write_text(CONFIG)
    raw = tmp_path / "short.raw"
    np.zeros((4, 32, 32), np.uint16).tofile(raw)
    out = tmp_path / "o"
    child = _main_under_memory_limit(
        [
            "track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out),
            "--set", "pulses_per_group=100000000",
        ]
    )
    assert child.returncode == 0, child.stderr
    assert "discarding trailing partial group of 4 frames" in child.stderr
    assert (out / "tracks.csv").read_text() == ",".join(TRACKS_HEADER) + "\n"
    assert (out / "links.csv").read_text() == ",".join(LINKS_HEADER) + "\n"


def test_parzen_kernel_may_span_the_longest_axis():
    """The bound is the longest axis, not each sigma's own axis: a
    half-width of 600 voxels passes on the default 32x32x600 grid."""
    cfg = parse_config("scheme parzen_threshold\nsigma_x 200\nkernel_radius_factor 3\n")
    assert cfg.denoise.sigmas[0] == 200.0
    with pytest.raises(ValueError, match="longest axis"):
        parse_config("scheme parzen_threshold\nsigma_x 200.001\nkernel_radius_factor 3\n")


@pytest.mark.parametrize("scheme", ["threshold", "threshold_majority"])
def test_parzen_kernel_width_is_ignored_by_the_other_schemes(workspace, scheme):
    """A Parzen kernel too wide for the grid fails only the scheme that
    smooths with it; under another scheme it changes nothing."""
    tmp_path, _, config, raw = workspace
    outs = []
    for extra in ([], ["--set", "sigma_x=300"]):
        out = tmp_path / f"o{len(outs)}"
        argv = ["track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out)]
        assert main(argv + ["--set", f"scheme={scheme}"] + extra) == 0
        outs.append((out / "tracks.csv").read_bytes())
    assert outs[0] == outs[1]


# error type -> (exit code, stderr) when the command's work raises
# kind("boom"); every row of cli._EXITS is reached
EXITS = {
    errors.SceneParseError: (1, "error: scene: boom\n"),
    errors.TruncatedFileError: (1, "error: raw stream: boom\n"),
    errors.EmptyInputError: (1, "error: raw stream: boom\n"),
    errors.ConfigError: (1, "error: config: boom\n"),
    errors.SingularInnovationError: (1, "error: config: boom\n"),
    errors.ConfigViolationError: (
        3, "error: internal invariant violated: ConfigViolationError('boom')\n"
    ),
    errors.ConfigMismatchError: (1, "error: boom\n"),
    errors.EntryEvictedError: (1, "error: boom\n"),
    errors.PhotontrackError: (1, "error: boom\n"),
    OSError: (2, "error: boom\n"),
    MemoryError: (2, "error: out of memory: boom\n"),
}


def test_every_library_error_has_a_documented_exit():
    library = {
        kind for kind in vars(errors).values()
        if isinstance(kind, type) and issubclass(kind, errors.PhotontrackError)
    }
    assert library <= set(EXITS)


@pytest.mark.parametrize("kind", list(EXITS), ids=lambda kind: kind.__name__)
def test_each_error_reaches_its_exit_code(workspace, capsys, monkeypatch, kind):
    tmp_path, _, config, raw = workspace

    def fail(*args, **kwargs):
        raise kind("boom")

    monkeypatch.setattr(cli, "run_tracking", fail)
    rc = main(["track", "--raw", str(raw), "--config", str(config), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert (rc, err) == EXITS[kind]
    assert "Traceback" not in err


def test_other_exceptions_propagate(workspace, monkeypatch):
    """Only library errors, OSError and MemoryError become exit codes;
    anything else is a bug and reaches the caller unchanged."""
    tmp_path, _, config, raw = workspace

    def fail(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "run_tracking", fail)
    with pytest.raises(KeyError):
        main(["track", "--raw", str(raw), "--config", str(config), "--out-dir", str(tmp_path / "o")])


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


def _track_warning_free(raw, config, out_dir, overrides, *flags):
    """``main(["track", ..., *flags])`` with every warning raised as an
    error."""
    argv = ["track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out_dir)]
    argv += flags
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


def test_track_subnormal_innovation_variance_exits_1(workspace, tmp_path, capsys):
    # by the third update pp + r is subnormal, and its reciprocal overflows
    _, _, config, raw = workspace
    overrides = ["kf_q=0", "kf_r=0", "kf_p0_vel=1e-300"]
    assert _track_warning_free(raw, config, tmp_path / "o", overrides) == 1
    assert capsys.readouterr().err.startswith("error: config: innovation variance")


@pytest.mark.parametrize("setting", ["sigma_x=1e-300", "threshold=1e308"])
def test_track_parzen_at_float_extremes_exits_0(workspace, tmp_path, setting):
    _, _, config, raw = workspace
    overrides = ["scheme=parzen_threshold", setting]
    assert _track_warning_free(raw, config, tmp_path / "o", overrides) == 0
    assert (tmp_path / "o" / "tracks.csv").exists()


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


@pytest.mark.parametrize(
    "line, message",
    [
        ("warp_speed 9", "line 3: unknown config key 'warp_speed'"),
        ("t_max banana", "line 3: bad value 'banana' for 't_max'"),
        ("threshold_mode sorcery", "line 3: bad value 'sorcery' for 'threshold_mode'"),
        ("t_max 4 5", "line 3: expected 'key value'"),
    ],
    ids=["unknown key", "bad value", "bad mode", "three words"],
)
def test_config_file_error_names_its_line(line, message):
    """Lines count from 1, comment and blank lines included."""
    with pytest.raises(ValueError) as info:
        parse_config(f"# settings\n\n{line}\nt_max 4\n", ["t_max=5"])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "override, message",
    [
        ("t_max=banana", "--set t_max=banana: bad value 'banana' for 't_max'"),
        ("t_max=4=5", "--set t_max=4=5: bad value '4=5' for 't_max'"),
        ("warp_speed=9", "--set warp_speed=9: unknown config key 'warp_speed'"),
        ("=9", "--set =9: unknown config key ''"),
        ("t_max", "--set needs KEY=VALUE, got 't_max'"),
    ],
    ids=["bad value", "value with =", "unknown key", "empty key", "no ="],
)
def test_override_error_names_the_whole_override(override, message):
    with pytest.raises(ValueError) as info:
        parse_config("t_max 4\n", ["scheme=threshold", override, "t_max=6"])
    assert str(info.value) == message


NOISE = "noise intensities must be finite and nonnegative"


@pytest.mark.parametrize(
    "text, overrides, message",
    [
        ("", ["t_max=0"], "--set t_max=0: t_max must be positive"),
        ("", ["kf_r=-1"], f"--set kf_r=-1: {NOISE}"),
        ("kf_q 1\nkf_r -1\n", [], f"line 1, line 2: {NOISE}"),
        ("width 0\n", [], "line 1: sensor dimensions must be positive"),
        (
            "threshold 2\n",
            ["threshold_mode=peak_fraction", "alpha=2"],
            "--set alpha=2: alpha must lie in (0, 1]",
        ),
        (
            "sigma_x 0\n",
            ["majority_min=2"],
            "line 1, --set majority_min=2: sigmas must be finite and positive",
        ),
        ("", ["gate_radius=0"], "--set gate_radius=0: gate_radius must be finite and positive"),
        (
            "",
            ["importance_volume=0"],
            "--set importance_volume=0: at least one importance weight must be positive",
        ),
    ],
    ids=[
        "tracker", "kalman", "two lines", "sensor", "threshold mode", "denoise",
        "association", "importance",
    ],
)
def test_refused_config_part_names_its_settings(text, overrides, message):
    """A part names the settings it was built from, in the order given;
    the other threshold modes' keys and the mode choice are not among
    them."""
    with pytest.raises(ValueError) as info:
        parse_config(text, overrides)
    assert str(info.value) == message


def test_run_config_checks_keep_their_text():
    with pytest.raises(ValueError) as info:
        parse_config("connectivity 26\n", ["connectivity=5"])
    assert str(info.value) == "connectivity must be one of (6, 18, 26)"


def test_track_refused_part_exits_1_naming_its_override(workspace, tmp_path, capsys):
    _, _, _, raw = workspace
    out = tmp_path / "o"
    argv = ["track", "--raw", str(raw), "--config", os.devnull, "--out-dir", str(out)]
    assert main([*argv, "--set", "t_max=0"]) == 1
    assert capsys.readouterr().err == "error: config: --set t_max=0: t_max must be positive\n"
    assert not out.exists()


def test_config_file_errors_come_before_override_errors():
    with pytest.raises(ValueError, match="^line 2: bad value 'banana' for 't_max'$"):
        parse_config("t_max 4\nt_max banana\nwarp_speed 9\n", ["t_max=banana"])
    with pytest.raises(ValueError, match="^line 1: unknown config key 'warp_speed'$"):
        parse_config("warp_speed 9\n", ["t_max"])


def test_last_setting_of_a_key_wins():
    assert parse_config("t_max 4\nt_max 5\n").tracker.t_max == 5
    assert parse_config("t_max 4\n", ["t_max=6"]).tracker.t_max == 6
    assert parse_config("t_max 4\n", ["t_max=6", "t_max=7"]).tracker.t_max == 7
    cfg = parse_config("sigma_x 2\nsigma_x 3\nimportance_speed 1\nimportance_speed 2\n")
    assert cfg.denoise.sigmas == (3.0, 1.0, 1.0)
    assert cfg.tracker.importance.weights == {"speed": 2.0}


def test_track_bad_override_exits_1_naming_it_before_any_output(workspace, tmp_path, capsys):
    _, _, config, raw = workspace
    out = tmp_path / "o"
    argv = ["track", "--raw", str(raw), "--config", str(config), "--out-dir", str(out)]
    assert main([*argv, "--set", "t_max=banana"]) == 1
    err = capsys.readouterr().err
    assert err == "error: config: --set t_max=banana: bad value 'banana' for 't_max'\n"
    assert not (out / "tracks.csv").exists() and not (out / "links.csv").exists()


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


@settings(max_examples=60, deadline=None)
@given(
    data=st.binary(max_size=160),
    width=st.integers(1, 4),
    height=st.integers(1, 3),
    pulses=st.integers(1, 3),
    scheme=st.sampled_from(["threshold", "threshold_majority", "parzen_threshold"]),
)
def test_track_on_random_bytes_exits_0_or_1(data, width, height, pulses, scheme):
    """Random bytes, empty or not a whole number of frames included, are
    tracked or refused with exit 1; no exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        raw, config = Path(tmp) / "random.raw", Path(tmp) / "empty.cfg"
        raw.write_bytes(data)
        config.write_text("")
        argv = [
            "track", "--raw", str(raw), "--config", str(config),
            "--out-dir", str(Path(tmp) / "o"),
            "--set", f"width={width}", "--set", f"height={height}",
            "--set", f"pulses_per_group={pulses}", "--set", "ceiling=40",
            "--set", "offset=2", "--set", f"scheme={scheme}",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main(argv)
    assert rc in (0, 1)
    assert "Traceback" not in err.getvalue()


TINY_SCENE = """
width 4
height 4
pulses_per_group 2
ceiling 40
offset 2
noise_rate 0.5
n_groups 8
seed 1

target
  shape 2 2 2
  start 1 1 8
  reflectivity 1
  velocity 0.25 0.25 1
end

target
  shape 1 1 2
  start 3 2 25
  reflectivity 1
  velocity -0.25 0 -1
end
"""
TINY_CONFIG = "threshold 0\n"  # counts of 1 pass, so tracks form
SENSOR_KEYS = {f.name for f in fields(SensorConfig)}
# legal extremes next to ordinary values; a value a key refuses makes
# the run exit 1, which the property allows
_NONNEG = [0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 3.0, 1e308]
_POS = [5e-324, 1e-300, 0.5, 1.0, 2.0, 10.0, 1e308]
_WEIGHT = [-1e308, -1.0, 0.0, 5e-324, 1e-300, 1.0, 1e308]
FUZZ_VALUES = {
    "scheme": st.sampled_from([s.value for s in Scheme]),
    "majority_min": st.integers(0, 27),
    "kernel_radius_factor": st.sampled_from(_NONNEG),
    **{f"sigma_{a}": st.sampled_from(_POS) for a in "xyz"},
    "threshold_mode": st.sampled_from(sorted(cli._MODES)),
    "threshold": st.sampled_from(_NONNEG),
    "alpha": st.sampled_from([5e-324, 1e-300, 0.5, 1.0]),
    "beta": st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0]),
    "connectivity": st.sampled_from([6, 18, 26]),
    "t_max": st.sampled_from([1, 2, 3, 10, 10**21]),
    "max_coast": st.integers(1, 7),
    "assoc_mode": st.sampled_from([m.value for m in AssocMode]),
    "expansion": st.sampled_from([0, 1, 2, 10**21]),
    "gate_radius": st.sampled_from(_POS),
    "kf_q": st.sampled_from(_NONNEG),
    "kf_r": st.sampled_from(_NONNEG),
    "kf_p0_pos": st.sampled_from(_POS),
    "kf_p0_vel": st.sampled_from(_POS),
    "importance_volume": st.sampled_from(_WEIGHT),
    "importance_speed": st.sampled_from(_WEIGHT),
    "importance_photons": st.sampled_from(_WEIGHT),
}


def test_fuzz_values_cover_every_key_but_the_sensor():
    assert set(FUZZ_VALUES) == set(_KEYS) - SENSOR_KEYS


@pytest.fixture(scope="module")
def tiny_capture(tmp_path_factory):
    """8 groups of 2 pulses on a 4x4 sensor with 36 range bins."""
    scene, sensor = photontrack.simulator.parse_scene(TINY_SCENE)
    frames, _ = photontrack.simulate(scene, sensor)
    raw = tmp_path_factory.mktemp("tiny") / "tiny.raw"
    photontrack.write_raw(frames, raw)
    geometry = [f"{k}={getattr(sensor, k)}" for k in sorted(SENSOR_KEYS)]
    return raw, geometry


@settings(max_examples=200, deadline=None)
@given(values=st.fixed_dictionaries({}, optional=FUZZ_VALUES))
# the findings this search made, kept as fixed examples
@example(values={"scheme": "parzen_threshold", "sigma_x": 1e-300})
@example(values={"scheme": "parzen_threshold", "threshold": 1e308})
@example(values={"kf_q": 0.0, "kf_r": 0.0, "kf_p0_vel": 1e-300})
def test_track_over_the_config_space_runs_clean_or_exits_1(tiny_capture, values):
    """Any drawn setting of every non-sensor key, extremes included, is
    tracked or refused with exit 1, with no warning and nothing raised;
    on success the tables pass ``_check_tables``."""
    raw, geometry = tiny_capture
    overrides = geometry + [f"{k}={v}" for k, v in values.items()]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "base.cfg", Path(tmp) / "o"
        config.write_text(TINY_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                rc = _track_warning_free(raw, config, out, overrides)
        assert rc in (0, 1)
        if rc == 0:
            _check_tables(out, parse_config(TINY_CONFIG, overrides).tracker.t_max)


def _check_tables(out: Path, t_max: int) -> None:
    """tracks.csv holds only finite numbers, at most t_max rows and
    unique ids per step, and links pair slots one to one."""
    with open(out / "tracks.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(out / "links.csv", newline="") as fh:
        links = list(csv.reader(fh))[1:]
    by_step = defaultdict(list)
    for row in rows:
        assert all(math.isfinite(float(v)) for i, v in enumerate(row) if i != 2)
        by_step[row[0]].append(row[1])
    for ids in by_step.values():
        assert len(ids) <= t_max
        assert len(set(ids)) == len(ids)
    pairs = defaultdict(list)
    for step, old, new in links:
        pairs[step].append((old, new))
    for step_pairs in pairs.values():
        olds, news = zip(*step_pairs)
        assert len(set(olds)) == len(olds) and len(set(news)) == len(news)


@st.composite
def _geometry_and_capture(draw):
    """A sensor geometry as ``--set`` items, and a capture of 0-24
    frames for it, pixel values up to ceiling + 3."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    offset = draw(st.integers(0, 10))
    ceiling = 2 * offset + draw(st.integers(1, 40) | st.just(600))
    n_frames = draw(st.integers(0, 24))
    pulses = draw(st.integers(1, n_frames + 3))
    values = draw(
        st.lists(
            st.integers(0, ceiling + 3),
            min_size=n_frames * width * height,
            max_size=n_frames * width * height,
        )
    )
    geometry = [
        f"width={width}", f"height={height}", f"offset={offset}",
        f"ceiling={ceiling}", f"pulses_per_group={pulses}",
    ]
    return geometry, np.array(values, dtype="<u2").tobytes()


@settings(max_examples=100, deadline=None)
@given(
    drawn=_geometry_and_capture(),
    scheme=st.sampled_from([s.value for s in Scheme]),
    mode=st.sampled_from([m.value for m in AssocMode]),
)
def test_track_over_sensor_geometries_runs_clean_or_exits_1(drawn, scheme, mode):
    """Any small sensor geometry, with a capture written for it (empty,
    shorter than a group, or with a partial last group), is tracked
    with projections or refused with exit 1, with no warning and
    nothing raised; on success the tables pass ``_check_tables``.  Groups stay small here: a group far larger than the
    capture is run under a memory limit above."""
    geometry, data = drawn
    overrides = geometry + [f"scheme={scheme}", f"assoc_mode={mode}"]
    with tempfile.TemporaryDirectory() as tmp:
        raw, config, out = Path(tmp) / "c.raw", Path(tmp) / "base.cfg", Path(tmp) / "o"
        raw.write_bytes(data)
        config.write_text(TINY_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                rc = _track_warning_free(raw, config, out, overrides, "--projections")
        assert rc in (0, 1)
        if rc == 0:
            _check_tables(out, parse_config(TINY_CONFIG, overrides).tracker.t_max)
