"""Relations between two runs of the pipeline, which need no reference
implementation (metamorphic tests).

The capture is groups 28-67 of the crossing demo scene, whose two
targets cross near group 48.  Two relations are checked:

* pulse order: a group's histogram counts its pulses' range bins, so
  permuting the pulses within each group leaves the tables byte for
  byte as they were;
* embedding: the capture placed at pixel offset ``(DX, DY)`` in a
  larger sensor, with the ceiling and every value from the window's
  first bin up raised by ``DZ``, loses no photon and moves each one by
  ``(DX, DY, DZ)`` voxels.  The larger sensor is not square, so an x/y
  swap shows.  Ids, states, miss counts and links must be equal and the
  box faces shifted exactly.  The other features, less the shift, must
  agree within a few ulps of the grid's size: a centroid is one
  rounding of an exact quotient, so ``(S + T d) / T`` and ``S / T + d``
  may differ in the last bit, and the Kalman updates carry that on.

The majority vote clears the grid's boundary voxels, and embedding
moves that boundary, so under it both runs first blank the capture's
outer pixels and its values at ``zmin`` and ``zmax``.
"""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from photontrack.cli import parse_config
from photontrack.denoise import Scheme
from photontrack.features import FEATURE_NAMES
from photontrack.outputs import write_links_csv, write_tracks_csv
from photontrack.pipeline import run_groups
from photontrack.raw_ingest import group_frames
from photontrack.simulator import load_scene, simulate

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = (ROOT / "configs" / "default.cfg").read_text()
FIRST_GROUP, N_GROUPS = 28, 40
DX, DY, DZ = 2, 1, 3
WIDTH, HEIGHT = 36, 34
# every feature is computed from voxel coordinates below the embedded
# grid's longest axis (603 range bins), so its rounding is a few units
# in the last place of that size
ULPS = 4

SHIFT = np.zeros(len(FEATURE_NAMES))
for _axis, _d in zip("xyz", (DX, DY, DZ)):
    for _name in ("centroid", "bbox_min", "bbox_max"):
        SHIFT[FEATURE_NAMES.index(f"{_name}_{_axis}")] = _d
BOX = np.array([name.startswith("bbox_") for name in FEATURE_NAMES])


def _config_id(overrides):
    return " ".join(overrides) or "default.cfg"


@pytest.fixture(scope="module")
def capture():
    """The groups and the sensor of the cut crossing capture."""
    scene, sensor = load_scene(ROOT / "scenes" / "crossing_demo.scene")
    frames, _ = simulate(replace(scene, n_groups=FIRST_GROUP + N_GROUPS), sensor)
    return group_frames(frames, sensor)[FIRST_GROUP:], sensor


def tables(groups, cfg, tmp_path, name):
    """The bytes of the tracks and links tables of a run over ``groups``."""
    tracks, links = tmp_path / f"{name}_tracks.csv", tmp_path / f"{name}_links.csv"
    steps = run_groups(groups, cfg)
    write_tracks_csv(steps, tracks)
    write_links_csv(steps, links)
    return tracks.read_bytes(), links.read_bytes()


@pytest.mark.parametrize(
    "overrides",
    [[], ["scheme=parzen_threshold"], ["assoc_mode=kalman_bbox"]],
    ids=_config_id,
)
def test_pulse_order_within_a_group_changes_no_table(capture, tmp_path, overrides):
    groups, _ = capture
    cfg = parse_config(DEFAULT_CFG, overrides)
    rng = np.random.default_rng(5)
    shuffled = [group[rng.permutation(len(group))] for group in groups]
    assert not all(np.array_equal(a, b) for a, b in zip(groups, shuffled))
    want = tables(groups, cfg, tmp_path, "ordered")
    assert want[1].count(b"\n") > N_GROUPS  # the targets are tracked
    assert tables(shuffled, cfg, tmp_path, "shuffled") == want


def blank_boundary(group, sensor):
    """``group`` with its outer pixels and its values at ``zmin`` and
    ``zmax`` turned into misses."""
    group = group.copy()
    group[:, [0, -1], :] = group[:, :, [0, -1]] = sensor.ceiling
    group[(group == sensor.zmin) | (group == sensor.zmax)] = sensor.ceiling
    return group


def embed(group, sensor):
    """``group`` at pixel offset (DX, DY) of a HEIGHT x WIDTH sensor
    whose ceiling is DZ higher, every value from ``zmin`` up raised by
    DZ and every pixel outside it a miss."""
    out = np.full((len(group), HEIGHT, WIDTH), sensor.ceiling + DZ, dtype=group.dtype)
    raised = np.where(group >= sensor.zmin, group + DZ, group)
    out[:, DY : DY + sensor.height, DX : DX + sensor.width] = raised
    return out


@pytest.mark.parametrize(
    "overrides",
    [
        [],
        ["assoc_mode=kalman_centroid"],
        ["assoc_mode=kalman_bbox"],
        ["scheme=parzen_threshold"],
        # noise components become tracks that are born, coast and die
        ["scheme=threshold", "threshold=1"],
    ],
    ids=_config_id,
)
def test_an_embedded_capture_gives_shifted_tracks(capture, overrides):
    groups, sensor = capture
    cfg = parse_config(DEFAULT_CFG, overrides)
    wide = [f"width={WIDTH}", f"height={HEIGHT}", f"ceiling={sensor.ceiling + DZ}"]
    wide_cfg = parse_config(DEFAULT_CFG, overrides + wide)
    if cfg.denoise.scheme is Scheme.THRESHOLD_MAJORITY:
        groups = [blank_boundary(group, sensor) for group in groups]
    steps = run_groups(groups, cfg)
    shifted = run_groups([embed(group, sensor) for group in groups], wide_cfg)

    assert sum(len(rec.tracks) for rec in steps) >= 2 * N_GROUPS
    tol = ULPS * np.spacing(float(wide_cfg.sensor.nz))
    assert len(shifted) == len(steps)
    for rec, moved in zip(steps, shifted):
        assert (moved.step, moved.fwlink, moved.bwlink) == (rec.step, rec.fwlink, rec.bwlink)
        assert len(moved.tracks) == len(rec.tracks)
        for track, moved_track in zip(rec.tracks, moved.tracks):
            assert moved_track[:3] == track[:3]  # id, state and miss count
            want = np.array(track.features)
            got = np.array(moved_track.features) - SHIFT
            assert np.array_equal(got[BOX], want[BOX])
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
