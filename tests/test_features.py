"""Feature vector layout and geometry descriptors."""
import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from photontrack.cli import parse_config
from photontrack.features import (
    FEATURE_NAMES,
    compute_features,
    principal_orientation,
)
from photontrack.kalman import KalmanParams, kf_init, kf_predict, kf_update
from photontrack.labeling import BoundingBox, TargetObservation
from photontrack.outputs import write_tracks_csv
from photontrack.pipeline import run_tracking
from photontrack.raw_ingest import SensorConfig
from photontrack.simulator import SceneSpec, TargetSpec, simulate, write_raw
from photontrack.track_manager import Track, TrackState


def test_feature_name_contract():
    assert len(FEATURE_NAMES) == 23
    assert FEATURE_NAMES == (
        "centroid_x", "centroid_y", "centroid_z",
        "bbox_min_x", "bbox_min_y", "bbox_min_z",
        "bbox_max_x", "bbox_max_y", "bbox_max_z",
        "volume", "total_photons", "peak_photons",
        "velocity_x", "velocity_y", "velocity_z",
        "speed",
        "accel_x", "accel_y", "accel_z",
        "orient_x", "orient_y", "orient_z",
        "age",
    )


@pytest.mark.parametrize("mode", ["bbox", "kalman_bbox"])
def test_tracks_csv_rows_are_the_step_snapshots(tmp_path, mode):
    """Parsed by header, the ``tracks.csv`` rows are the steps'
    snapshots in slot order: each carries its snapshot's step, id,
    state and bad count, and its feature row (centroid, box faces, age
    and the rest) printed with %.9g."""
    scene = SceneSpec(
        targets=(
            TargetSpec((3, 3, 3), (8.0, 8.0, 150.0), 2.0, ((0, (0.4, 0.2, 0.0)),)),
            TargetSpec((3, 3, 3), (24.0, 20.0, 330.0), 2.0, ((0, (-0.4, 0.0, 0.0)),)),
        ),
        noise_rate=30.0,
        n_groups=8,
        seed=11,
    )
    frames, _ = simulate(scene, SensorConfig())
    raw = io.BytesIO()
    write_raw(frames, raw)
    cfg = parse_config("", [f"assoc_mode={mode}"])
    steps = run_tracking(io.BytesIO(raw.getvalue()), cfg)
    path = tmp_path / "tracks.csv"
    write_tracks_csv(steps, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    snaps = [(rec.step, snap) for rec in steps for snap in rec.tracks]
    assert len(rows) == len(snaps) > 0
    assert {snap.state for _, snap in snaps} >= {TrackState.NEW, TrackState.COASTING}
    for row, (step, snap) in zip(rows, snaps):
        assert int(row["step"]) == step
        assert int(row["track_id"]) == snap.track_id
        assert row["state"] == snap.state.value
        assert int(row["bad_count"]) == snap.bad_count
        assert [row[name] for name in FEATURE_NAMES] == [
            format(v, ".9g") for v in snap.features
        ]


def test_orientation_of_a_line():
    vox = np.array([[i, i, 0] for i in range(6)])
    v = principal_orientation(vox)
    np.testing.assert_allclose(v, [1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-6)


def test_orientation_of_an_axis_aligned_rod():
    vox = np.array([[0, 0, z] for z in range(8)])
    v = principal_orientation(vox)
    np.testing.assert_allclose(np.abs(v), [0, 0, 1], atol=1e-8)
    assert v[2] > 0  # sign convention


def test_orientation_is_translation_invariant():
    rng = np.random.default_rng(5)
    vox = rng.integers(0, 6, (30, 3)).astype(float)
    vox[:, 0] *= 3  # make x clearly dominant
    a = principal_orientation(vox)
    b = principal_orientation(vox + np.array([100, -50, 7]))
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_orientation_degenerate_fallbacks():
    np.testing.assert_array_equal(principal_orientation(np.zeros((0, 3))), [1, 0, 0])
    np.testing.assert_array_equal(
        principal_orientation(np.array([[4, 5, 6]])), [1, 0, 0]
    )
    cube = np.array(
        [[x, y, z] for x in range(3) for y in range(3) for z in range(3)]
    )
    np.testing.assert_array_equal(principal_orientation(cube), [1, 0, 0])


def test_orientation_dominant_axis():
    rng = np.random.default_rng(6)
    vox = np.array([[x, y, z] for x in range(12) for y in range(2) for z in range(2)])
    v = principal_orientation(vox.astype(float))
    assert abs(v[0]) > 0.99


def _track(centroid, velocity, voxels):
    obs = TargetObservation(
        label=1,
        voxels=voxels,
        volume=len(voxels),
        bbox=BoundingBox(
            tuple(voxels.min(axis=0).astype(int)),
            tuple(voxels.max(axis=0).astype(int)),
        ),
        centroid=np.asarray(centroid, float),
        total_photons=40,
        peak_photons=9,
    )
    kf = replace(
        kf_init(centroid, KalmanParams()), velocity=np.asarray(velocity, float)
    )
    return Track(
        track_id=1,
        state=TrackState.MATCHED,
        bad_count=0,
        obs=obs,
        kf=kf,
    )


def test_compute_features_first_step_has_zero_accel():
    vox = np.array([[i, 0, 0] for i in range(4)])
    t = _track([1.5, 0, 0], [2.0, 0, 0], vox)
    fv = compute_features(t, None)
    assert (fv.accel_x, fv.accel_y, fv.accel_z) == (0.0, 0.0, 0.0)
    assert fv.speed == pytest.approx(2.0)
    assert (fv.velocity_x, fv.velocity_y, fv.velocity_z) == (2.0, 0.0, 0.0)
    assert fv.volume == 4
    assert fv.age == 1.0
    assert (fv.centroid_x, fv.centroid_y, fv.centroid_z) == (1.5, 0.0, 0.0)
    assert (fv.bbox_min_x, fv.bbox_min_y, fv.bbox_min_z) == (0.0, 0.0, 0.0)
    assert (fv.bbox_max_x, fv.bbox_max_y, fv.bbox_max_z) == (3.0, 0.0, 0.0)


def test_compute_features_accel_is_velocity_difference():
    vox = np.array([[i, 0, 0] for i in range(4)])
    prev = compute_features(_track([0, 0, 0], [1.0, 0, 0], vox), None)
    fv = compute_features(_track([1, 0, 0], [2.5, 1.0, 0], vox), prev)
    assert (fv.accel_x, fv.accel_y, fv.accel_z) == pytest.approx((1.5, 1.0, 0.0))
    assert fv.age == 2.0


def test_speed_estimate_converges_for_constant_motion():
    params = KalmanParams()
    s = kf_init(np.array([0.0, 0.0, 0.0]), params)
    for step in range(1, 21):
        s = kf_predict(s)
        s = kf_update(s, np.array([float(step), 0.0, 0.0]))
    assert np.linalg.norm(s.velocity) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize(
    "sides, axis",
    [((3, 1, 3), [1, 0, 0]), ((1, 3, 3), [0, 1, 0]), ((5, 2, 5), [1, 0, 0]),
     ((2, 5, 5), [0, 1, 0])],
)
def test_orientation_of_a_plate_is_pinned(sides, axis):
    """Two equal largest spreads: power iteration starts from the
    covariance column of largest norm (the first on ties) and stays
    there; np.linalg.eigh (numpy 2.4) returns (0, 0, 1) for each of these."""
    sx, sy, sz = sides
    vox = np.array(
        [[x, y, z] for x in range(sx) for y in range(sy) for z in range(sz)]
    )
    np.testing.assert_array_equal(principal_orientation(vox), axis)


def _box(sx, sy, sz):
    return np.array([[x, y, z] for x in range(sx) for y in range(sy) for z in range(sz)])


def _orientation_clouds():
    rng = np.random.default_rng(17)
    yield from (rng.integers(0, n, (k, 3)) for n, k in ((3, 5), (6, 30), (20, 300)))
    yield from (rng.normal(size=(k, 3)) * rng.uniform(0.1, 5, 3) for k in (4, 50, 500))
    # tied largest spreads: plates, plates turned about an axis, rings
    for sides in ((3, 1, 3), (1, 3, 3), (5, 2, 5), (2, 5, 5), (4, 4, 1), (7, 7, 2)):
        yield _box(*sides)
    for angle in (0.3, 0.7, 1.1):
        c, s = np.cos(angle), np.sin(angle)
        yield _box(5, 5, 1) @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
        yield _box(6, 1, 6) @ np.array([[1, 0, 0], [0, c, s], [0, -s, c]])
    # near ties: ellipses a hair from round, turned off the axes, keep the
    # iteration going to its cap
    for k, stretch, angle in ((8, 1.001, 0.4), (12, 1.01, 1.0), (60, 1.0001, 2.2)):
        phi = 2 * np.pi * np.arange(k) / k
        ring = np.stack([stretch * np.cos(phi), np.sin(phi), 0.1 * np.cos(phi)], axis=1)
        c, s = np.cos(angle), np.sin(angle)
        yield ring @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])


def test_orientation_equals_linalg_norm_reference():
    """Direct dot-product norms give the power iteration the same bits
    as np.linalg.norm did, on random clouds and on tied spreads where
    the iteration runs to its cap."""
    import features_reference as ref

    for vox in _orientation_clouds():
        got = principal_orientation(vox)
        want = ref.principal_orientation(vox)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
