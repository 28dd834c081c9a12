"""Feature vector layout and geometry descriptors."""
import csv
import io
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import features_reference as ref
from photontrack import features, track_manager
from photontrack.association import AssocMode, AssociationConfig
from photontrack.cli import parse_config
from photontrack.features import (
    FEATURE_NAMES,
    FeatureVector,
    compute_features,
    covariances,
    principal_axes,
    principal_orientations,
)
from photontrack.kalman import KalmanParams, kf_init, kf_predict, kf_update
from photontrack.labeling import BoundingBox
from photontrack.outputs import write_tracks_csv
from photontrack.pipeline import run_tracking
from photontrack.raw_ingest import SensorConfig
from photontrack.simulator import SceneSpec, TargetSpec, simulate, write_raw
from photontrack.track_manager import Track, Tracker, TrackerConfig, TrackState
from frontend_reference import Observation, candidates
from test_reference_outputs import REL_TOL

EPS = np.finfo(np.float64).eps


def principal_orientation(voxels):
    """The orientation of one cloud, from a batch of one."""
    return principal_orientations([voxels])[0]


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


def _obs(voxels, centroid=None, photons=40):
    voxels = np.asarray(voxels)
    return Observation(
        label=1,
        voxels=voxels,
        volume=len(voxels),
        bbox=BoundingBox(
            tuple(int(v) for v in voxels.min(axis=0)),
            tuple(int(v) for v in voxels.max(axis=0)),
        ),
        centroid=voxels.mean(axis=0) if centroid is None else np.asarray(centroid, float),
        total_photons=photons,
        peak_photons=9,
    )


def _bank(observations):
    """The tracker's candidate rows and voxel clouds of ``observations``."""
    table = candidates(observations)
    return table.rows[:, :12], [table.cloud(i) for i in range(len(table))]


def _features(centroid, velocity, voxels, prev=None):
    """One matched track's descriptor, from a bank of one filter."""
    kf = replace(
        kf_init(np.array([centroid], float), KalmanParams()),
        velocity=np.array([velocity], float),
    )
    t = Track(1, TrackState.MATCHED, 0, prev)
    return compute_features([t], kf, *_bank([_obs(voxels, centroid)]))[0]


def test_compute_features_first_step_has_zero_accel():
    vox = np.array([[i, 0, 0] for i in range(4)])
    fv = _features([1.5, 0, 0], [2.0, 0, 0], vox)
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
    prev = _features([0, 0, 0], [1.0, 0, 0], vox)
    fv = _features([1, 0, 0], [2.5, 1.0, 0], vox, prev)
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


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_accurate(axis, voxels):
    """One cloud's axis against its covariance C and the power-iteration
    reference: an eigenvector of C's largest eigenvalue l1 to a few
    ulps, with a Rayleigh quotient no lower than the reference's, and,
    where the reference met its 1e-10 stopping rule, the reference's
    axis up to that rule's error.  On a tie (the top two eigenvalues
    within the tie tolerance) the axis may sit anywhere in the tied
    plane, off the top eigenvalue by up to the gap l1 - l2, and the
    reference's error is set by the gap l1 - l3 below the plane."""
    vref, steps = ref.power_iteration(voxels)
    if steps == 0:  # a degenerate cloud
        assert _same_bits(axis, vref)
        return
    C = covariances([voxels])[0]
    l3, l2, l1 = np.linalg.eigvalsh(C)
    tied = l1 - l2 <= features._TIE * l1
    slack = 4 * EPS * l1 + (l1 - l2) * tied
    rayleigh = axis @ C @ axis
    assert np.linalg.norm(C @ axis - rayleigh * axis) <= slack
    assert rayleigh >= vref @ C @ vref - slack
    if steps is not None:
        gap = l1 - (l3 if tied else l2)
        off = min(np.linalg.norm(axis - vref), np.linalg.norm(axis + vref))
        assert off <= (1e-10 + 4 * EPS) * l1 / gap
    assert axis[np.flatnonzero(np.abs(axis) > features._SIZABLE)[0]] > 0


def test_orientation_agrees_with_power_iteration_reference():
    """Each cloud's axis is an accurate top eigenvector and meets the
    power-iteration reference where that converged, on random clouds,
    on tied spreads and on near ties where the reference stops at its
    iteration cap short of the top eigenvector.  The comparison is up
    to sign: the reference may pick its sign by a component its own
    stopping error leaves."""
    clouds = list(_orientation_clouds())
    got = principal_orientations(clouds)
    assert got.shape == (len(clouds), 3)
    capped = 0
    for row, vox in zip(got, clouds):
        _assert_accurate(row, vox)
        capped += ref.power_iteration(vox)[1] is None
    assert capped >= 3


def test_orientation_batch_mixes_degenerate_and_capped_clouds():
    """Fallback clouds (empty, one point, an isotropic cube) between
    near-tied clouds leave every other row as the one-cloud call gives
    it, bit for bit, and each row accurate."""
    capped = list(_orientation_clouds())[-3:]
    degenerate = [np.zeros((0, 3)), np.array([[4, 5, 6]]), _box(3, 3, 3)]
    clouds = [c for pair in zip(degenerate, capped) for c in pair]
    clouds += [capped[0], np.zeros((0, 3)), capped[0]]
    got = principal_orientations(clouds)
    for row, vox in zip(got, clouds):
        assert _same_bits(row, principal_orientation(vox))
        _assert_accurate(row, vox)
    np.testing.assert_array_equal(got[[0, 2, 4, 7]], [[1, 0, 0]] * 4)
    assert principal_orientations([]).shape == (0, 3)


def test_covariances_are_each_clouds_own_product_to_rounding():
    """On random integer clouds of 1-299 voxels, mixed with empty and
    one-point clouds, every batched entry is within (n + 1) eps
    sqrt(Cii Cjj) of the cloud's own BLAS ``c.T @ c / n``, the bound on
    either n-term dot product's rounding; the degenerate clouds have
    zero covariance and give exactly the +x axis."""
    rng = np.random.default_rng(37)
    for _ in range(150):
        clouds = [
            rng.integers(0, rng.integers(2, 40), (rng.integers(1, 300), 3))
            + rng.integers(0, 400, 3)
            for _ in range(rng.integers(1, 10))
        ]
        for vox in (np.zeros((0, 3), int), rng.integers(0, 400, (1, 3))):
            clouds.insert(rng.integers(0, len(clouds) + 1), vox)
        got = covariances(clouds)
        for C, vox in zip(got, clouds):
            if len(vox) < 2:
                assert _same_bits(C, np.zeros((3, 3)))
                continue
            want = ref.covariance(vox)
            scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
            assert (np.abs(C - want) <= (len(vox) + 1) * EPS * scale).all()
        few = [i for i, vox in enumerate(clouds) if len(vox) < 2]
        np.testing.assert_array_equal(
            principal_orientations(clouds)[few], [[1.0, 0.0, 0.0]] * len(few)
        )


def test_orientation_is_stable_under_rounding():
    """A few ulps more or less in each covariance entry, as another BLAS
    or LAPACK build may round, move no axis by a tenth of the golden
    files' REL_TOL: neither at gaps 10x outside the tie tolerance, where
    eigh's vector error is ~eps / gap, nor on exact ties, where the axis
    is the start column's projection onto the tied plane.  Half the axes
    have an exactly zero first component with the second eigenvector
    along it, so rounding noise there must not pick the sign."""
    rng = np.random.default_rng(41)
    covs = []
    for gap in (10 * features._TIE, 0.0):
        for _ in range(40):
            turned = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            a = rng.uniform(0, 2 * np.pi)
            lead = np.array([[0, 1, 0], [np.cos(a), 0, 0], [np.sin(a), 0, 0]])
            lead[:, 2] = np.cross(lead[:, 0], lead[:, 1])
            for V in (turned, lead):
                lam = np.array([1, 1 - gap, rng.uniform(0.1, 0.6)])
                covs.append((V * lam * rng.uniform(0.5, 50)) @ V.T)
    covs = np.array(covs)
    covs = (covs + covs.transpose(0, 2, 1)) / 2
    axes = principal_axes(covs)
    for _ in range(4):
        ulps = rng.integers(-4, 5, covs.shape)
        ulps = ulps + ulps.transpose(0, 2, 1)
        nudged = covs + ulps * EPS * np.abs(covs).max(axis=(1, 2))[:, None, None]
        assert np.abs(principal_axes(nudged) - axes).max() < REL_TOL / 10


def _filter_row(kf, i):
    """Row i of a bank as the one-track reference reads a filter."""
    return SimpleNamespace(position=kf.position[i], velocity=kf.velocity[i])


def _same_but_orientation(got, want, cloud):
    """Bit-equal to the one-track descriptor in every column but the
    orientation, which is the cloud's own ``principal_orientations``
    row (refereed against power iteration above)."""
    return _same_bits(got[:19] + got[22:], want[:19] + want[22:]) and _same_bits(
        got[19:22], principal_orientation(cloud)
    )


def test_compute_features_equals_one_track_reference():
    """Newborn, matched and coasting rows in one call, each equal as
    bytes to the one-track descriptor but for the orientation."""
    rng = np.random.default_rng(23)
    clouds = list(_orientation_clouds())
    k = len(clouds)
    kf = replace(
        kf_init(rng.normal(10, 8, (k, 3)), KalmanParams()),
        velocity=rng.normal(0, 1, (k, 3)) * (rng.random((k, 1)) < 0.8),
    )
    tracks, observations = [], []
    for i, vox in enumerate(clouds):
        vox = np.rint(vox * 3).astype(int) + 10
        prev = None
        if i % 3:
            prev = FeatureVector(*rng.normal(0, 5, 22), float(rng.integers(1, 9)))
        tracks.append(Track(i, TrackState.MATCHED, i % 4 // 2, prev))
        observations.append(_obs(vox))
    obs, bank = _bank(observations)
    got = compute_features(tracks, kf, obs, bank)
    assert len(got) == k and {t.bad_count for t in tracks} == {0, 1}
    for i, (t, f) in enumerate(zip(tracks, got)):
        want = ref.compute_features(
            SimpleNamespace(
                row=obs[i], cloud=bank[i], bad_count=t.bad_count, kf=_filter_row(kf, i)
            ),
            t.features,
        )
        assert type(f) is FeatureVector and _same_but_orientation(f, want, bank[i])
    assert compute_features([], kf.take([]), obs[:0], []) == []


def test_tracker_features_equal_reference_under_kalman_bbox(monkeypatch):
    """Every row the tracker computes over a run with misses, coasting
    rows included, equals the one-track descriptor as bytes but for the
    orientation."""
    batched = track_manager.compute_features
    seen = {"rows": 0, "coasting": 0}

    def checked(tracks, kf, obs, clouds):
        got = batched(tracks, kf, obs, clouds)
        for i, (t, f) in enumerate(zip(tracks, got)):
            row = SimpleNamespace(
                row=obs[i], cloud=clouds[i], bad_count=t.bad_count, kf=_filter_row(kf, i)
            )
            want = ref.compute_features(row, t.features)
            assert _same_but_orientation(f, want, clouds[i])
            seen["rows"] += 1
            seen["coasting"] += t.bad_count > 0
        return got

    monkeypatch.setattr(track_manager, "compute_features", checked)
    rng = np.random.default_rng(29)
    cfg = TrackerConfig(
        t_max=8, assoc=AssociationConfig(mode=AssocMode.KALMAN_BBOX, expansion_e=2)
    )
    tracker = Tracker(cfg)
    starts = rng.uniform(5, 25, (6, 3)) * (1, 1, 20)
    drift = rng.uniform(-0.6, 0.6, (6, 3))
    for step in range(30):
        obs = []
        for start, v in zip(starts, drift):
            if rng.random() < 0.25:
                continue
            vox = np.rint(start + step * v + rng.normal(0, 1.2, (12, 3))).astype(int)
            obs.append(_obs(vox, photons=int(rng.integers(20, 80))))
        tracker.step(candidates(obs))
    assert seen["rows"] > 100 and seen["coasting"] > 10
