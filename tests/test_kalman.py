"""Constant-velocity filter behavior at its limit cases, and banks of
filters against filters advanced one at a time."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from photontrack.errors import SingularInnovationError
from photontrack.kalman import (
    KalmanParams,
    bbox_kf_init,
    bbox_kf_predict,
    bbox_kf_update,
    kf_concat,
    kf_init,
    kf_predict,
    kf_update,
)
from photontrack.labeling import BoundingBox


def test_init_state():
    s = kf_init(np.array([1.0, 2.0, 3.0]), KalmanParams())
    assert s.dim == 3
    np.testing.assert_array_equal(s.position, [1, 2, 3])
    np.testing.assert_array_equal(s.velocity, [0, 0, 0])
    np.testing.assert_array_equal(np.diag(s.P), [1, 1, 1, 10, 10, 10])


def test_predict_moves_by_velocity():
    s = kf_init(np.zeros(3), KalmanParams())
    s = replace(s, velocity=np.array([1.0, 2.0, 3.0]))
    s2 = kf_predict(s, dt=2.0)
    np.testing.assert_allclose(s2.position, [2, 4, 6])
    np.testing.assert_allclose(s2.velocity, [1, 2, 3])


def test_predict_rejects_sub_step_dt():
    s = kf_init(np.zeros(3), KalmanParams())
    with pytest.raises(ValueError):
        kf_predict(s, dt=0.5)


def test_predict_inflates_uncertainty():
    s = kf_init(np.zeros(3), KalmanParams())
    s2 = kf_predict(s)
    assert np.all(np.diag(s2.P) >= np.diag(s.P))


def test_update_with_huge_r_barely_moves():
    params = KalmanParams(r=1e9)
    s = kf_init(np.zeros(3), params)
    s = kf_predict(s)
    s2 = kf_update(s, np.array([5.0, 5.0, 5.0]))
    assert np.abs(s2.position).max() < 1e-6


def test_update_with_tiny_r_snaps_to_measurement():
    params = KalmanParams(r=1e-9)
    s = kf_init(np.zeros(3), params)
    s = kf_predict(s)
    z = np.array([5.0, -2.0, 1.0])
    s2 = kf_update(s, z)
    np.testing.assert_allclose(s2.position, z, atol=1e-6)


def test_update_keeps_covariance_symmetric():
    rng = np.random.default_rng(0)
    s = kf_init(rng.normal(size=3), KalmanParams())
    for _ in range(30):
        s = kf_predict(s)
        s = kf_update(s, rng.normal(size=3))
        assert np.abs(s.P - s.P.T).max() < 1e-12


def test_update_rejects_wrong_dimension():
    s = kf_init(np.zeros(3), KalmanParams())
    with pytest.raises(ValueError):
        kf_update(s, np.zeros(2))


def test_singular_innovation_detected():
    s = replace(kf_init(np.zeros(3), KalmanParams(r=0.0)), pp=0.0)
    with pytest.raises(SingularInnovationError):
        kf_update(s, np.zeros(3))
    with pytest.raises(SingularInnovationError):
        kf_update(replace(s, pp=float("inf")), np.zeros(3))


def test_subnormal_innovation_variance_is_singular():
    # 1 / 1e-310 overflows, so the gain would turn a zero innovation
    # into NaN
    s = replace(kf_init(np.zeros(3), KalmanParams(r=0.0)), pp=1e-310)
    with pytest.raises(SingularInnovationError):
        kf_update(s, np.zeros(3))


def test_params_validation():
    with pytest.raises(ValueError):
        KalmanParams(q=-1)
    with pytest.raises(ValueError):
        KalmanParams(p0_pos=0)


def test_bbox_filter_bank_tracks_a_drifting_box():
    params = KalmanParams()
    filters = bbox_kf_init(BoundingBox((0, 0, 0), (2, 2, 2)).faces, params)
    assert filters.dim == 6
    for step in range(1, 25):
        filters = bbox_kf_predict(filters)
        assert filters.position.shape == (6,)
        box = BoundingBox((step, 0, 0), (step + 2, 2, 2))
        filters = bbox_kf_update(filters, box.faces)
    preds = bbox_kf_predict(filters).position
    # after many steps at constant drift the x faces are predicted ahead
    assert preds[0] == pytest.approx(25.0, abs=0.05)
    assert preds[3] == pytest.approx(27.0, abs=0.05)
    assert preds[1] == pytest.approx(0.0, abs=0.05)


def test_bbox_filter_equals_six_scalar_filters():
    rng = np.random.default_rng(3)
    params = KalmanParams(q=0.05, r=0.3)
    box = BoundingBox((4, 5, 100), (6, 8, 103))
    bank = bbox_kf_init(box.faces, params)
    scalars = [kf_init(np.array([float(v)]), params) for v in (*box.min, *box.max)]
    for _ in range(24):
        bank = bbox_kf_predict(bank)
        advanced = [kf_predict(f) for f in scalars]
        assert list(bank.position) == [float(f.position[0]) for f in advanced]
        lo = rng.integers(0, 28, size=3)
        box = BoundingBox(tuple(int(v) for v in lo), tuple(int(v) for v in lo + 3))
        bank = bbox_kf_update(bank, box.faces)
        scalars = [
            kf_update(f, np.array([float(v)]))
            for f, v in zip(advanced, (*box.min, *box.max))
        ]
        assert list(bank.position) == [float(f.position[0]) for f in scalars]
        assert list(bank.velocity) == [float(f.velocity[0]) for f in scalars]
        for f in scalars:
            assert (f.pp, f.pv, f.vv) == (bank.pp, bank.pv, bank.vv)


def _same_bytes(bank, filters):
    """Every row of ``bank`` holds exactly the bits of its filter."""
    for name in ("position", "velocity", "pp", "pv", "vv"):
        want = np.array([getattr(f, name) for f in filters], dtype=np.float64)
        got = getattr(bank, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("d", [3, 6])
def test_bank_equals_filters_one_at_a_time(d):
    """A bank advanced as the tracker advances it (predict every row,
    update a random subset, drop some rows and append newborns) holds
    the bits of filters advanced one at a time: 3,200 steps of 16 rows
    of mixed ages, over 100k row-steps across both dimensions."""
    rng = np.random.default_rng(d)
    params = KalmanParams(
        q=float(rng.uniform(0, 0.5)),
        r=float(rng.uniform(0.01, 2.0)),
        p0_pos=float(rng.uniform(0.5, 2.0)),
        p0_vel=float(rng.uniform(5.0, 20.0)),
    )
    k = 16
    start = rng.normal(0, 10, (k, d))
    bank = kf_init(start, params)
    filters = [kf_init(row, params) for row in start]
    for _ in range(3200):
        dt = float(rng.choice([1.0, 1.5, 2.0]))
        bank = kf_predict(bank, dt)
        filters = [kf_predict(f, dt) for f in filters]
        rows = np.flatnonzero(rng.random(k) < 0.7)
        z = bank.position[rows] + rng.normal(0, 1, (len(rows), d))
        updated = kf_update(bank.take(rows), z)
        for n, i in enumerate(rows):
            filters[i] = kf_update(filters[i], z[n])
        # keep the unmatched rows and the updated ones, then newborns
        born = rng.normal(0, 10, (int(rng.integers(0, 3)), d))
        keep = [i for i in range(k) if i not in set(rows)]
        keep += [k + n for n in range(len(rows))]
        keep = list(rng.permutation(keep))[: k - len(born)]
        keep += [k + len(rows) + n for n in range(len(born))]
        bank = kf_concat([bank, updated, kf_init(born, params)]).take(keep)
        pool = filters + [filters[i] for i in rows] + [kf_init(b, params) for b in born]
        filters = [pool[i] for i in keep]
        _same_bytes(bank, filters)
    assert len(filters) == k


def test_bank_with_one_subnormal_innovation_is_singular():
    params = KalmanParams(r=0.0)
    bank = kf_init(np.zeros((4, 3)), params)
    bank = replace(bank, pp=np.array([1.0, 2.0, 1e-310, 3.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularInnovationError, match="1e-310"):
            kf_update(bank, np.ones((4, 3)))
