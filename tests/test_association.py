"""Face-distance gating, score matrices and greedy conflict resolution."""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import association_reference as ref
from photontrack.association import (
    AssocMode,
    AssociationConfig,
    AssociationMatrix,
    build_association_matrix,
    resolve_matches,
)
from photontrack.labeling import BoundingBox
from frontend_reference import Observation, candidates


box_strategy = st.builds(
    lambda los, sides: BoundingBox(
        tuple(los), tuple(a + s for a, s in zip(los, sides))
    ),
    st.tuples(*[st.integers(-10, 10)] * 3),
    st.tuples(*[st.integers(0, 6)] * 3),
)
# halves put many pairs exactly on a gate boundary such as (3, 4, 0)
coord = st.integers(-16, 16).map(lambda v: v / 2.0) | st.floats(-20, 20)
point_strategy = st.tuples(coord, coord, coord)
# predicted faces: halves round to even, and a max face drawn apart from
# its min face is as likely below it as above
faces_strategy = st.tuples(*[coord] * 6)


def _row(bbox, position=(0.0, 0.0, 0.0), faces=None):
    """A track as association reads it: its feature row's position and
    box columns, and the predicted centroid and faces of its two
    filters (faces default to the box)."""
    faces = bbox.faces if faces is None else faces
    return SimpleNamespace(
        features=tuple(map(float, (*position, *bbox.faces))),
        kf=SimpleNamespace(position=np.asarray(position, float)),
        bbox_kf=SimpleNamespace(position=np.asarray(faces, float)),
    )


def _build(old, new, cfg):
    """The library's matrix for tracks ``old``, gated on the array the
    tracker hands it under ``cfg.mode``: the box columns of the feature
    rows, or the centroid or face filters' predicted positions."""
    gate = {
        AssocMode.BBOX_EXPANSION: lambda r: r.features[3:9],
        AssocMode.KALMAN_CENTROID: lambda r: r.kf.position,
        AssocMode.KALMAN_BBOX: lambda r: r.bbox_kf.position,
    }[cfg.mode]
    return build_association_matrix([gate(r) for r in old], candidates(new), cfg)


def _obs(bbox, centroid=(0.0, 0.0, 0.0)):
    return Observation(
        label=1,
        voxels=np.zeros((0, 3), dtype=int),
        volume=0,
        bbox=bbox,
        centroid=np.asarray(centroid, float),
        total_photons=0,
        peak_photons=0,
    )


def _matches(a, b, e):
    cfg = AssociationConfig(expansion_e=e)
    return _build([_row(a)], [_obs(b)], cfg).scores[0, 0] == 1.0


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(box_strategy, max_size=5),
    b=st.lists(box_strategy, max_size=5),
    e=st.integers(0, 4),
)
def test_match_is_symmetric(a, b, e):
    cfg = AssociationConfig(expansion_e=e)
    ab = _build([_row(x) for x in a], [_obs(y) for y in b], cfg)
    ba = _build([_row(y) for y in b], [_obs(x) for x in a], cfg)
    np.testing.assert_array_equal(ab.scores, ba.scores.T)


def test_match_requires_both_containments():
    small = BoundingBox((0, 0, 0), (1, 1, 1))
    big = BoundingBox((-5, -5, -5), (6, 6, 6))
    # the small box sits inside the expanded big one, but not vice versa
    assert not _matches(small, big, 2)
    assert not _matches(big, small, 2)


def test_match_tolerates_small_drift():
    a = BoundingBox((0, 0, 0), (3, 3, 3))
    b = BoundingBox((2, 1, 0), (5, 4, 3))
    assert _matches(a, b, 2)
    assert not _matches(a, b, 1)


def test_bbox_mode_matrix():
    cfg = AssociationConfig(expansion_e=1)
    old = [_row(BoundingBox((0, 0, 0), (2, 2, 2)))]
    close = _obs(BoundingBox((1, 0, 0), (3, 2, 2)), [2, 1, 1])
    far = _obs(BoundingBox((9, 9, 9), (11, 11, 11)), [10, 10, 10])
    m = _build(old, [close, far], cfg)
    np.testing.assert_array_equal(m.scores, [[1.0, 0.0]])


def test_empty_sides_give_empty_matrices():
    box = BoundingBox((0, 0, 0), (1, 1, 1))
    for mode in AssocMode:
        cfg = AssociationConfig(mode=mode)
        row = _row(box)
        assert _build([], [_obs(box)], cfg).scores.shape == (0, 1)
        assert _build([row], [], cfg).scores.shape == (1, 0)


def test_centroid_mode_scores_decay_with_distance():
    cfg = AssociationConfig(mode=AssocMode.KALMAN_CENTROID, gate_radius=5.0)
    box = BoundingBox((0, 0, 0), (1, 1, 1))
    old = [_row(box)]
    near = _obs(box, [1.0, 0, 0])
    mid = _obs(box, [3.0, 0, 0])
    out = _obs(box, [5.1, 0, 0])
    m = _build(old, [near, mid, out], cfg)
    assert m.scores[0, 0] == pytest.approx(1 / 2)
    assert m.scores[0, 1] == pytest.approx(1 / 4)
    assert m.scores[0, 2] == 0.0


def test_gate_boundary_is_inclusive():
    box = BoundingBox((0, 0, 0), (1, 1, 1))
    old = [_row(box)]
    obs = [_obs(box, [3.0, 4.0, 0.0])]
    at = AssociationConfig(mode=AssocMode.KALMAN_CENTROID, gate_radius=5.0)
    inside = AssociationConfig(mode=AssocMode.KALMAN_CENTROID, gate_radius=5.0 - 1e-9)
    assert _build(old, obs, at).scores[0, 0] == 1 / 6
    assert _build(old, obs, inside).scores[0, 0] == 0.0


def test_bbox_filter_mode_uses_predicted_box():
    cfg = AssociationConfig(mode=AssocMode.KALMAN_BBOX, expansion_e=1)
    old = [
        _row(
            BoundingBox((90, 90, 90), (92, 92, 92)),  # stale
            faces=(0.0, 0.0, 0.0, 2.0, 2.0, 2.0),
        )
    ]
    obs = _obs(BoundingBox((1, 1, 1), (3, 3, 3)), [2, 2, 2])
    m = _build(old, [obs], cfg)
    assert m.scores[0, 0] == 1.0


@pytest.mark.parametrize(
    "faces, box",
    [
        ([-0.5, 0.5, -1.5, 1.5, 2.5, 1.5], ((0, 0, -2), (2, 2, 2))),
        ([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], ((-2, -2, 0), (0, 2, 2))),
        # max faces that round below their min faces are raised to them
        ([2.5, 1.5, 0.5, -0.5, 1.4, 0.49], ((2, 2, 0), (2, 2, 0))),
        ([3.0, 7.2, 0.0, 1.2, 6.6, 4.0], ((3, 7, 0), (3, 7, 4))),
        ([-0.5, 0.5, 1.5, 2.5, 3.5, 4.5], ((0, 0, 2), (2, 4, 4))),
    ],
)
def test_bbox_filter_mode_rounds_predicted_faces(faces, box):
    """At e = 0 a row matches only the box its faces round to, halves to
    even: not one grown by a voxel on any single face."""
    want = BoundingBox(*box)
    assert ref.predicted_box(faces) == want
    grown = [
        tuple(f + (k == i) * (1 if i >= 3 else -1) for k, f in enumerate(want.faces))
        for i in range(6)
    ]
    obs = [_obs(want)] + [_obs(BoundingBox(g[:3], g[3:])) for g in grown]
    stale = _row(BoundingBox((90, 90, 90), (92, 92, 92)), faces=faces)
    cfg = AssociationConfig(mode=AssocMode.KALMAN_BBOX, expansion_e=0)
    scores = _build([stale], obs, cfg).scores
    np.testing.assert_array_equal(scores, [[1.0] + [0.0] * 6])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(box_strategy, faces_strategy), max_size=6),
    cols=st.lists(box_strategy, max_size=6),
    e=st.integers(0, 4),
    mode=st.sampled_from([AssocMode.BBOX_EXPANSION, AssocMode.KALMAN_BBOX]),
)
def test_box_modes_equal_reference(rows, cols, e, mode):
    cfg = AssociationConfig(mode=mode, expansion_e=e)
    old = [_row(b, faces=f) for b, f in rows]
    new = [_obs(b) for b in cols]
    got = _build(old, new, cfg).scores
    want = ref.build_association_matrix(old, new, cfg).scores
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(
    preds=st.lists(point_strategy, max_size=6),
    cents=st.lists(point_strategy, max_size=6),
    radius=st.sampled_from([0.5, 1.0, 2.5, 5.0, 7.5]) | st.floats(0.01, 40),
)
def test_centroid_mode_matches_reference(preds, cents, radius):
    cfg = AssociationConfig(mode=AssocMode.KALMAN_CENTROID, gate_radius=radius)
    box = BoundingBox((0, 0, 0), (0, 0, 0))
    old = [_row(box, position=p) for p in preds]
    new = [_obs(box, c) for c in cents]
    got = _build(old, new, cfg).scores
    want = ref.build_association_matrix(old, new, cfg).scores
    assert got.dtype == want.dtype and got.shape == want.shape
    dist = np.array(
        [[np.linalg.norm(np.array(p) - c) for c in cents] for p in preds]
    ).reshape(got.shape)
    # the distance may differ by an ulp, so the gate is compared only
    # where that cannot move a pair across the boundary
    clear = np.abs(dist - radius) > np.spacing(radius)
    np.testing.assert_array_equal((got > 0)[clear], (want > 0)[clear])
    np.testing.assert_array_max_ulp(got[clear], want[clear], maxulp=1)


def greedy_oracle(scores):
    """Plain repeated scan: best positive score wins, first occurrence
    breaks ties."""
    scores = [row[:] for row in scores.tolist()]
    fw, bw = {}, {}
    while True:
        best, where = 0.0, None
        for i, row in enumerate(scores):
            for j, v in enumerate(row):
                if v > best:
                    best, where = v, (i, j)
        if where is None:
            return fw, bw
        i, j = where
        fw[i], bw[j] = j, i
        scores[i] = [-1.0] * len(scores[i])
        for row in scores:
            row[j] = -1.0


TIED_SCORES = np.array([-1.0, 0.0, 0.25, 1 / 3, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 12),
    m=st.integers(0, 12),
    tied=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_greedy_resolution_matches_oracle(n, m, tied, seed):
    rng = np.random.default_rng(seed)
    if tied:
        # a few distinct values, zero and negative included, force ties
        scores = rng.choice(TIED_SCORES, (n, m))
    else:
        scores = rng.uniform(-1.0, 1.0, (n, m))
    got = resolve_matches(AssociationMatrix(scores=scores))
    fw, bw = greedy_oracle(scores)
    # the tracker's bank rows follow the pairing's insertion order
    assert list(got.fw.items()) == list(fw.items())
    assert {j: i for i, j in got.fw.items()} == bw


def test_greedy_tie_breaks_by_row_then_column():
    scores = np.array([[1.0, 1.0], [1.0, 1.0]])
    got = resolve_matches(AssociationMatrix(scores=scores))
    assert got.fw == {0: 0, 1: 1}


def test_resolution_accepts_bool_and_integer_scores():
    gate = np.array([[True, True], [True, False]])
    want = {0: 0}
    for scores in (gate, gate.astype(np.int64), gate.astype(np.float32)):
        assert resolve_matches(AssociationMatrix(scores=scores)).fw == want


def test_resolution_is_one_to_one():
    scores = np.array([[2.0, 1.0], [1.9, 1.8]])
    got = resolve_matches(AssociationMatrix(scores=scores))
    assert got.fw == {0: 0, 1: 1}
    assert len(set(got.fw.values())) == len(got.fw)


def test_config_validation():
    with pytest.raises(ValueError):
        AssociationConfig(expansion_e=-1)
    with pytest.raises(ValueError):
        AssociationConfig(gate_radius=0.0)
