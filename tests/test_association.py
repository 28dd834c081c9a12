"""Box matching, score matrices and greedy conflict resolution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photontrack.association import (
    AssocMode,
    AssociationConfig,
    AssociationMatrix,
    OldTargetView,
    bbox_match,
    build_association_matrix,
    expand_bbox,
    resolve_matches,
)
from photontrack.labeling import BoundingBox


box_strategy = st.builds(
    lambda los, sides: BoundingBox(
        tuple(los), tuple(a + s for a, s in zip(los, sides))
    ),
    st.tuples(*[st.integers(-10, 10)] * 3),
    st.tuples(*[st.integers(0, 6)] * 3),
)


@settings(max_examples=100, deadline=None)
@given(b=box_strategy, e1=st.integers(0, 4), e2=st.integers(0, 4))
def test_expansion_is_additive(b, e1, e2):
    assert expand_bbox(expand_bbox(b, e1), e2) == expand_bbox(b, e1 + e2)


@settings(max_examples=100, deadline=None)
@given(a=box_strategy, b=box_strategy, e=st.integers(0, 4))
def test_match_is_symmetric(a, b, e):
    assert bbox_match(a, b, e) == bbox_match(b, a, e)


def test_match_requires_both_containments():
    small = BoundingBox((0, 0, 0), (1, 1, 1))
    big = BoundingBox((-5, -5, -5), (6, 6, 6))
    # the small box sits inside the expanded big one, but not vice versa
    assert expand_bbox(big, 2).contains(small)
    assert not bbox_match(small, big, 2)


def test_match_tolerates_small_drift():
    a = BoundingBox((0, 0, 0), (3, 3, 3))
    b = BoundingBox((2, 1, 0), (5, 4, 3))
    assert bbox_match(a, b, 2)
    assert not bbox_match(a, b, 1)


def test_expand_rejects_negative():
    with pytest.raises(ValueError):
        expand_bbox(BoundingBox((0, 0, 0), (1, 1, 1)), -1)


def _obs(bbox, centroid):
    return type("Obs", (), {"bbox": bbox, "centroid": np.asarray(centroid, float)})()


def test_bbox_mode_matrix():
    cfg = AssociationConfig(expansion_e=1)
    old = [OldTargetView(bbox=BoundingBox((0, 0, 0), (2, 2, 2)))]
    close = _obs(BoundingBox((1, 0, 0), (3, 2, 2)), [2, 1, 1])
    far = _obs(BoundingBox((9, 9, 9), (11, 11, 11)), [10, 10, 10])
    m = build_association_matrix(old, [close, far], cfg)
    np.testing.assert_array_equal(m.scores, [[1.0, 0.0]])


def test_centroid_mode_scores_decay_with_distance():
    cfg = AssociationConfig(mode=AssocMode.KALMAN_CENTROID, gate_radius=5.0)
    old = [
        OldTargetView(
            bbox=BoundingBox((0, 0, 0), (1, 1, 1)), pred_centroid=np.zeros(3)
        )
    ]
    near = _obs(BoundingBox((0, 0, 0), (1, 1, 1)), [1.0, 0, 0])
    mid = _obs(BoundingBox((0, 0, 0), (1, 1, 1)), [3.0, 0, 0])
    out = _obs(BoundingBox((0, 0, 0), (1, 1, 1)), [5.1, 0, 0])
    m = build_association_matrix(old, [near, mid, out], cfg)
    assert m.scores[0, 0] == pytest.approx(1 / 2)
    assert m.scores[0, 1] == pytest.approx(1 / 4)
    assert m.scores[0, 2] == 0.0


def test_centroid_mode_requires_predictions():
    cfg = AssociationConfig(mode=AssocMode.KALMAN_CENTROID)
    old = [OldTargetView(bbox=BoundingBox((0, 0, 0), (1, 1, 1)))]
    with pytest.raises(ValueError):
        build_association_matrix(old, [_obs(BoundingBox((0, 0, 0), (1, 1, 1)), [0, 0, 0])], cfg)


def test_bbox_filter_mode_uses_predicted_box():
    cfg = AssociationConfig(mode=AssocMode.KALMAN_BBOX, expansion_e=1)
    old = [
        OldTargetView(
            bbox=BoundingBox((90, 90, 90), (92, 92, 92)),  # stale
            pred_bbox=BoundingBox((0, 0, 0), (2, 2, 2)),
        )
    ]
    obs = _obs(BoundingBox((1, 1, 1), (3, 3, 3)), [2, 2, 2])
    m = build_association_matrix(old, [obs], cfg)
    assert m.scores[0, 0] == 1.0


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


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 5),
    m=st.integers(0, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_greedy_resolution_matches_oracle(n, m, seed):
    rng = np.random.default_rng(seed)
    # quantized scores force plenty of ties
    scores = rng.integers(0, 4, (n, m)).astype(float) / 2.0
    got = resolve_matches(AssociationMatrix(scores=scores))
    fw, bw = greedy_oracle(scores)
    assert got.fw == fw
    assert got.bw == bw


def test_greedy_tie_breaks_by_row_then_column():
    scores = np.array([[1.0, 1.0], [1.0, 1.0]])
    got = resolve_matches(AssociationMatrix(scores=scores))
    assert got.fw == {0: 0, 1: 1}


def test_resolution_is_one_to_one():
    scores = np.array([[2.0, 1.0], [1.9, 1.8]])
    got = resolve_matches(AssociationMatrix(scores=scores))
    assert got.fw == {0: 0, 1: 1}
    assert got.bw == {0: 0, 1: 1}


def test_config_validation():
    with pytest.raises(ValueError):
        AssociationConfig(expansion_e=-1)
    with pytest.raises(ValueError):
        AssociationConfig(gate_radius=0.0)
