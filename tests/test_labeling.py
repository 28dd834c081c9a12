"""Connected components, candidate tables and importance ordering."""
import numpy as np
import pytest

import frontend_reference as ref
from photontrack.labeling import (
    BoundingBox,
    ImportanceConfig,
    extract_observations,
    importance_sort,
    label_components,
    neighbor_offsets,
    scores,
    truncate_targets,
)
from frontend_reference import candidates, dense_labels, grid_of


def test_neighbor_offset_counts():
    assert len(neighbor_offsets(6)) == 6
    assert len(neighbor_offsets(18)) == 18
    assert len(neighbor_offsets(26)) == 26
    with pytest.raises(ValueError):
        neighbor_offsets(4)


def test_corner_adjacency_depends_on_connectivity():
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, 1] = True
    assert label_components(mask, 26)[1] == 1
    assert label_components(mask, 18)[1] == 2
    assert label_components(mask, 6)[1] == 2


def test_edge_adjacency_depends_on_connectivity():
    mask = np.zeros((2, 2, 1), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, 0] = True
    assert label_components(mask, 18)[1] == 1
    assert label_components(mask, 6)[1] == 2


def test_labels_follow_scan_order():
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[2, 2, 2] = True  # later in C order
    mask[0, 0, 0] = True
    labels, n = label_components(mask, 6)
    assert n == 2
    labels = dense_labels(labels, mask.shape)
    assert labels[0, 0, 0] == 1
    assert labels[2, 2, 2] == 2


def test_empty_mask():
    labels, n = label_components(np.zeros((3, 3, 3), dtype=bool), 26)
    assert n == 0
    assert not dense_labels(labels, (3, 3, 3)).any()
    assert len(extract_observations(labels, grid_of(np.zeros((3, 3, 3))))) == 0


def test_photon_weighted_centroid():
    grid = np.zeros((4, 1, 1))
    mask = np.zeros((4, 1, 1), dtype=bool)
    mask[0] = mask[2] = True
    grid[0] = 1.0
    grid[2] = 3.0
    labels, n = label_components(mask, 26)
    assert n == 2  # x=0 and x=2 are not 26-adjacent
    mask2 = np.zeros((4, 1, 1), dtype=bool)
    mask2[0] = mask2[1] = mask2[2] = True
    labels, n = label_components(mask2, 26)
    assert n == 1
    obs = extract_observations(labels, grid_of(grid))
    # (0*1 + 1*0 + 2*3) / 4 = 1.5
    assert obs.centroid[0, 0] == pytest.approx(1.5)
    assert obs.total_photons[0] == 4
    assert obs.peak_photons[0] == 3
    assert obs.volume[0] == 3


def test_zero_photon_component_uses_uniform_centroid():
    mask = np.zeros((3, 1, 1), dtype=bool)
    mask[0] = mask[1] = True
    labels, _ = label_components(mask, 6)
    obs = extract_observations(labels, grid_of(np.zeros((3, 1, 1))))
    assert obs.centroid[0, 0] == pytest.approx(0.5)
    assert obs.total_photons[0] == 0


def test_single_photon_component_weights_its_centroid():
    """One photon weighs the centroid onto its voxel: a total of 1 is a
    weighted component, not an unweighted one."""
    mask = np.zeros((1, 1, 5), dtype=bool)
    mask[0, 0, 1:4] = True
    counts = np.zeros((1, 1, 5), dtype=np.int32)
    counts[0, 0, 3] = 1
    labels, n = label_components(mask, 26)
    assert n == 1
    obs = extract_observations(labels, grid_of(counts))
    assert obs.centroid[0].tolist() == [0.0, 0.0, 3.0]
    assert obs.total_photons[0] == 1


def test_observation_geometry():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 2, 2] = True
    grid = np.where(mask, 2, 0)
    labels, _ = label_components(mask, 26)
    obs = extract_observations(labels, grid_of(grid))
    assert tuple(obs.faces[0]) == BoundingBox((1, 2, 2), (3, 2, 2)).faces
    assert obs.cloud(0).shape == (3, 3)


def test_bounding_box_validation():
    with pytest.raises(ValueError):
        BoundingBox((2, 0, 0), (1, 0, 0))


def test_box_faces_round_trip():
    box = BoundingBox((1, -2, 30), (4, 5, 599))
    assert box.faces == (1, -2, 30, 4, 5, 599)
    assert BoundingBox(box.faces[:3], box.faces[3:]) == box


def _fake_obs(volume, photons, label=1):
    return ref.Observation(
        label=label,
        voxels=np.zeros((volume, 3), dtype=int),
        volume=volume,
        bbox=BoundingBox((0, 0, 0), (0, 0, 0)),
        centroid=np.zeros(3),
        total_photons=photons,
        peak_photons=photons,
    )


def test_importance_sort_by_volume_is_stable():
    a = _fake_obs(5, 1, label=1)
    b = _fake_obs(9, 1, label=2)
    c = _fake_obs(5, 99, label=3)
    out = importance_sort(candidates([a, b, c]), ImportanceConfig())
    assert out.label.tolist() == [2, 1, 3]  # a before c: tie keeps order


def test_importance_score_combines_weights():
    cfg = ImportanceConfig(weights={"volume": 1.0, "total_photons": 0.5, "speed": 2.0})
    o = _fake_obs(4, 10)
    assert scores(candidates([o]).rows, cfg, speed=3.0)[0] == pytest.approx(4 + 5 + 6)


def test_score_overflow_is_quiet_and_nan_sorts_last():
    """A term too large for float64 is infinite without a warning, as
    in the Python float sum; opposite infinite terms give NaN, which
    sorts after every other score."""
    cfg = ImportanceConfig(weights={"total_photons": 1e308, "volume": -1e308})
    obs = [
        _fake_obs(10, 10, label=1),  # inf - inf
        _fake_obs(1, 0, label=2),  # -1e308
        _fake_obs(1, 10, label=3),  # inf
        _fake_obs(1, 1, label=4),  # 0
    ]
    got = scores(candidates(obs).rows, cfg)
    assert np.isnan(got[0])
    assert got[1:].tolist() == [ref.observation_score(o, cfg) for o in obs[1:]]
    assert got[1:].tolist() == [-1e308, np.inf, 0.0]
    out = importance_sort(candidates(obs), cfg)
    assert out.label.tolist() == [3, 4, 2, 1]


def test_ranking_equals_reference_objects_sorted_and_sliced():
    """The kept rows are the reference's objects sorted by descending
    Python-summed score, ties in label order, and cut to ``t_max``:
    every column, in order, and the voxel clouds."""
    rng = np.random.default_rng(5)
    counts = rng.integers(1, 4, (14, 14, 14)) * (rng.random((14, 14, 14)) < 0.12)
    labels, n = label_components(counts > 0, 6)
    t_max = 12
    # photons first, then volume, with a negative weight
    cfg = ImportanceConfig(weights={"total_photons": 0.1, "volume": -0.3})
    objs = ref.observations(dense_labels(labels, counts.shape), counts)
    want = sorted(objs, key=lambda o: -ref.observation_score(o, cfg))[:t_max]
    table = extract_observations(labels, grid_of(counts))
    got = truncate_targets(importance_sort(table, cfg), t_max)
    all_scores = [ref.observation_score(o, cfg) for o in objs]
    assert n > 3 * t_max and len(set(all_scores)) < n / 4  # many ties
    assert scores(table.rows, cfg).tolist() == all_scores
    assert len(got) == t_max
    assert got.label.tolist() == [o.label for o in want]
    assert got.centroid.tolist() == [o.centroid.tolist() for o in want]
    assert got.faces.tolist() == [list(o.bbox.faces) for o in want]
    assert got.volume.tolist() == [o.volume for o in want]
    assert got.total_photons.tolist() == [o.total_photons for o in want]
    assert got.peak_photons.tolist() == [o.peak_photons for o in want]
    for i, o in enumerate(want):
        np.testing.assert_array_equal(got.cloud(i), o.voxels)


def test_importance_config_validation():
    with pytest.raises(ValueError):
        ImportanceConfig(weights={"mass": 1.0})
    with pytest.raises(ValueError):
        ImportanceConfig(weights={"volume": 0.0})


def test_truncation():
    obs = candidates([_fake_obs(10 - i, 0, label=i) for i in range(5)])
    kept = truncate_targets(obs, 3)
    assert kept.label.tolist() == [0, 1, 2]
    assert truncate_targets(obs, 99).rows.tolist() == obs.rows.tolist()
    with pytest.raises(ValueError):
        truncate_targets(obs, 0)


def test_two_blob_separation():
    grid = np.zeros((10, 10, 10))
    grid[1:3, 1:3, 1:3] = 4
    grid[6:9, 6:9, 6:9] = 2
    labels, n = label_components(grid > 0, 26)
    assert n == 2
    obs = extract_observations(labels, grid_of(grid))
    assert obs.volume.tolist() == [8, 27]
    assert obs.total_photons[0] == 32
    assert obs.total_photons[1] == 54
    np.testing.assert_allclose(obs.centroid[0], [1.5, 1.5, 1.5])
    np.testing.assert_allclose(obs.centroid[1], [7, 7, 7])
