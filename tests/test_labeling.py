"""Connected components, observations and importance ordering."""
import numpy as np
import pytest

from photontrack.labeling import (
    BoundingBox,
    ImportanceConfig,
    extract_observations,
    importance_sort,
    label_components,
    neighbor_offsets,
    observation_score,
    truncate_targets,
)
from frontend_reference import dense_labels, grid_of


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
    assert extract_observations(labels, grid_of(np.zeros((3, 3, 3)))) == []


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
    obs = extract_observations(labels, grid_of(grid))[0]
    # (0*1 + 1*0 + 2*3) / 4 = 1.5
    assert obs.centroid[0] == pytest.approx(1.5)
    assert obs.total_photons == 4
    assert obs.peak_photons == 3
    assert obs.volume == 3


def test_zero_photon_component_uses_uniform_centroid():
    mask = np.zeros((3, 1, 1), dtype=bool)
    mask[0] = mask[1] = True
    labels, _ = label_components(mask, 6)
    obs = extract_observations(labels, grid_of(np.zeros((3, 1, 1))))[0]
    assert obs.centroid[0] == pytest.approx(0.5)
    assert obs.total_photons == 0


def test_observation_geometry():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 2, 2] = True
    grid = np.where(mask, 2, 0)
    labels, _ = label_components(mask, 26)
    obs = extract_observations(labels, grid_of(grid))[0]
    assert obs.bbox == BoundingBox((1, 2, 2), (3, 2, 2))
    assert obs.voxels.shape == (3, 3)


def test_bounding_box_validation():
    with pytest.raises(ValueError):
        BoundingBox((2, 0, 0), (1, 0, 0))


def test_box_faces_round_trip():
    box = BoundingBox((1, -2, 30), (4, 5, 599))
    assert box.faces == (1, -2, 30, 4, 5, 599)
    assert BoundingBox.from_faces(box.faces) == box
    assert BoundingBox.from_faces(np.array(box.faces, dtype=np.float64)) == box
    again = BoundingBox.from_faces(np.array(box.faces) + 0.3)
    assert again == box
    assert all(type(v) is int for v in again.faces)


def test_box_from_faces_raises_a_max_face_below_its_min():
    box = BoundingBox.from_faces(np.array([3.0, 7.2, 0.0, 1.2, 6.6, 4.0]))
    assert box == BoundingBox((3, 7, 0), (3, 7, 4))


def test_box_from_faces_rounds_halves_to_even():
    box = BoundingBox.from_faces(np.array([-0.5, 0.5, 1.5, 2.5, 3.5, 4.5]))
    assert box == BoundingBox((0, 0, 2), (2, 4, 4))


@pytest.mark.parametrize(
    "faces",
    [
        [-0.5, 0.5, -1.5, 1.5, 2.5, 1.5],
        [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5],
        [2.5, 1.5, 0.5, -0.5, 1.4, 0.49],  # max faces round below their min
    ],
)
def test_box_from_faces_matches_numpy_rounding(faces):
    faces = np.array(faces)
    lo = np.rint(faces[:3]).astype(int)
    hi = np.maximum(np.rint(faces[3:]).astype(int), lo)
    assert BoundingBox.from_faces(faces).faces == (*lo.tolist(), *hi.tolist())


def _fake_obs(volume, photons, label=1):
    vox = np.zeros((volume, 3), dtype=int)
    return type(
        "Obs",
        (),
        {
            "label": label,
            "volume": volume,
            "total_photons": photons,
            "voxels": vox,
            "centroid": np.zeros(3),
            "peak_photons": photons,
            "bbox": BoundingBox((0, 0, 0), (0, 0, 0)),
        },
    )()


def test_importance_sort_by_volume_is_stable():
    a = _fake_obs(5, 1, label=1)
    b = _fake_obs(9, 1, label=2)
    c = _fake_obs(5, 99, label=3)
    out = importance_sort([a, b, c], ImportanceConfig())
    assert [o.label for o in out] == [2, 1, 3]  # a before c: tie keeps order


def test_importance_score_combines_weights():
    cfg = ImportanceConfig(weights={"volume": 1.0, "total_photons": 0.5, "speed": 2.0})
    o = _fake_obs(4, 10)
    assert observation_score(o, cfg, speed=3.0) == pytest.approx(4 + 5 + 6)


def test_importance_config_validation():
    with pytest.raises(ValueError):
        ImportanceConfig(weights={"mass": 1.0})
    with pytest.raises(ValueError):
        ImportanceConfig(weights={"volume": 0.0})


def test_truncation():
    obs = [_fake_obs(10 - i, 0, label=i) for i in range(5)]
    kept = truncate_targets(obs, 3)
    assert [o.label for o in kept] == [0, 1, 2]
    assert truncate_targets(obs, 99) == obs
    with pytest.raises(ValueError):
        truncate_targets(obs, 0)


def test_two_blob_separation():
    grid = np.zeros((10, 10, 10))
    grid[1:3, 1:3, 1:3] = 4
    grid[6:9, 6:9, 6:9] = 2
    labels, n = label_components(grid > 0, 26)
    assert n == 2
    obs = extract_observations(labels, grid_of(grid))
    assert [o.volume for o in obs] == [8, 27]
    assert obs[0].total_photons == 32
    assert obs[1].total_photons == 54
    np.testing.assert_allclose(obs[0].centroid, [1.5, 1.5, 1.5])
    np.testing.assert_allclose(obs[1].centroid, [7, 7, 7])
