"""Synthetic scene rendering and the scene file format."""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photontrack.errors import SceneParseError
from photontrack.raw_ingest import FrameGroup, SensorConfig
from photontrack.simulator import (
    SceneSpec,
    TargetSpec,
    parse_scene,
    simulate,
    write_raw,
)
from photontrack.voxelizer import build_histogram

SENSOR = SensorConfig()


def test_empty_scene_is_all_ceiling():
    frames, truth = simulate(SceneSpec(n_groups=2), SENSOR)
    assert frames.shape == (400, 32, 32)
    assert frames.dtype == np.uint16
    assert (frames == SENSOR.ceiling).all()
    assert truth.records == ((), ())


def test_single_voxel_target_hits_one_pixel():
    spec = TargetSpec(shape=(1, 1, 1), start=(5.0, 7.0, 100.0), reflectivity=50.0)
    frames, truth = simulate(SceneSpec(targets=(spec,), n_groups=1, seed=3), SENSOR)
    # reflectivity 50 makes a missed pulse vanishingly rare
    assert (frames[:, 7, 5] == 100).all()
    others = np.ones((32, 32), dtype=bool)
    others[7, 5] = False
    assert (frames[:, others] == SENSOR.ceiling).all()
    grid = build_histogram(FrameGroup(frames=frames, group_index=0), SENSOR)
    assert grid.counts[5, 7, 90] == 200
    assert grid.counts.sum() == 200
    rec = truth.records[0][0]
    assert rec.alive
    assert rec.centroid == (5.0, 7.0, 90.0)
    assert rec.bbox.min == (5, 7, 90) and rec.bbox.max == (5, 7, 90)


def test_front_face_shadows_the_body():
    # a 3-deep box emits from its nearest plane only
    spec = TargetSpec(shape=(3, 3, 3), start=(10.0, 10.0, 200.0), reflectivity=80.0)
    frames, _ = simulate(SceneSpec(targets=(spec,), n_groups=1, seed=5), SENSOR)
    face = frames[:, 9:12, 9:12]
    assert set(np.unique(face)) <= {199, SENSOR.ceiling}
    assert (face == 199).mean() > 0.99


def test_simulation_is_reproducible():
    scene = SceneSpec(
        targets=(TargetSpec((2, 2, 2), (8.0, 8.0, 300.0), 1.5),),
        noise_rate=20.0,
        n_groups=3,
        seed=11,
    )
    a, _ = simulate(scene, SENSOR)
    b, _ = simulate(scene, SENSOR)
    assert a.tobytes() == b.tobytes()


def test_groups_use_independent_streams():
    scene = SceneSpec(noise_rate=30.0, n_groups=2, seed=1)
    frames, _ = simulate(scene, SENSOR)
    assert frames[:200].tobytes() != frames[200:].tobytes()


def test_noise_pixel_fraction_matches_poisson_thinning():
    lam, n_groups = 50.0, 50
    scene = SceneSpec(noise_rate=lam, n_groups=n_groups, seed=13)
    frames, _ = simulate(scene, SENSOR)
    # each (frame, pixel) slot independently records a photon with
    # p = 1 - exp(-lam / n_pixels)
    n_slots = n_groups * 200 * 1024
    p = 1.0 - np.exp(-lam / 1024.0)
    phat = (frames != SENSOR.ceiling).mean()
    sigma = np.sqrt(p * (1 - p) / n_slots)
    assert abs(phat - p) < 4 * sigma


def test_noise_bins_cover_the_full_range():
    scene = SceneSpec(noise_rate=200.0, n_groups=2, seed=17)
    frames, _ = simulate(scene, SENSOR)
    vals = frames[frames != SENSOR.ceiling]
    assert vals.min() < 30
    assert vals.max() > SENSOR.ceiling - 30
    assert (vals < SENSOR.ceiling).all()


def test_occlusion_between_stacked_targets():
    near = TargetSpec((2, 2, 1), (5.0, 5.0, 100.0), 3.0)
    far = TargetSpec((2, 2, 1), (5.0, 5.0, 400.0), 3.0)
    frames, _ = simulate(SceneSpec(targets=(near, far), n_groups=2, seed=19), SENSOR)
    vals = set(np.unique(frames[:, 4:6, 4:6]))
    assert vals <= {100, 400, SENSOR.ceiling}
    assert 100 in vals and 400 in vals
    # a pixel can record the far target only on pulses the near one missed
    n_near = (frames == 100).sum()
    n_far = (frames == 400).sum()
    assert n_near > n_far


def test_motion_follows_velocity_segments():
    spec = TargetSpec(
        shape=(1, 1, 1),
        start=(5.0, 5.0, 100.0),
        reflectivity=30.0,
        velocity_segments=((0, (1.0, 0.0, 0.0)), (2, (0.0, 0.0, 10.0))),
    )
    scene = SceneSpec(targets=(spec,), n_groups=4, seed=23)
    frames, truth = simulate(scene, SENSOR)
    centroids = [truth.records[n][0].centroid for n in range(4)]
    assert centroids[0] == (5.0, 5.0, 90.0)
    assert centroids[1] == (6.0, 5.0, 90.0)
    assert centroids[2] == (7.0, 5.0, 90.0)  # velocity switch applies after
    assert centroids[3] == (7.0, 5.0, 100.0)
    assert (frames[400:600, 5, 7] == 100).all()
    assert (frames[600:800, 5, 7] == 110).all()


def test_target_leaving_the_view_goes_dead():
    spec = TargetSpec(
        shape=(1, 1, 1),
        start=(31.0, 5.0, 100.0),
        reflectivity=10.0,
        velocity_segments=((0, (1.0, 0.0, 0.0)),),
    )
    frames, truth = simulate(SceneSpec(targets=(spec,), n_groups=3, seed=29), SENSOR)
    assert truth.records[0][0].alive
    assert not truth.records[1][0].alive
    assert truth.records[1][0].bbox is None
    assert (frames[200:] == SENSOR.ceiling).all()


def test_target_outside_range_window_is_dead():
    spec = TargetSpec(shape=(1, 1, 1), start=(5.0, 5.0, 4.0), reflectivity=10.0)
    _, truth = simulate(SceneSpec(targets=(spec,), n_groups=1), SENSOR)
    assert not truth.records[0][0].alive


def test_write_raw_returns_byte_count(tmp_path):
    frames = np.full((3, 32, 32), SENSOR.ceiling, dtype=np.uint16)
    path = tmp_path / "x.raw"
    assert write_raw(frames, path) == 3 * 2048
    assert path.stat().st_size == 3 * 2048
    buf = io.BytesIO()
    assert write_raw(frames, buf) == 3 * 2048


def test_velocity_at_picks_latest_segment():
    spec = TargetSpec(
        shape=(1, 1, 1),
        start=(0, 0, 100),
        reflectivity=1.0,
        velocity_segments=((0, (1.0, 0, 0)), (5, (0, 2.0, 0))),
    )
    assert spec.velocity_at(0).tolist() == [1, 0, 0]
    assert spec.velocity_at(4).tolist() == [1, 0, 0]
    assert spec.velocity_at(5).tolist() == [0, 2, 0]
    assert spec.velocity_at(99).tolist() == [0, 2, 0]


def test_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec(shape=(0, 1, 1), start=(0, 0, 0), reflectivity=1.0)
    with pytest.raises(ValueError):
        TargetSpec(shape=(1, 1, 1), start=(0, 0, 0), reflectivity=-1.0)
    with pytest.raises(ValueError):
        TargetSpec(
            shape=(1, 1, 1),
            start=(0, 0, 0),
            reflectivity=1.0,
            velocity_segments=((3, (0, 0, 0)),),
        )
    with pytest.raises(ValueError):
        SceneSpec(n_groups=0)
    with pytest.raises(ValueError):
        SceneSpec(noise_rate=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e30])
def test_spec_rejects_non_finite_values_and_unsampleable_rates(bad):
    ok = dict(shape=(1, 1, 1), start=(0.0, 0.0, 0.0), reflectivity=1.0)
    with pytest.raises(ValueError, match="reflectivity"):
        TargetSpec(**ok | {"reflectivity": bad})
    with pytest.raises(ValueError, match="noise_rate"):
        SceneSpec(noise_rate=bad)
    if math.isfinite(bad):
        return  # large positions and velocities are fine
    with pytest.raises(ValueError, match="start"):
        TargetSpec(**ok | {"start": (0.0, bad, 0.0)})
    with pytest.raises(ValueError, match="velocities"):
        TargetSpec(**ok | {"velocity_segments": ((0, (0.0, 0.0, 0.0)), (4, (bad, 0.0, 0.0)))})


def test_rates_numpy_can_sample_are_accepted():
    SceneSpec(noise_rate=9e18)
    TargetSpec(shape=(1, 1, 1), start=(0.0, 0.0, 0.0), reflectivity=0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
def test_target_running_off_to_infinity_goes_dead():
    """A position that overflows to infinity renders nothing and is not
    alive, like any position outside the view."""
    for velocity in ((1.7e308, 0.0, 0.0), (0.0, -1.7e308, 0.0), (0.0, 0.0, 1.7e308)):
        spec = TargetSpec(
            shape=(2, 2, 2),
            start=(5.0, 5.0, 100.0),
            reflectivity=10.0,
            velocity_segments=((0, velocity),),
        )
        frames, truth = simulate(SceneSpec(targets=(spec,), n_groups=3, seed=3), SENSOR)
        assert math.isinf(max(map(abs, truth.records[2][0].centroid)))
        assert truth.records[0][0].alive
        assert not truth.records[1][0].alive and not truth.records[2][0].alive
        assert (frames[200:] == SENSOR.ceiling).all()


SCENE_TEXT = """
# two drifting boxes
noise_rate 25
n_groups 40
seed 6
offset 10

target
  shape 3 3 3
  start 6 10 160
  reflectivity 2
  velocity 0.2 0.06 0
  velocity_from 20 -0.1 0 0.5
end

target
  shape 2 2 2
  start 25 15.7 320
  reflectivity 1.5
end
"""


def test_parse_scene_full_grammar():
    scene, sensor = parse_scene(SCENE_TEXT)
    assert sensor == SensorConfig()
    assert scene.noise_rate == 25.0
    assert scene.n_groups == 40
    assert scene.seed == 6
    assert len(scene.targets) == 2
    first = scene.targets[0]
    assert first.shape == (3, 3, 3)
    assert first.start == (6.0, 10.0, 160.0)
    assert first.velocity_segments == (
        (0, (0.2, 0.06, 0.0)),
        (20, (-0.1, 0.0, 0.5)),
    )
    assert scene.targets[1].velocity_segments == ((0, (0.0, 0.0, 0.0)),)


def test_parse_scene_sensor_overrides():
    _, sensor = parse_scene("width 16\nheight 8\nceiling 100\noffset 5\n")
    assert (sensor.width, sensor.height) == (16, 8)
    assert sensor.nz == 90


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus 1\n", "unknown key"),
        ("target\nshape 1 1 1\n", "never closed"),
        ("target\nstart 0 0 0\nreflectivity 1\nend\n", "missing 'shape'"),
        ("target\nshape 1 1\nstart 0 0 0\nreflectivity 1\nend\n", "expected 3"),
        ("noise_rate abc\n", "bad number"),
        ("end\n", "outside"),
        ("target\nwarp 9\nend\n", "unknown target key"),
    ],
)
def test_parse_scene_errors(text, fragment):
    with pytest.raises(SceneParseError, match=fragment):
        parse_scene(text)


def test_parse_scene_error_carries_line_number():
    with pytest.raises(SceneParseError, match="line 3"):
        parse_scene("n_groups 5\nseed 1\nwhat 4\n")


NUMBERS = st.sampled_from(
    ["0", "1", "-1", "2", "2.5", "0.5", "7", "nan", "inf", "-inf", "1e30", "1e300",
     "1.7e308", "-1.7e308", "99999999999999999999", "abc"]
)
SMALL = st.sampled_from(["0", "1", "3", "7", "-1", "2.5", "x"])
GLOBAL_LINES = st.one_of(
    st.builds("n_groups {}".format, SMALL),  # a valid count is at most 7
    st.builds(
        "{} {}".format,
        st.sampled_from(["noise_rate", "seed", "width", "height", "pulses_per_group",
                         "ceiling", "offset", "bogus"]),
        NUMBERS,
    ),
)
TARGET_LINES = st.one_of(
    st.builds("shape {} {} {}".format, SMALL, SMALL, SMALL),
    st.builds("start {} {} {}".format, NUMBERS, NUMBERS, NUMBERS),
    st.builds("reflectivity {}".format, NUMBERS),
    st.builds("velocity {} {} {}".format, NUMBERS, NUMBERS, NUMBERS),
    st.builds("velocity_from {} {} {} {}".format, SMALL, NUMBERS, NUMBERS, NUMBERS),
    st.sampled_from(["velocity 1 2", "shape 1", "end 1", "target", "warp 9"]),
)
TINY = SensorConfig(width=4, height=3, pulses_per_group=3, ceiling=12, offset=1)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(
        st.one_of(
            GLOBAL_LINES,
            st.lists(TARGET_LINES, max_size=6).map(
                lambda lines: "\n".join(["target", *lines, "end"])
            ),
            st.text(max_size=20),
        ),
        max_size=6,
    )
)
def test_parse_then_simulate_raises_only_scene_parse_error(parts):
    """Counts and box sides stay small, and the scene is rendered on a
    tiny sensor whatever geometry it asks for, so any scene that parses
    simulates quickly."""
    try:
        scene, _ = parse_scene("\n".join(parts))
    except SceneParseError:
        return
    frames, truth = simulate(scene, TINY)
    assert frames.shape == (scene.n_groups * 3, 3, 4)
    assert len(truth.records) == scene.n_groups
