"""Raw frame stream parsing and grouping."""
import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photontrack.errors import EmptyInputError, PhotontrackError, TruncatedFileError
from photontrack.raw_ingest import SensorConfig, group_frames, parse_frames, stream_nbytes
from photontrack.simulator import write_raw
from photontrack.voxelizer import build_histogram


def test_default_sensor_window():
    cfg = SensorConfig()
    assert (cfg.width, cfg.height) == (32, 32)
    assert cfg.pulses_per_group == 200
    assert cfg.ceiling == 620
    assert cfg.offset == 10
    assert cfg.nz == 600
    assert cfg.zmin == 10 and cfg.zmax == 609
    assert cfg.frame_nbytes == 2048


@pytest.mark.parametrize(
    "kwargs",
    [
        {"width": 0},
        {"pulses_per_group": 0},
        {"offset": -1},
        {"ceiling": 70000},
        {"ceiling": 20, "offset": 10},
    ],
)
def test_sensor_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SensorConfig(**kwargs)


def test_pixel_byte_layout():
    # value for pixel (x, y) of frame f lives at 2 * (f*W*H + y*W + x)
    cfg = SensorConfig(width=4, height=3, pulses_per_group=2, ceiling=620, offset=10)
    n = 2 * cfg.frame_pixels
    payload = bytearray(struct.pack("<" + "H" * n, *([cfg.ceiling] * n)))
    f, x, y, value = 1, 2, 1, 77
    off = 2 * (f * cfg.width * cfg.height + y * cfg.width + x)
    payload[off : off + 2] = struct.pack("<H", value)
    frames = parse_frames(bytes(payload), cfg)
    assert frames.shape == (2, 3, 4)
    assert frames[f, y, x] == value
    assert frames[0, y, x] == cfg.ceiling


def test_empty_stream_rejected():
    with pytest.raises(EmptyInputError):
        parse_frames(b"", SensorConfig())


def test_truncated_stream_rejected():
    cfg = SensorConfig()
    data = bytes(cfg.frame_nbytes + 7)
    with pytest.raises(TruncatedFileError):
        parse_frames(data, cfg)


def test_values_above_ceiling_are_clamped(caplog):
    cfg = SensorConfig(width=2, height=2, pulses_per_group=1, ceiling=620, offset=10)
    data = struct.pack("<4H", 5, 620, 621, 65535)
    with caplog.at_level("WARNING"):
        frames = parse_frames(data, cfg)
    assert frames.tolist() == [[[5, 620], [620, 620]]]
    assert any("clamp" in r.getMessage() for r in caplog.records)


def test_clean_frames_are_a_view_of_the_bytes(caplog):
    """Frames with no value above the ceiling are read in place from
    any bytes-like object, without a warning."""
    cfg = SensorConfig(width=2, height=2, pulses_per_group=1, ceiling=620, offset=10)
    buf = bytearray(struct.pack("<8H", 5, 620, 0, 619, 620, 620, 1, 2))
    with caplog.at_level("WARNING"):
        frames = parse_frames(memoryview(buf)[:8], cfg)
    assert frames.tolist() == [[[5, 620], [0, 619]]]
    buf[0] = 9
    assert frames[0, 0, 0] == 9
    assert caplog.records == []


def test_stream_nbytes_counts_from_the_position():
    """A stream's length is taken from its position to its end, which
    must be a nonzero whole number of frames; the position is kept."""
    cfg = SensorConfig(width=2, height=1)
    stream = io.BytesIO(b"head" + bytes(3 * cfg.frame_nbytes))
    stream.seek(4)
    assert stream_nbytes(stream, cfg) == 3 * cfg.frame_nbytes
    assert stream.tell() == 4
    stream.seek(5)
    with pytest.raises(TruncatedFileError):
        stream_nbytes(stream, cfg)
    stream.seek(0, io.SEEK_END)
    with pytest.raises(EmptyInputError):
        stream_nbytes(stream, cfg)


def test_grouping_drops_partial_tail(caplog):
    cfg = SensorConfig(width=2, height=2, pulses_per_group=3, ceiling=620, offset=10)
    frames = np.arange(7 * 2 * 2, dtype=np.uint16).reshape(7, 2, 2)
    with caplog.at_level("WARNING"):
        groups = group_frames(frames, cfg)
    assert groups.shape == (2, 3, 2, 2)
    assert np.shares_memory(groups, frames)
    np.testing.assert_array_equal(groups[1], frames[3:6])
    assert any("partial group" in r.getMessage() for r in caplog.records)


@settings(max_examples=50, deadline=None)
@given(
    n_frames=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_write_then_parse_round_trip(n_frames, seed):
    cfg = SensorConfig(width=5, height=4, pulses_per_group=2, ceiling=620, offset=10)
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, cfg.ceiling + 1, (n_frames, 4, 5)).astype(np.uint16)
    buf = io.BytesIO()
    nbytes = write_raw(frames, buf)
    assert nbytes == n_frames * cfg.frame_nbytes
    parsed = parse_frames(buf.getvalue(), cfg)
    np.testing.assert_array_equal(parsed, frames)


@st.composite
def small_sensors(draw):
    offset = draw(st.integers(0, 5))
    return SensorConfig(
        width=draw(st.integers(1, 4)),
        height=draw(st.integers(1, 3)),
        pulses_per_group=draw(st.integers(1, 4)),
        ceiling=2 * offset + draw(st.integers(1, 30)),
        offset=offset,
    )


@settings(max_examples=300, deadline=None)
@given(sensor=small_sensors(), data=st.binary(max_size=200))
@example(sensor=SensorConfig(), data=b"")
@example(sensor=SensorConfig(width=2, height=1), data=b"\xff" * 7)
def test_raw_ingest_raises_only_photontrack_error(sensor, data):
    """Any bytes either parse into whole groups whose histograms count
    at most one photon per pulse per voxel, or raise a library error."""
    try:
        frames = parse_frames(data, sensor)
    except PhotontrackError:
        return
    for group in group_frames(frames, sensor):
        counts = build_histogram(group, sensor).counts
        assert counts.shape == (sensor.width, sensor.height, sensor.nz)
        assert 0 <= counts.min() and counts.max() <= sensor.pulses_per_group
