"""Raw frame file parsing and pulse-train grouping.

The on-disk format is headerless: frames are stored back to back, each
frame a row-major block of unsigned 16-bit little-endian range-bin
values.  Pixel (x, y) of frame f lives at byte offset
2 * (f * W * H + y * W + x).

Grouping is one reshape: ``group_frames`` returns a view of the parsed
frames with shape (groups, pulses, height, width), so group n is the
plain array ``groups[n]``.  ``parse_frames`` takes any bytes-like
object, so a reader can parse a file one group's bytes at a time;
``stream_nbytes`` checks a stream's length up front, by the rule
``parse_frames`` applies to its bytes.
"""
from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import EmptyInputError, TruncatedFileError

log = logging.getLogger(__name__)

RAW_DTYPE = np.dtype("<u2")


@dataclass(frozen=True)
class SensorConfig:
    """Geometry and timing of the photon-counting sensor array.

    ``ceiling`` is the sentinel pixel value meaning "no photon detected
    during the integration window".  Range bins between ``offset`` and
    ``ceiling - offset - 1`` form the usable depth window, so the voxel
    histogram depth is ``ceiling - 2 * offset`` (600 with the defaults).
    """

    width: int = 32
    height: int = 32
    pulses_per_group: int = 200
    ceiling: int = 620
    offset: int = 10

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("sensor dimensions must be positive")
        if self.pulses_per_group < 1:
            raise ValueError("pulses_per_group must be positive")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if self.ceiling > 0xFFFF:
            raise ValueError("ceiling must fit in 16 bits")
        if self.ceiling - 2 * self.offset < 1:
            raise ValueError("ceiling - 2*offset must be at least 1")

    @property
    def nz(self) -> int:
        """Depth of the voxel histogram."""
        return self.ceiling - 2 * self.offset

    @property
    def frame_pixels(self) -> int:
        return self.width * self.height

    @property
    def frame_nbytes(self) -> int:
        return 2 * self.frame_pixels

    @property
    def group_nbytes(self) -> int:
        """Bytes of one pulse group's frames."""
        return self.pulses_per_group * self.frame_nbytes

    @property
    def zmin(self) -> int:
        """First usable range bin."""
        return self.offset

    @property
    def zmax(self) -> int:
        """Last usable range bin (inclusive)."""
        return self.ceiling - self.offset - 1


def _check_length(nbytes: int, cfg: SensorConfig) -> None:
    """Raise unless ``nbytes`` is a nonzero whole number of frames."""
    if nbytes == 0:
        raise EmptyInputError("no bytes to parse")
    if nbytes % cfg.frame_nbytes != 0:
        raise TruncatedFileError(
            f"{nbytes} bytes is not a multiple of the "
            f"{cfg.frame_nbytes}-byte frame size"
        )


def stream_nbytes(stream: BinaryIO, cfg: SensorConfig) -> int:
    """The bytes from a seekable binary stream's position to its end,
    refused as ``parse_frames`` refuses its bytes when empty or not a
    whole number of frames; the position is left where it was."""
    start = stream.tell()
    nbytes = stream.seek(0, io.SEEK_END) - start
    stream.seek(start)
    _check_length(nbytes, cfg)
    return nbytes


def parse_frames(data, cfg: SensorConfig) -> np.ndarray:
    """Decode raw bytes, any bytes-like object, into an array of frames.

    Returns an array of shape (n_frames, height, width), dtype uint16,
    indexed [frame, y, x], that shares memory with ``data`` unless a
    value needed clamping.  Values above ``cfg.ceiling`` are clamped to
    the ceiling; the number of clamped pixels is logged as a warning.
    """
    _check_length(len(data), cfg)
    frames = np.frombuffer(data, dtype=RAW_DTYPE).reshape(-1, cfg.height, cfg.width)
    # a clean array is told by its maximum, without a bool temporary
    if frames.max(initial=0) > cfg.ceiling:
        n_over = int(np.count_nonzero(frames > cfg.ceiling))
        log.warning("clamped %d pixel values above ceiling %d", n_over, cfg.ceiling)
        frames = frames.clip(max=np.uint16(cfg.ceiling))
    return frames


def group_frames(frames: np.ndarray, cfg: SensorConfig) -> np.ndarray:
    """Split frames into pulse-train groups of ``cfg.pulses_per_group``.

    Returns a view of shape (groups, pulses, height, width); group n is
    ``groups[n]``.  A trailing partial group would bias photon counts,
    so it is discarded with a warning.
    """
    per = cfg.pulses_per_group
    n_groups = frames.shape[0] // per
    leftover = frames.shape[0] - n_groups * per
    if leftover:
        log.warning("discarding trailing partial group of %d frames", leftover)
    return frames[: n_groups * per].reshape(n_groups, per, *frames.shape[1:])
