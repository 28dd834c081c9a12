"""3D photon-count histogram built from one pulse train.

The input is one group's ``(pulses, height, width)`` frame array.
About 1.5% of a 32x32x600 histogram is occupied, so the histogram is
held as its occupied voxels: their sorted flat (C-order) indices and
their counts.  Every stage of a run reads those; the dense count array
is built only when a reader asks for it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigMismatchError
from .raw_ingest import SensorConfig


@dataclass(frozen=True)
class VoxelGrid:
    """Photon-count histogram over (x, y, z), z being a shifted range bin.

    ``values[i]`` is the number of pulses in the group whose pixel
    (x, y) returned range bin ``offset + z``, where ``flat[i]`` is the
    C-order index of voxel (x, y, z) in a grid of ``shape``.  ``flat``
    is sorted and lists every voxel with a nonzero count exactly once.
    """

    shape: tuple[int, int, int]
    flat: np.ndarray  # (n,) int64, sorted
    values: np.ndarray  # (n,) int32

    @cached_property
    def counts(self) -> np.ndarray:
        """The dense ``(nx, ny, nz)`` count array, built on first use;
        no stage of a run reads it, only callers that want the grid."""
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense.reshape(-1)[self.flat] = self.values
        return dense


def build_histogram(frames: np.ndarray, cfg: SensorConfig) -> VoxelGrid:
    """Tally range-bin occurrences of one pulse train, a ``(pulses,
    height, width)`` frame array, into a voxel grid.

    Pixel values outside the usable window [offset, ceiling - offset - 1]
    (ceiling pixels in particular) contribute nothing.  Each pixel has a
    flat voxel base ``(x * ny + y) * nz - offset``, so a frame value ``v``
    at that pixel is a photon in voxel ``base + v``: the in-window values
    are found in one scan of the raw frames, each is added to its pixel's
    base, and the distinct flat indices with their multiplicities are
    the histogram.
    """
    if frames.ndim != 3 or frames.shape[1:] != (cfg.height, cfg.width):
        raise ConfigMismatchError(
            f"frame shape {frames.shape[1:]} does not match "
            f"{cfg.height}x{cfg.width} sensor"
        )
    nx, ny, nz = cfg.width, cfg.height, cfg.nz
    ys, xs = np.indices((cfg.height, cfg.width))
    base = ((xs * ny + ys) * nz - cfg.offset).reshape(-1)
    hits = np.flatnonzero((frames >= cfg.zmin) & (frames <= cfg.zmax))
    flat = base[hits % base.size] + frames.reshape(-1)[hits]
    flat, counts = np.unique(flat, return_counts=True)
    return VoxelGrid((nx, ny, nz), flat, counts.astype(np.int32))

