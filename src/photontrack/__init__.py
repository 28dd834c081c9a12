"""Photon-counting Ladar multi-target tracking.

The pipeline turns a raw stream of per-pulse range images into
maintained target tracks: frames are histogrammed into a 3D photon
grid, denoised, segmented into candidate targets, associated with the
existing track list and fused under a capacity limit, with a short ring
of per-step history for trajectory reconstruction.
"""
from .association import AssociationConfig, AssocMode
from .denoise import DenoiseConfig, Fixed, MovingAverage, PeakFraction, Scheme
from .errors import PhotontrackError
from .kalman import KalmanParams
from .labeling import (
    BoundingBox,
    Candidates,
    ImportanceConfig,
    label_components,
)
from .pipeline import RunConfig, run_tracking
from .raw_ingest import SensorConfig, group_frames, parse_frames
from .simulator import SceneSpec, TargetSpec, load_scene, simulate, write_raw
from .track_manager import StepRecord, Tracker, TrackerConfig, TrackState
from .voxelizer import VoxelGrid, build_histogram

__version__ = "0.1.0"

__all__ = [
    "AssocMode",
    "AssociationConfig",
    "BoundingBox",
    "Candidates",
    "DenoiseConfig",
    "Fixed",
    "ImportanceConfig",
    "KalmanParams",
    "MovingAverage",
    "PeakFraction",
    "PhotontrackError",
    "RunConfig",
    "SceneSpec",
    "Scheme",
    "SensorConfig",
    "StepRecord",
    "TargetSpec",
    "Tracker",
    "TrackerConfig",
    "TrackState",
    "VoxelGrid",
    "build_histogram",
    "group_frames",
    "label_components",
    "load_scene",
    "parse_frames",
    "run_tracking",
    "simulate",
    "write_raw",
]
