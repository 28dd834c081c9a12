"""Exception types shared across the pipeline."""


class PhotontrackError(Exception):
    """Base class for all library errors."""


class TruncatedFileError(PhotontrackError):
    """Raw byte stream length is not a whole number of frames."""


class EmptyInputError(PhotontrackError):
    """Raw byte stream contains no data."""


class ConfigMismatchError(PhotontrackError):
    """Frame dimensions do not match the sensor configuration."""


class SingularInnovationError(PhotontrackError):
    """Kalman innovation covariance is numerically singular."""


class ConfigViolationError(PhotontrackError):
    """Tracker input violates the configured limits."""


class EntryEvictedError(PhotontrackError):
    """Requested step is not among the records held: it has left the
    history ring, or was never recorded."""


class SceneParseError(PhotontrackError):
    """Scene description file is malformed."""


class ConfigError(PhotontrackError, ValueError):
    """Pipeline config text cannot be decoded, parsed or validated."""
