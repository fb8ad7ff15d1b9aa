"""Exception hierarchy.

Everything raised on purpose derives from CryalertError so callers can
catch one type at the boundary.  Input-validation errors also derive
from ValueError, model-file problems get their own branch.
"""


class CryalertError(Exception):
    pass


class FormatError(CryalertError, ValueError):
    """Malformed container data (bad RIFF structure, partial frames...)."""


class UnsupportedCodecError(CryalertError, ValueError):
    """WAV format code other than 1 (integer PCM)."""


class UnsupportedDepthError(CryalertError, ValueError):
    """WAV bit depth other than 16."""


class UnsupportedRatioError(CryalertError, ValueError):
    """Sample-rate conversion that is not an integer decimation."""


class DatasetError(CryalertError, ValueError):
    """Unusable dataset layout (too few classes, empty class dir...)."""


class ConfigError(CryalertError, ValueError):
    """Out-of-range or inconsistent configuration value."""


class ShapeError(CryalertError, ValueError):
    """Array shape does not match what an operation requires."""


class TooShortError(CryalertError, ValueError):
    """Signal shorter than one analysis frame."""


class LabelError(CryalertError, ValueError):
    """Class label outside [0, class_count)."""


class ConsistencyError(CryalertError, RuntimeError):
    """Backward pass fed a cache that does not belong to the forward."""


class ModelFileError(CryalertError):
    pass


class NotAModelError(ModelFileError, ValueError):
    """File does not start with the model magic."""


class ModelVersionError(ModelFileError, ValueError):
    """Model format version this build does not understand."""


class CorruptModelError(ModelFileError, ValueError):
    """Truncated param region or CRC mismatch."""
