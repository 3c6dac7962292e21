"""Exception types shared across the package.

Plain I/O failures use the builtins (FileNotFoundError, OSError); everything
with package-specific meaning gets a class here so callers can catch narrowly.
"""


class SeganError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedFormatError(SeganError):
    """WAV file is not readable uncompressed 16-bit mono PCM."""


class WrongRateError(SeganError):
    """WAV file is at a sample rate other than 16 or 48 kHz."""


class InvalidWindowError(SeganError):
    """Bad window/hop combination for chunking."""


class ZeroPowerError(SeganError):
    """Signal has no energy, so an SNR-controlled mix is undefined."""


class ManifestError(SeganError):
    """Dataset manifest is malformed or references missing files."""


class ShapeMismatchError(SeganError):
    """Tensor shapes are inconsistent for the requested operation."""


class MissingRefBatchError(SeganError):
    """Virtual batch norm used before reference statistics were set."""


class NonScalarLossError(SeganError):
    """backward() requires a scalar loss node."""


class ConfigError(SeganError):
    """Model configuration is internally inconsistent."""


class CorruptCheckpointError(SeganError):
    """Checkpoint file is truncated, mislabeled, or shape-incompatible."""


class NonFiniteLossError(SeganError):
    """A training loss went NaN/Inf; the run is aborted, not skipped."""


class LengthMismatchError(SeganError):
    """Metric inputs must have equal lengths."""


class AllFramesSilentError(SeganError):
    """Every frame fell below the energy floor; metric undefined."""


class NumericalError(SeganError):
    """A numerical recursion (e.g. Levinson-Durbin) lost positivity."""


class IncompleteTripletError(SeganError):
    """A (listener, sentence) item is missing ratings for some system."""


class TooShortError(SeganError):
    """Signal shorter than the minimum the operation needs."""
