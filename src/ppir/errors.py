"""Exception types shared across the package."""


class PpirError(Exception):
    """Base class for all package errors."""


class FieldConstructionError(PpirError, ValueError):
    """Requested field order is not a prime or a power of two, or is unsupported."""


class SingularMatrixError(PpirError, ValueError):
    """Square matrix has no inverse over the field."""


class ParameterError(PpirError, ValueError):
    """Invalid instance or configuration parameters."""


class UnsupportedParametersError(ParameterError):
    """Parameters outside the supported range (e.g. code length above field size)."""


class InsufficientInformationError(PpirError, ValueError):
    """Fewer known coordinates than the code dimension."""


class CorruptionError(PpirError, ValueError):
    """Over-determined decode input is inconsistent with any codeword."""


class DecodeMetadataError(PpirError, ValueError):
    """Answer header does not match the user's side-information labels."""


class ProtocolViolationError(PpirError, ValueError):
    """Answer violates the protocol contract (wrong row counts, undecodable)."""


class EnumerationCapError(PpirError, ValueError):
    """Requested exhaustive enumeration exceeds the configured cap."""


class SearchBudgetError(PpirError, RuntimeError):
    """Brute-force search exceeded its work budget.

    Carries partial progress: lengths fully exhausted and candidates examined.
    """

    def __init__(self, message, exhausted_lengths=(), examined=0):
        super().__init__(message)
        self.exhausted_lengths = tuple(exhausted_lengths)
        self.examined = examined


class CertificateError(PpirError, RuntimeError):
    """Rank certificate construction failed; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class WireFormatError(PpirError, ValueError):
    """Serialized object does not match the expected schema or version."""


class ConfigError(PpirError, ValueError):
    """Experiment configuration failed validation."""
