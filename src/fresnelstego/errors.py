"""Exception types shared across the package."""


class StegoError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(StegoError):
    """A grid has the wrong dimensions for the requested operation."""


class DataError(StegoError):
    """A grid carries samples outside its domain (not numbers, non-finite,
    or complex where real values are required)."""


class ParameterError(StegoError):
    """A scalar parameter is outside its valid domain."""


class KeyFileError(ParameterError):
    """A key file is missing entries, names unknown entries, or fails to
    parse. Subclasses ParameterError so both map to the same exit code."""


class FormatError(StegoError):
    """Byte-level file decoding failed. Carries the byte offset of the
    violation when one is known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UndefinedCorrelationError(StegoError):
    """A score came out 0/0, as correlation does when an input is constant."""
