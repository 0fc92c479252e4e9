"""Exception hierarchy shared across the package."""


class DcomError(Exception):
    """Base class for all package errors."""


class ParseError(DcomError):
    """A dataset record could not be parsed.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        self.reason = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormatError(DcomError):
    """A file violates its documented format (headers, keys, layout)."""


class ConfigError(DcomError):
    """Invalid or unknown configuration key/value."""


class BundleError(DcomError):
    """Model bundle could not be read or written."""


class DiagnosticError(DcomError):
    """A numeric invariant failed inside the network (NaN/Inf activation)."""
