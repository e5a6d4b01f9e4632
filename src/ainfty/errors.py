"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(EngineError):
    """Incompatible or invalid configuration (cutoffs, degrees, tables)."""


class ArityError(ConfigurationError):
    """An operation of arity past the arity cutoff K was requested; the CLI
    locates it at the flag or the field that set K."""


class DivergenceError(EngineError):
    """An infinite sum was requested outside its domain of convergence."""


class TowerError(EngineError):
    """A cocycle tower failed validation; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DocumentError(EngineError):
    """An input document failed to parse or validate.

    ``diagnostics`` is a list of (location, message) pairs, where location is
    a JSON-path-like string into the offending document.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = ["input document rejected:"]
        lines += ["  %s: %s" % (loc, msg) for loc, msg in self.diagnostics]
        super().__init__("\n".join(lines))
