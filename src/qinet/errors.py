"""Exception hierarchy for qinet.

Validation problems (bad parameters, inapplicable method) raise
:class:`ConfigError` or :class:`PreconditionError`; numerical breakdowns
raise :class:`SolverError` subclasses.
"""


class QinetError(Exception):
    """Base class for all qinet errors."""


class ConfigError(QinetError, ValueError):
    """Invalid network parameters or malformed configuration input."""


class PreconditionError(QinetError, ValueError):
    """Operation called outside its domain (wrong J, base-stock levels, ...)."""


class ErgodicityError(QinetError, ValueError):
    """Operation requires an ergodic configuration and got a non-ergodic one."""


class SolverError(QinetError, RuntimeError):
    """Numerical solve failed (singular normalization, residual too large, ...)."""


class DegenerateEliminationError(SolverError):
    """A closing balance equation cannot determine the phase unknown."""


class SequencingError(QinetError, RuntimeError):
    """Recursive elimination referenced a table entry that is not available yet."""
