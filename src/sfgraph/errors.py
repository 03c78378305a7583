"""Exception taxonomy shared across the package.

Three broad failure classes; each error class carries its CLI exit code as
the class attribute ``exit_code``:

* bad parameters / bad invocation   -> ParameterError   (exit 1)
* unusable input data               -> ParseError, DimensionError, DataError (exit 2)
* numerical breakdown at runtime    -> NumericalError   (exit 3)
"""


class SfgraphError(Exception):
    """Base class for all errors raised by this package; only its
    subclasses are raised, and each sets ``exit_code``."""

    exit_code: int


class ParameterError(SfgraphError, ValueError):
    """A parameter is outside its documented domain (bad theta, K > n, ...)."""

    exit_code = 1


class ParseError(SfgraphError, ValueError):
    """An input file could not be parsed (ragged row, non-numeric cell, ...)."""

    exit_code = 2


class DimensionError(SfgraphError, ValueError):
    """Input has unusable shape (too few rows/columns, length mismatch)."""

    exit_code = 2


class DataError(SfgraphError, ValueError):
    """Input parsed fine but is degenerate (zero-norm target, identical samples)."""

    exit_code = 2


class NumericalError(SfgraphError, RuntimeError):
    """A numerical routine failed to produce a usable result (non-convergence)."""

    exit_code = 3
