"""Exception hierarchy shared by the whole library."""

import numpy as np


class NavcastError(Exception):
    """Base class for every library-raised error."""


class DegenerateInputError(NavcastError):
    """Input is structurally valid but too short / constant / otherwise unusable."""


class ConfigurationError(NavcastError):
    """Caller supplied inconsistent sizes, specs, or options."""


class NumericalError(NavcastError):
    """A computation produced non-finite values or a singular system."""


class AnalysisError(NavcastError):
    """A statistical procedure could not reach a usable conclusion."""


class FitError(NavcastError):
    """Model estimation or training failed to converge."""


class IngestionError(NavcastError):
    """Input file missing or malformed; message carries the 1-based line number."""


class ComparisonError(NavcastError):
    """Every model kind of a comparison failed; `failures` maps each kind to its error."""

    def __init__(self, message: str, failures: dict):
        super().__init__(message)
        self.failures = failures


# What a fit may raise when its data or its numerics defeat it.  Code that
# records a failed candidate or a failed model kind catches only these, so a
# programming error still propagates.
FIT_FAILURES = (NavcastError, np.linalg.LinAlgError, FloatingPointError)
