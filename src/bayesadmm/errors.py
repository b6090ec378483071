"""Exception hierarchy shared across the package."""


class BayesAdmmError(Exception):
    """Base class for all package errors."""


# ---- exponential-family algebra ----


class NonPositivePrecision(BayesAdmmError):
    """A natural parameter encodes a precision that is not positive (definite)."""


class DegenerateMoment(BayesAdmmError):
    """An expectation parameter implies a non-positive covariance."""


class FamilyMismatch(BayesAdmmError):
    """Two parameters belong to different families or layouts."""


# ---- losses ----


class DimensionMismatch(BayesAdmmError):
    """Parameter or data dimensions are inconsistent."""


class EstimatorUnsupported(BayesAdmmError):
    """The requested moment estimator cannot serve this loss."""


# ---- solvers ----


class ResultNotInFamily(BayesAdmmError):
    """A solver or server combine produced an invalid natural parameter."""


class PrecisionEscape(BayesAdmmError):
    """An inner iterate left the family and step-halving could not repair it."""


class NonFiniteUpdate(BayesAdmmError):
    """An iterate became non-finite; carries the last finite state.

    Attributes `mean` and `precision` hold the last finite iterate when the
    raising solver tracks one.
    """

    def __init__(self, message, mean=None, precision=None):
        super().__init__(message)
        self.mean = mean
        self.precision = precision


# ---- harness ----


class BadMagic(BayesAdmmError):
    """An IDX file starts with an unexpected magic number."""


class TruncatedFile(BayesAdmmError):
    """An IDX file ended before the declared payload."""


class EmptyClient(BayesAdmmError):
    """A split plan starves at least one client of data."""


class SingularSystem(BayesAdmmError):
    """A closed-form oracle hit a singular linear system."""


class ReferenceNotConverged(BayesAdmmError):
    """A reference run failed its own fixed-point check and refuses to serve."""


# ---- cli ----


class ConfigError(BayesAdmmError):
    """A run configuration is malformed; message carries field diagnostics."""


class CheckpointError(BayesAdmmError):
    """A checkpoint file is unreadable or structurally invalid."""
