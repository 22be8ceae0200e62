"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad run configuration: parse failure, validation failure, or an
    inadmissible gas model.  Carries a human-readable message with the
    offending line number or key path."""


class SolverFailure(RuntimeError):
    """A time step could not be completed (tridiagonal breakdown, Picard
    divergence, clip overrun).  ``cell`` identifies where, when known."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class DtUnderflow(SolverFailure):
    """The CFL time step fell below ``dt_min`` -- imminent blow-up or a
    grid too coarse for the flow."""


class PicardDivergence(SolverFailure):
    """The temperature sweeps' update grew for two consecutive sweeps."""
