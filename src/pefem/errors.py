"""Exception types shared across the package."""


class PefemError(Exception):
    """Base class for all package-specific errors."""


class ProjectionError(PefemError):
    """Closest-point projection failed to converge for a point.

    Carries the offending point and the boundary component id.
    """

    def __init__(self, point, curve_id, message=None):
        self.point = tuple(point)
        self.curve_id = curve_id
        super().__init__(
            message
            or f"closest-point projection failed at {self.point} "
            f"on component {curve_id!r}"
        )


class DegenerateGradientError(PefemError):
    """Level-set gradient vanished where a normal was requested."""


class SingularElementError(PefemError):
    """A triangle with (numerically) zero area was mapped."""


class AssemblyError(PefemError):
    """Non-finite data encountered during assembly; names the element."""

    def __init__(self, message, element=None):
        self.element = element
        if element is not None:
            message = f"element {element}: {message}"
        super().__init__(message)


class SingularSystemError(PefemError):
    """Direct factorization detected a singular-to-tolerance matrix."""


class SolverError(PefemError):
    """Linear solve did not meet the residual contract."""


class ConfigurationError(PefemError):
    """Inconsistent or incomplete problem/experiment configuration."""
