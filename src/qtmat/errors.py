"""Exception types shared across the quasi-Toeplitz algebra."""


class QtError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(QtError):
    """A mathematical hypothesis required by an operation does not hold."""


class ZeroOnCircleError(PreconditionError):
    """The symbol vanishes (numerically) somewhere on the unit circle."""


class NonzeroWindingError(PreconditionError):
    """The symbol curve has nonzero winding number around the origin."""


class RadiusViolationError(PreconditionError):
    """A norm hypothesis of a series expansion is violated."""


class SizeMismatchError(PreconditionError):
    """Binary operation applied to finite matrices of different sizes."""


class SingularMatrixError(PreconditionError):
    """A finite matrix required to be invertible is numerically singular."""


class OnSpectrumError(PreconditionError):
    """Resolvent requested at a point too close to the spectrum indicator."""

    def __init__(self, z, message=""):
        self.z = z
        super().__init__(message or f"resolvent unavailable at z={z}")


class EnclosureError(PreconditionError):
    """Integration contour does not enclose the symbol curve."""


class NoConvergenceError(QtError):
    """An iteration reached its cap before meeting the requested tolerance."""


class CertificateError(NoConvergenceError):
    """A computed inverse misses the stopping tolerance on the identity.

    Raised when the arithmetic cannot certify the tolerance the caller asked
    for; it says nothing about the spectrum, so the contour engine passes it
    on instead of reporting the node as on the spectrum.
    """


class MalformedFileError(QtError):
    """A serialized matrix file failed to parse; message carries diagnostics."""
