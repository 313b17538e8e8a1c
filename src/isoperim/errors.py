"""Exception taxonomy for the isoperim package.

Domain-precondition failures and numerical failures are kept distinct; each
class carries the CLI exit code of its group in `exit_code`.
"""


class IsoperimError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3  # the precondition group; NumericalError overrides it


# --- domain / precondition errors -----------------------------------------

class NonConvex(IsoperimError):
    """Support curve fails h + h'' > 0 somewhere."""


class OutOfRange(IsoperimError):
    """Scalar argument outside its documented open interval."""


class CoincidentPoints(IsoperimError):
    """Two-point function evaluated at s1 = s2 (mod 2π)."""


class NotClassA(IsoperimError):
    """Domain is not bi-axially symmetric with exactly four vertices."""


class NotNormalized(IsoperimError):
    """Domain area differs from the required normalization."""


class IsDisk(IsoperimError):
    """Operation excludes the disk (the equality case)."""


class NotAVertex(IsoperimError):
    """Curvature derivative does not vanish at the given angle."""


class DegenerateVertex(IsoperimError):
    """Vertex with vanishing second arclength derivative of curvature."""


class NonConvexPerturbation(IsoperimError):
    """Radial perturbation large enough to break convexity."""


# --- numerical failures ----------------------------------------------------

class NumericalError(IsoperimError):
    """Generic numerical failure (tolerance not met, bad bracket, ...)."""

    exit_code = 4


class NotPerfect(NumericalError):
    """Endpoint pair does not satisfy the two-point condition."""


class NormalsParallelButNotAligned(NumericalError):
    """Anti-parallel endpoint normals whose chord is not along them."""


class DegenerateGradient(NumericalError):
    """Two-point gradient vanishes; no locally unique arc family."""


class NoConvergence(NumericalError):
    """Iterative corrector failed to converge."""


class NoArcAtArea(NumericalError):
    """Arc search found no candidate bracketing the target area."""


class OracleFailure(NumericalError):
    """Profile oracle could not produce a value."""


class FitIllConditioned(NumericalError):
    """Too few samples to fit the requested polynomial model."""


class AreaNormalizationFailure(NumericalError):
    """Area rescaling did not reach the target within tolerance."""
