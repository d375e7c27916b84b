"""Exception taxonomy shared by all convexham modules.

Every domain failure raises a subclass of DrawingError so callers (and the
CLI) can distinguish structured domain errors from programming bugs.
"""


class DrawingError(Exception):
    """Base class for all domain errors raised by this package."""


class TooFewVertices(DrawingError):
    pass


class InvalidRotation(DrawingError):
    pass


class CrossingsDisagree(DrawingError):
    """A given crossing list differs from the one the rotations fix."""


class SideInconsistency(DrawingError):
    pass


class NotAPermutation(DrawingError):
    pass


class DegeneratePointSet(DrawingError):
    pass


class ExhaustedRejection(DrawingError):
    pass


class NotK5(DrawingError):
    pass


class SameVertex(DrawingError):
    pass


class VertexOutOfRange(DrawingError, ValueError):
    """A vertex label outside 1..n (also a ValueError, as before)."""


class KOutOfRange(DrawingError):
    pass


class EdgesCrossOrAdjacent(DrawingError):
    pass


class SeedNotPlane(DrawingError):
    pass


class CycleNotPlane(DrawingError):
    pass


class TooLarge(DrawingError):
    pass


class NoCoordinates(DrawingError):
    pass


class FormatError(DrawingError):
    """Malformed or internally inconsistent drawing/certificate JSON."""


class NotConvex(DrawingError):
    """Raised when an operation refuses a drawing that failed a convexity check."""


class CertificateError(DrawingError):
    """A certificate claim failed oracle verification."""

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class NotConvexEvidence(DrawingError):
    """Concrete evidence that the input drawing is not convex.

    Carries the name of the structural property that broke (`which`) and the
    vertices involved, so a failed construction doubles as a lazy
    non-convexity detector.
    """

    def __init__(self, which, vertices=(), detail=""):
        self.which = which
        self.vertices = tuple(vertices)
        self.detail = detail
        msg = f"{which}: vertices {self.vertices}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
