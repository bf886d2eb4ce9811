"""Exception hierarchy.

Geometry validation errors signal bad input; the *Violation errors are
internal assertion failures and indicate a bug when raised on valid input.
NonStaircaseResidue is not one of them: some optimal grid covers leave a
piece that is not a staircase, and the pipeline then moves on to the next
optimum. It escapes only when no optimum leaves staircases alone; after
MAX_OPTIMA misses the walk gives up with TooLarge instead.
"""


class SlidecamError(Exception):
    """Base class for all library errors."""


class PolygonError(SlidecamError):
    """Invalid polygon input."""


class NonOrthogonalEdge(PolygonError):
    """An edge is neither horizontal nor vertical."""


class NotClosed(PolygonError):
    """Boundary is degenerate: too few vertices or a zero-length edge."""


class SelfIntersecting(PolygonError):
    """Boundary touches or crosses itself."""


class CollinearRedundantVertex(PolygonError):
    """A vertex lies in the middle of a straight boundary run (strict mode)."""


class PointOutside(SlidecamError):
    """Query point lies outside the polygon."""


class SegmentNotInside(SlidecamError):
    """Camera track is not fully contained in the polygon."""


class ParseError(SlidecamError):
    """Malformed polygon file."""


class NonStaircaseResidue(SlidecamError):
    """An unguarded component is not a staircase region."""


class UnguardableRegion(SlidecamError):
    """No candidate segment sees an unguarded component in full."""


class UncoverableVertex(SlidecamError):
    """Edge cover requested on a node with no incident edge or loop."""


class GuardednessViolation(SlidecamError):
    """A placed camera is not watched by any other camera."""


class CoverageViolation(SlidecamError):
    """Placed cameras fail to see the whole polygon."""


class TooLarge(SlidecamError):
    """A search exceeded its cap: an oracle's instance size, the optima the
    pipeline walks, or the nodes of the fallback cover search."""
