"""Exception hierarchy.

Geometry validation errors signal bad input; the *Violation errors are
internal assertion failures and indicate a bug when raised on valid input.
UnguardableRegion is one as well: every leftover piece of a grid cover is
seen whole by some grid track on every polygon tried.
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


class PointOutside(SlidecamError):
    """Query point lies outside the polygon."""


class SegmentNotInside(SlidecamError):
    """Camera track is not fully contained in the polygon."""


class ParseError(SlidecamError):
    """Malformed polygon file."""


class UnguardableRegion(SlidecamError):
    """No candidate segment sees an unguarded component in full."""


class UncoverableVertex(SlidecamError):
    """Edge cover requested on a node with no incident edge or loop."""


class GuardednessViolation(SlidecamError):
    """A placed camera is not watched by any other camera."""


class CoverageViolation(SlidecamError):
    """Placed cameras fail to see the whole polygon."""


class TooLarge(SlidecamError):
    """A search exceeded its cap: an oracle's instance size or the nodes of
    the fallback cover search."""
