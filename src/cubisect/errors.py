"""Exception types shared across the package.

Three severities matter to callers (and map to CLI exit codes):
input/format problems, violated operation preconditions, and internal
invariant breaches that indicate a bug rather than bad input.
"""

from __future__ import annotations


class GraphFormatError(ValueError):
    """Malformed graph text, edge list, or bisection JSON."""


class PartitionError(RuntimeError):
    """The vertex set cannot be covered by diamond/triangle/trumpet/digon
    blocks: the graph is not cubic, or has a claw or a K4 component. The
    class gate turns it into NotApplicable, so one that reaches the CLI
    on an in-class graph is a bug and exits 3."""


class NotApplicable(RuntimeError):
    """The minimum-bisection construction does not apply to this input
    (K4, or not a connected claw-free cubic multigraph)."""

    def __init__(self, report, message: str):
        super().__init__(message)
        self.report = report


class TooLarge(ValueError):
    """Instance exceeds the brute-force enumeration budget."""


class Unsatisfiable(RuntimeError):
    """Random block wiring failed to produce a connected graph within the
    resample budget."""


class InternalInvariantError(RuntimeError):
    """A condition guaranteed by theory failed at runtime: a bug, not bad
    input. The message carries the offending instance for inspection."""


class ReductionError(InternalInvariantError):
    """Diamond reduction produced a graph violating its structural
    guarantees (disconnected, claw, K4, wrong diamond count, ...)."""


class LiftError(InternalInvariantError):
    """The reduced graph's bisection colors the reattachment endpoints
    identically, which a desired bisection can never do."""


class CertificateError(InternalInvariantError):
    """A constructed coloring failed its checks: the walk's ring did not
    close, the coloring came out incomplete or unbalanced, or it missed
    the monochromatic-edge formula or the 2-bisection property."""
