"""Exhaustive ground truth for small instances.

Enumerates every balanced bipartition of a cubic multigraph, filters to
2-bisections, and reports the minimum monochromatic count along with how
many bipartitions attain it and whether a desired coloring exists. Every
balanced coloring of a graph with a block cover has at least k+t
monochromatic edges, and the desired ones are exactly those with k+t, so
that last answer is read off the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .construct import require_cover
from .errors import InternalInvariantError, NotApplicable, TooLarge
from .multigraph import Multigraph, is_cubic

DEFAULT_LIMIT = 16
HARD_CAP = 24


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive sweep.

    min_epsilon is None when the graph has no 2-bisection at all.
    desired_exists holds iff the graph has a block cover and min_epsilon
    equals its k+t, the bound every coloring meets. optima_count counts
    unordered bipartitions (a coloring and its global swap are the same
    bipartition). enumerated counts all balanced colorings covered, i.e.
    C(n, n/2); the sweep examines half of them and lets symmetry supply
    the rest.
    """

    min_epsilon: int | None
    optima_count: int
    desired_exists: bool
    enumerated: int

    def to_json(self) -> dict:
        return {
            "min_epsilon": self.min_epsilon,
            "optima": self.optima_count,
            "desired_exists": self.desired_exists,
            "enumerated": self.enumerated,
        }


def oracle_min(g: Multigraph, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Brute-force minimum monochromatic count over all 2-bisections.

    Accepts any cubic multigraph, claw-free or not; desired_exists is
    False unless the graph has a block cover. Vertex 0 is pinned black,
    which covers every unordered bipartition exactly once.
    """
    if limit > HARD_CAP:
        raise ValueError(f"limit {limit} exceeds the hard cap of {HARD_CAP}")
    if not is_cubic(g):
        raise ValueError("exhaustive search expects a cubic multigraph")
    if g.n > limit:
        raise TooLarge(f"n = {g.n} exceeds the search budget of {limit}")

    n = g.n
    nbr = [0] * n
    for v in range(n):
        for u in g.neighbors(v):
            nbr[v] |= 1 << u
    pairs = g.edge_pairs()

    full = (1 << n) - 1
    best: int | None = None
    optima = 0

    for rest in combinations(range(1, n), n // 2 - 1):
        mask = 1
        for v in rest:
            mask |= 1 << v

        ok = True
        inv = full ^ mask
        for v in range(n):
            same = (nbr[v] & mask) if (mask >> v) & 1 else (nbr[v] & inv)
            if same.bit_count() > 1:
                ok = False
                break
        if not ok:
            continue

        eb = ew = 0
        for u, v, m in pairs:
            if ((mask >> u) & 1) == ((mask >> v) & 1):
                if (mask >> u) & 1:
                    eb += m
                else:
                    ew += m
        if eb != ew:
            raise InternalInvariantError(
                f"2-bisection with unequal color shares ({eb} vs {ew}) on mask {mask:#x}"
            )
        eps = eb + ew

        if best is None or eps < best:
            best, optima = eps, 1
        elif eps == best:
            optima += 1

    try:
        part = require_cover(g)
    except NotApplicable:
        desired = False
    else:
        desired = best == part.k + part.t
    return OracleResult(
        min_epsilon=best,
        optima_count=optima,
        desired_exists=desired,
        enumerated=math.comb(n, n // 2),
    )
