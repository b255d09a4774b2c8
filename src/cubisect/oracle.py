"""Exhaustive ground truth for small instances.

Enumerates every balanced bipartition of a cubic multigraph, filters to
2-bisections, and reports the minimum monochromatic count along with how
many bipartitions attain it and whether any coloring meets the stricter
per-block conditions used by the constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .bisection import Bisection, is_desired
from .errors import InternalInvariantError, TooLarge
from .multigraph import Multigraph, validate
from .structure import StructurePartition, find_blocks

DEFAULT_LIMIT = 16
HARD_CAP = 24


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive sweep.

    min_epsilon is None when the graph has no 2-bisection at all.
    optima_count counts unordered bipartitions (a coloring and its global
    swap are the same bipartition). enumerated counts all balanced
    colorings covered, i.e. C(n, n/2); the sweep examines half of them
    and lets symmetry supply the rest.
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


def _structure_or_none(g: Multigraph) -> StructurePartition | None:
    return find_blocks(g) if validate(g).in_class else None


def oracle_min(g: Multigraph, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Brute-force minimum monochromatic count over all 2-bisections.

    Accepts any cubic multigraph, claw-free or not; the per-block
    desired-coloring existence question is answered only when the graph
    decomposes into blocks, and is False otherwise. Vertex 0 is pinned
    black, which covers every unordered bipartition exactly once.
    """
    if limit > HARD_CAP:
        raise ValueError(f"limit {limit} exceeds the hard cap of {HARD_CAP}")
    for v in range(g.n):
        if g.degree(v) != 3:
            raise ValueError("exhaustive search expects a cubic multigraph")
    if g.n > limit:
        raise TooLarge(f"n = {g.n} exceeds the search budget of {limit}")

    n = g.n
    part = _structure_or_none(g)

    nbr = [0] * n
    for v in range(n):
        for u in g.distinct_neighbors(v):
            nbr[v] |= 1 << u
    pairs = g.edge_pairs()

    # In any coloring meeting the per-block conditions, parallel edges and
    # edges joining two blocks are bichromatic; cheap masks prefilter the
    # candidates worth a full check.
    forced_bichromatic: list[int] = []
    if part is not None:
        for u, v, m in pairs:
            if m >= 2 or part.vertex_to_block[u] != part.vertex_to_block[v]:
                forced_bichromatic.append((1 << u) | (1 << v))

    full = (1 << n) - 1
    best: int | None = None
    optima = 0
    desired_exists = False

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

        if part is not None and not desired_exists:
            if all(0 < (mask & fb) < fb for fb in forced_bichromatic):
                b = Bisection(tuple(0 if (mask >> v) & 1 else 1 for v in range(n)))
                if is_desired(g, part, b)[0]:
                    desired_exists = True

    return OracleResult(
        min_epsilon=best,
        optima_count=optima,
        desired_exists=desired_exists,
        enumerated=math.comb(n, n // 2),
    )
