"""Balanced two-colorings and their monochromatic-edge accounting.

A bisection colors each vertex black or white with both classes the same
size. A 2-bisection additionally keeps every same-colored component at
two vertices or fewer. The number of monochromatic edges (counted with
multiplicity) is written epsilon; for any bisection of a cubic multigraph
the black and white shares of epsilon are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphFormatError
from .multigraph import Multigraph, triangles
from .structure import DIAMOND, StructurePartition

BLACK = 0
WHITE = 1

# Condition names used in desired-bisection violation reports.
TRIANGLE_ONE_MONO = "triangle_one_mono"
MONO_IN_TRIANGLE = "mono_edge_in_triangle"
DIAMOND_ONE_MONO = "diamond_one_mono"
MULTI_EDGE_NOT_MONO = "multi_edge_not_mono"

Violation = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class Bisection:
    """Balanced black/white coloring; unbalanced colorings are rejected."""

    colors: tuple[int, ...]
    black_count: int = field(init=False)
    white_count: int = field(init=False)

    def __post_init__(self):
        if any(c not in (BLACK, WHITE) for c in self.colors):
            raise ValueError("colors must be BLACK (0) or WHITE (1)")
        nb = self.colors.count(BLACK)
        nw = len(self.colors) - nb
        if nb != nw:
            raise ValueError(f"unbalanced coloring: {nb} black vs {nw} white")
        object.__setattr__(self, "black_count", nb)
        object.__setattr__(self, "white_count", nw)

    @classmethod
    def from_black_set(cls, n: int, black) -> "Bisection":
        black = set(black)
        if not black <= set(range(n)):
            raise ValueError("black set contains out-of-range vertices")
        return cls(tuple(BLACK if v in black else WHITE for v in range(n)))

    @property
    def n(self) -> int:
        return len(self.colors)

    def black(self) -> list[int]:
        return [v for v, c in enumerate(self.colors) if c == BLACK]

    def white(self) -> list[int]:
        return [v for v, c in enumerate(self.colors) if c == WHITE]

    def swapped(self) -> "Bisection":
        return Bisection(tuple(1 - c for c in self.colors))


@dataclass(frozen=True)
class MonoStats:
    """Monochromatic edge counts, with multiplicity, split by color."""

    epsilon: int
    epsilon_black: int
    epsilon_white: int


def mono_stats(g: Multigraph, b: Bisection) -> MonoStats:
    """Count monochromatic edges; a doubled same-colored edge counts twice."""
    if b.n != g.n:
        raise ValueError(f"coloring covers {b.n} vertices, graph has {g.n}")
    eb = ew = 0
    for u, v, m in g.edge_pairs():
        if b.colors[u] == b.colors[v]:
            if b.colors[u] == BLACK:
                eb += m
            else:
                ew += m
    return MonoStats(epsilon=eb + ew, epsilon_black=eb, epsilon_white=ew)


def is_2bisection(g: Multigraph, b: Bisection) -> bool:
    """True iff every same-colored component has at most two vertices.

    A component of three or more vertices forces some vertex to have two
    distinct same-colored neighbors, so the component bound is equivalent
    to this local degree test.
    """
    if b.n != g.n:
        raise ValueError(f"coloring covers {b.n} vertices, graph has {g.n}")
    for v in range(g.n):
        same = sum(1 for u in g.distinct_neighbors(v) if b.colors[u] == b.colors[v])
        if same > 1:
            return False
    return True


def is_desired(
    g: Multigraph, part: StructurePartition, b: Bisection
) -> tuple[bool, list[Violation]]:
    """Check the four conditions of a desired bisection, reporting every
    violation rather than the first.

    * every triangle of g (including both triangles of a diamond and the
      triangle of a trumpet) contains exactly one monochromatic edge;
    * every monochromatic edge lies in a triangle;
    * every diamond contains exactly one monochromatic edge;
    * no parallel edge is monochromatic.

    Mono counts use multiplicity, consistent with epsilon.
    """
    if b.n != g.n:
        raise ValueError(f"coloring covers {b.n} vertices, graph has {g.n}")
    violations: list[Violation] = []

    def mono(u: int, v: int) -> int:
        return g.multiplicity(u, v) if b.colors[u] == b.colors[v] else 0

    for u, v, w in triangles(g):
        if mono(u, v) + mono(u, w) + mono(v, w) != 1:
            violations.append((TRIANGLE_ONE_MONO, (u, v, w)))

    for u, v, m in g.edge_pairs():
        if b.colors[u] != b.colors[v]:
            continue
        if not g.distinct_neighbors(u) & g.distinct_neighbors(v):
            violations.append((MONO_IN_TRIANGLE, (u, v)))

    for block in part.blocks:
        if block.kind != DIAMOND:
            continue
        a, bb, cc, d = block.vertices
        count = sum(
            mono(x, y) for x, y in ((a, bb), (a, cc), (bb, cc), (bb, d), (cc, d))
        )
        if count != 1:
            violations.append((DIAMOND_ONE_MONO, block.vertices))

    for u, v, m in g.edge_pairs():
        if m >= 2 and b.colors[u] == b.colors[v]:
            violations.append((MULTI_EDGE_NOT_MONO, (u, v)))

    return (not violations, violations)


def parity_check(g: Multigraph, b: Bisection) -> bool:
    """True iff the black and white monochromatic counts agree.

    Each color class of a balanced coloring of a cubic multigraph offers
    3n/2 edge endpoints, so the bichromatic edge count seen from black is
    3n/2 - 2*epsilon_black and likewise for white; both sides see the same
    bichromatic edges, forcing epsilon_black = epsilon_white.
    """
    stats = mono_stats(g, b)
    return stats.epsilon_black == stats.epsilon_white


def bisection_to_json(g: Multigraph, b: Bisection) -> dict:
    stats = mono_stats(g, b)
    return {
        "black": b.black(),
        "white": b.white(),
        "epsilon": stats.epsilon,
        "epsilon_black": stats.epsilon_black,
        "epsilon_white": stats.epsilon_white,
    }


def bisection_from_json(obj: dict, n: int) -> Bisection:
    """Read a bisection from its JSON form; epsilon fields are recomputed
    downstream and ignored here."""
    if not isinstance(obj, dict) or "black" not in obj or "white" not in obj:
        raise GraphFormatError("bisection JSON needs 'black' and 'white' lists")
    black, white = obj["black"], obj["white"]
    if not (isinstance(black, list) and isinstance(white, list)):
        raise GraphFormatError("'black' and 'white' must be lists of vertices")
    # Exact type test: JSON true/false load as bool, a subclass of int.
    if any(type(v) is not int for v in black + white):
        raise GraphFormatError("vertex labels must be integers")
    if set(black) & set(white):
        raise ValueError("a vertex appears in both color classes")
    if sorted(set(black) | set(white)) != list(range(n)) or len(black) + len(white) != n:
        raise ValueError(f"color classes must cover 0..{n - 1} exactly once")
    return Bisection.from_black_set(n, black)
