"""Balanced two-colorings and their monochromatic-edge accounting.

A bisection colors each vertex black or white with both classes the same
size. A 2-bisection additionally keeps every same-colored component at
two vertices or fewer. The number of monochromatic edges (counted with
multiplicity) is written epsilon; for any bisection of a cubic multigraph
the black and white shares of epsilon are equal.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress, repeat

from .errors import GraphFormatError
from .multigraph import Multigraph, is_cubic
from .structure import DIAMOND, DIGON, TRUMPET, StructurePartition

BLACK = 0
WHITE = 1

# Violation names in is_desired's report: a bad diamond, a bad triangle or
# trumpet, a bad digon, and a monochromatic edge between two blocks.
TRIANGLE_ONE_MONO = "triangle_one_mono"
MONO_IN_TRIANGLE = "mono_edge_in_triangle"
DIAMOND_ONE_MONO = "diamond_one_mono"
MULTI_EDGE_NOT_MONO = "multi_edge_not_mono"

Violation = tuple[str, tuple[int, ...]]

# Maps a color byte to 1 if it is BLACK and to 0 if it is WHITE.
_IS_BLACK = bytes.maketrans(bytes((BLACK, WHITE)), b"\1\0")
# Vertices per range when a color class is written as JSON: a range is a
# few tens of kB of text.
PIECE_VERTICES = 4096


@dataclass(frozen=True)
class Bisection:
    """Balanced black/white coloring; unbalanced colorings are rejected."""

    colors: tuple[int, ...]

    def __post_init__(self):
        nb = self.colors.count(BLACK)
        nw = self.colors.count(WHITE)
        if nb + nw != len(self.colors):
            raise ValueError("colors must be BLACK (0) or WHITE (1)")
        if nb != nw:
            raise ValueError(f"unbalanced coloring: {nb} black vs {nw} white")

    @classmethod
    def from_black_set(cls, n: int, black) -> "Bisection":
        """The coloring of 0..n-1 in which the vertices (ints) in black
        are black and the others white."""
        black = set(black)
        if black and (min(black) < 0 or max(black) >= n):
            raise ValueError("black set contains out-of-range vertices")
        colors = [WHITE] * n
        any(map(colors.__setitem__, black, repeat(BLACK)))  # setitem returns None
        return cls(tuple(colors))

    @property
    def n(self) -> int:
        return len(self.colors)

    def black(self) -> list[int]:
        return list(compress(range(self.n), bytes(self.colors).translate(_IS_BLACK)))

    def white(self) -> list[int]:
        return list(compress(range(self.n), self.colors))  # WHITE is 1, BLACK 0

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
    colors = b.colors
    start, nbr = g._start, g._nbr
    # Each monochromatic edge is seen from both of its ends.
    same = [0, 0]
    if is_cubic(g):
        runs = iter(nbr)  # zipped thrice with itself: one run per step
        for c, x, y, z in zip(colors, runs, runs, runs):
            same[c] += (colors[x] == c) + (colors[y] == c) + (colors[z] == c)
    else:
        for u in range(g.n):
            c = colors[u]
            for v in nbr[start[u] : start[u + 1]]:
                if colors[v] == c:
                    same[c] += 1
    eb, ew = same[BLACK] // 2, same[WHITE] // 2
    return MonoStats(epsilon=eb + ew, epsilon_black=eb, epsilon_white=ew)


def is_2bisection(g: Multigraph, b: Bisection) -> bool:
    """True iff every same-colored component has at most two vertices.

    A component of three or more vertices forces some vertex to have two
    distinct same-colored neighbors, so the component bound is equivalent
    to this local degree test.
    """
    if b.n != g.n:
        raise ValueError(f"coloring covers {b.n} vertices, graph has {g.n}")
    colors = b.colors
    start, nbr = g._start, g._nbr
    if is_cubic(g):
        # On a run x <= y <= z: x and another same-colored neighbor other
        # than x, or else y and z both same-colored and distinct.
        runs = iter(nbr)
        for c, x, y, z in zip(colors, runs, runs, runs):
            if colors[x] == c:
                if (colors[y] == c and y != x) or (colors[z] == c and z != x):
                    return False
            elif colors[y] == c and colors[z] == c and z != y:
                return False
        return True
    for v in range(g.n):
        c = colors[v]
        mate = -1
        for u in nbr[start[v] : start[v + 1]]:
            if colors[u] == c:
                if mate >= 0 and u != mate:
                    return False
                mate = u
    return True


def is_desired(
    g: Multigraph, part: StructurePartition, b: Bisection
) -> tuple[bool, list[Violation]]:
    """Check that b is desired on the block cover part, reporting every
    violation rather than the first.

    Each diamond, triangle and trumpet holds a triangle and the blocks are
    disjoint, so any coloring has at least k+t monochromatic edges; b is
    desired when it has exactly that many, which holds iff

    * each diamond (a, x, y, d) has only its shared side xy monochromatic;
    * each triangle and each trumpet has one monochromatic edge, counted
      with multiplicity: a triangle is not all one color, and a trumpet's
      doubled pair is bichromatic;
    * each digon is bichromatic;
    * each edge between two blocks is bichromatic.

    A bad block is reported with its vertices in role order, a bad
    inter-block edge as (u, v) with u < v; blocks come first, in cover
    order, then edges.
    """
    if b.n != g.n:
        raise ValueError(f"coloring covers {b.n} vertices, graph has {g.n}")
    colors = b.colors
    violations: list[Violation] = []
    for kind, vs in zip(part.kinds, part.members):
        if kind == DIAMOND:
            a, x, y, d = vs
            if not colors[a] == colors[d] != colors[x] == colors[y]:
                violations.append((DIAMOND_ONE_MONO, vs))
        elif kind == DIGON:
            if colors[vs[0]] == colors[vs[1]]:
                violations.append((MULTI_EDGE_NOT_MONO, vs))
        else:
            w, x, y = vs
            # A trumpet is bad when its doubled pair x, y agrees, a triangle
            # when all three corners do.
            if colors[x] == colors[y] and (kind == TRUMPET or colors[w] == colors[x]):
                violations.append((TRIANGLE_ONE_MONO, vs))

    for u, v in enumerate(part.ext):
        if v > u and colors[v] == colors[u]:
            violations.append((MONO_IN_TRIANGLE, (u, v)))
    return (not violations, violations)


def bisection_to_json(b: Bisection, stats: MonoStats) -> dict:
    """The JSON form of b with its counts, as mono_stats gave them for b."""
    return {
        "black": b.black(),
        "white": b.white(),
        "epsilon": stats.epsilon,
        "epsilon_black": stats.epsilon_black,
        "epsilon_white": stats.epsilon_white,
    }


def bisection_json_pieces(b: Bisection, stats: MonoStats, pad: str = "\n") -> Iterator[str]:
    """json.dumps(bisection_to_json(b, stats), indent=2), in pieces, for the
    object nested where pad (a newline and the indent of its braces) sets
    it. Each color class is written from the coloring's bytes one range of
    PIECE_VERTICES vertices at a time, so no n-long list of ints or of
    strings is built."""
    inner = pad + "  "
    white = bytes(b.colors)  # WHITE is 1, BLACK 0
    yield "{" + inner + '"black": '
    yield from _vertex_list(white.translate(_IS_BLACK), inner)
    yield "," + inner + '"white": '
    yield from _vertex_list(white, inner)
    yield (
        f',{inner}"epsilon": {stats.epsilon},{inner}"epsilon_black": {stats.epsilon_black},'
        f'{inner}"epsilon_white": {stats.epsilon_white}{pad}}}'
    )


def _vertex_list(flags: bytes, pad: str) -> Iterator[str]:
    """The vertices v with flags[v] == 1, in order, as an indented JSON list
    whose brackets sit at pad's indent."""
    sep = "," + pad + "  "
    lead = "[" + pad + "  "
    for lo in range(0, len(flags), PIECE_VERTICES):
        hi = lo + PIECE_VERTICES
        text = sep.join(map(str, compress(range(lo, hi), flags[lo:hi])))
        if text:  # a range without a vertex of the class adds no separator
            yield lead
            yield text
            lead = sep
    yield pad + "]" if lead == sep else "[]"


def bisection_from_json(obj: dict, n: int) -> Bisection:
    """Read a bisection from its JSON form; epsilon fields are recomputed
    downstream and ignored here."""
    if not isinstance(obj, dict) or "black" not in obj or "white" not in obj:
        raise GraphFormatError("bisection JSON needs 'black' and 'white' lists")
    black, white = obj["black"], obj["white"]
    if not (isinstance(black, list) and isinstance(white, list)):
        raise GraphFormatError("'black' and 'white' must be lists of vertices")
    # Exact type test: JSON true/false load as bool, a subclass of int.
    if not {*map(type, black), *map(type, white)} <= {int}:
        raise GraphFormatError("vertex labels must be integers")
    black_set, white_set = set(black), set(white)
    if not black_set.isdisjoint(white_set):
        raise ValueError("a vertex appears in both color classes")
    # Disjoint sets cover 0..n-1 once iff they hold n labels in all, from n
    # list items, each label in range.
    if (
        len(black) + len(white) != n
        or len(black_set) + len(white_set) != n
        or min(min(black, default=0), min(white, default=0)) < 0
        or max(max(black, default=-1), max(white, default=-1)) >= n
    ):
        raise ValueError(f"color classes must cover 0..{n - 1} exactly once")
    return Bisection.from_black_set(n, black_set)
