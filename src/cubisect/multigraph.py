"""Loop-free multigraph representation, validation, and text I/O.

Vertices are labeled 0..n-1. Parallel edges are stored as a multiplicity
per unordered vertex pair; loops are rejected, and multiplicity is capped
at 3 (more is impossible in a loop-free cubic multigraph, the only family
this package targets).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GraphFormatError

MAX_MULTIPLICITY = 3


class Multigraph:
    """Immutable undirected multigraph without loops.

    Construct from an iterable of endpoint pairs; repeated pairs accumulate
    multiplicity. All query methods are pure, so instances are safe to
    share between threads.
    """

    __slots__ = ("n", "_mult", "_adj", "_deg")

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        mult: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            pair = (u, v) if u < v else (v, u)
            mult[pair] = mult.get(pair, 0) + 1
            if mult[pair] > MAX_MULTIPLICITY:
                raise ValueError(f"edge {pair} has multiplicity > {MAX_MULTIPLICITY}")
        adj: list[set[int]] = [set() for _ in range(n)]
        deg = [0] * n
        for (u, v), m in mult.items():
            adj[u].add(v)
            adj[v].add(u)
            deg[u] += m
            deg[v] += m
        self.n = n
        self._mult = mult
        self._adj = [frozenset(s) for s in adj]
        self._deg = deg

    # -- queries ---------------------------------------------------------

    def degree(self, v: int) -> int:
        """Sum of multiplicities of edges incident to v."""
        self._check_vertex(v)
        return self._deg[v]

    def distinct_neighbors(self, v: int) -> frozenset[int]:
        """Vertices joined to v by at least one edge, ignoring multiplicity."""
        self._check_vertex(v)
        return self._adj[v]

    def multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges between u and v (0 if none)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0
        return self._mult.get((u, v) if u < v else (v, u), 0)

    def adjacent(self, u: int, v: int) -> bool:
        return self.multiplicity(u, v) > 0

    def edge_pairs(self) -> list[tuple[int, int, int]]:
        """Distinct edges as (u, v, multiplicity) with u < v, sorted."""
        return sorted((u, v, m) for (u, v), m in self._mult.items())

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges expanded by multiplicity, sorted by (min, max) endpoint."""
        out = []
        for u, v, m in self.edge_pairs():
            out.extend([(u, v)] * m)
        return out

    @property
    def edge_count(self) -> int:
        """Total number of edges counted with multiplicity."""
        return sum(self._mult.values())

    def relabel(self, perm) -> "Multigraph":
        """Return the graph with vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        edges = []
        for u, v, m in self.edge_pairs():
            edges.extend([(perm[u], perm[v])] * m)
        return Multigraph(self.n, edges)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self._mult == other._mult

    def __hash__(self):
        return hash((self.n, frozenset(self._mult.items())))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks that gate every other operation."""

    is_cubic: bool
    is_connected: bool
    is_claw_free: bool
    is_k4: bool
    claw_witness: tuple[int, int, int, int] | None = None

    @property
    def in_class(self) -> bool:
        """Inside the class the results cover: cubic, connected,
        claw-free, and not the complete graph on four vertices."""
        return self.is_cubic and self.is_connected and self.is_claw_free and not self.is_k4

    def to_json(self) -> dict:
        return {
            "is_cubic": self.is_cubic,
            "is_connected": self.is_connected,
            "is_claw_free": self.is_claw_free,
            "is_k4": self.is_k4,
            "claw_witness": list(self.claw_witness) if self.claw_witness else None,
        }


def validate(g: Multigraph) -> ValidationReport:
    """Check cubicity, connectivity, claw-freeness, and K4 recognition.

    A claw witness is a vertex with three distinct pairwise non-adjacent
    neighbors; edge multiplicities are irrelevant to the adjacency tests.
    All findings are reported, never raised.
    """
    is_cubic = all(g.degree(v) == 3 for v in range(g.n))
    is_connected = _connected(g)
    witness = _find_claw(g)
    # Exact K4 test: all six simple edges, nothing doubled.
    is_k4 = g.n == 4 and all(
        g.multiplicity(u, v) == 1 for u, v in itertools.combinations(range(4), 2)
    )
    return ValidationReport(
        is_cubic=is_cubic,
        is_connected=is_connected,
        is_claw_free=witness is None,
        is_k4=is_k4,
        claw_witness=witness,
    )


def _connected(g: Multigraph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.distinct_neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def _find_claw(g: Multigraph) -> tuple[int, int, int, int] | None:
    for v in range(g.n):
        nbrs = sorted(g.distinct_neighbors(v))
        if len(nbrs) < 3:
            # A vertex on a parallel edge has at most two distinct
            # neighbors in a cubic graph and can never center a claw.
            continue
        for a, b, c in itertools.combinations(nbrs, 3):
            if not (g.adjacent(a, b) or g.adjacent(a, c) or g.adjacent(b, c)):
                return (v, a, b, c)
    return None


def triangles(g: Multigraph) -> list[tuple[int, int, int]]:
    """All vertex triples u < v < w with the three pairs adjacent."""
    out = []
    for u in range(g.n):
        nbrs = sorted(x for x in g.distinct_neighbors(u) if x > u)
        for v, w in itertools.combinations(nbrs, 2):
            if g.adjacent(v, w):
                out.append((u, v, w))
    return out


# -- text format -----------------------------------------------------------
#
#   # optional comment lines
#   n m
#   u v          (m lines, 0-based endpoints, one line per parallel edge)


def parse_graph(text: str) -> Multigraph:
    """Parse the edge-list text format; raises GraphFormatError on bad input."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GraphFormatError("empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected edge line 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
        edges.append((u, v))
    try:
        return Multigraph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def format_graph(g: Multigraph) -> str:
    """Canonical text form: sorted edges, one line per parallel edge.

    parse_graph(format_graph(g)) reproduces g exactly, and formatting a
    parsed canonical file reproduces it byte for byte.
    """
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"
