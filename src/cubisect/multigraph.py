"""Loop-free multigraph representation, validation, and text I/O.

Vertices are labeled 0..n-1. The graph is stored in one flat layout
(compressed sparse row): ``_nbr`` holds the neighbors of vertex 0, then
those of vertex 1, and so on, each vertex's run sorted and a neighbor
repeated once per parallel edge; v's run is ``_nbr[_start[v]:_start[v + 1]]``
and ``_start[n]`` is twice the edge count. Loops are rejected, and
multiplicity is capped at 3 (more is impossible in a loop-free cubic
multigraph, the only family this package targets).

A cubic graph, the input the package is built for, gets its own layout:
every run is three slots long, v's at 3v, so ``_start`` is
``range(0, 3n + 1, 3)`` and no offset list is held. The fill places each
end at slot 3u + (u's count so far), counted in a bytearray, and chooses
this layout whenever the counts all come out 3; the readers of the hot
paths step through the runs three slots at a time. Any other graph, a
vertex of degree 4 included, is out of class and gets n+1 offsets in a
list and plain loops: past the parse, only ``check`` and ``verify`` read
one, to report on it.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, islice
from operator import eq, gt, itemgetter, or_

from .errors import GraphFormatError

MAX_MULTIPLICITY = 3


def _check_ends(n: int, ends: list[int]) -> None:
    """Raise ValueError unless n is positive and every edge (ends[0],
    ends[1]), (ends[2], ends[3]), ... joins two distinct vertices in
    0..n-1, naming the first edge that does not."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    it = iter(ends)
    if ends and (min(ends) < 0 or max(ends) >= n) or any(map(eq, it, it)):
        it = iter(ends)
        for u, v in zip(it, it):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")


def _cubic_runs(n: int, ends: list[int]) -> list[int] | None:
    """The sorted runs of a graph with 2m = 3n ends, v's run at slots
    3v..3v+2, or None unless every degree is 3. Edges given in sorted
    order leave every run sorted; a screen of the slot columns in C finds
    that and returns before the per-run screen."""
    # Each end goes to slot 3u + (u's count so far). A vertex of degree
    # above 3 spills into the next vertex's slots, past the end of the list
    # (IndexError) or past a byte's range (ValueError); then some count is
    # not 3, and the caller builds the general layout from ends afresh.
    count = bytearray(n)
    nbr = [0] * len(ends)
    # Each edge is a pair of consecutive ends, read off one iterator.
    it = iter(ends)
    try:
        for u, v in zip(it, it):
            i = count[u]
            nbr[3 * u + i] = v
            count[u] = i + 1
            i = count[v]
            nbr[3 * v + i] = u
            count[v] = i + 1
    except (IndexError, ValueError):
        return None
    if count.count(3) != n:
        return None
    # Sort only the runs holding a descent, screened in C slot against slot.
    # Sorted input holds no descent at all: one pass over each pair of
    # adjacent slot columns settles that, and the per-run screen runs only
    # when some run needs a sort. The columns are read through islices, as
    # copies of them would add 3n references to the parse's peak. The screen
    # reads v's slots before v's run is rewritten, and the sort leaves every
    # other slot where it was.
    def column(i):
        return islice(nbr, i, None, 3)

    if not (any(map(gt, column(0), column(1))) or any(map(gt, column(1), column(2)))):
        return nbr
    descents = map(or_, map(gt, column(0), column(1)), map(gt, column(1), column(2)))
    for v in compress(range(n), descents):
        nbr[3 * v : 3 * v + 3] = sorted(nbr[3 * v : 3 * v + 3])
    # A vertex of degree 3 carries no pair above the multiplicity cap.
    return nbr


class Multigraph:
    """Immutable undirected multigraph without loops.

    Construct from an iterable of endpoint pairs; repeated pairs accumulate
    multiplicity. All query methods are pure, so instances are safe to
    share between threads.
    """

    __slots__ = ("n", "_start", "_nbr")

    def __init__(self, n: int, edges):
        pairs = list(edges)
        if not set(map(len, pairs)) <= {2}:
            raise ValueError("every edge needs exactly two endpoints")
        ends = list(chain.from_iterable(pairs))
        _check_ends(n, ends)
        self._fill(n, ends)

    @classmethod
    def _from_ends(cls, n: int, ends: list[int]) -> "Multigraph":
        """The graph with edges (ends[0], ends[1]), (ends[2], ends[3]), ...,
        which _check_ends or the caller has checked. The edges may come in
        any order and orientation, as the fill sorts the runs that need it.
        ends is only read, so a cubic fill that meets a vertex of another
        degree hands it unchanged to the general one."""
        g = cls.__new__(cls)
        g._fill(n, ends)
        return g

    def _fill(self, n: int, ends: list[int]) -> None:
        # _nbr holds the objects of ends itself, so a parsed graph keeps 2m
        # references to its n label objects rather than 2m ints of its own.
        self.n = n
        nbr = _cubic_runs(n, ends) if len(ends) == 3 * n else None
        if nbr is not None:
            self._start, self._nbr = range(0, 3 * n + 1, 3), nbr
            return
        deg = [0] * n
        for x in ends:
            deg[x] += 1
        start = [0]
        start += accumulate(deg)
        pos = start[:-1]
        nbr = [0] * len(ends)
        # Each edge is a pair of consecutive ends, read off one iterator.
        it = iter(ends)
        for u, v in zip(it, it):
            i = pos[u]
            nbr[i] = v
            pos[u] = i + 1
            i = pos[v]
            nbr[i] = u
            pos[v] = i + 1
        # Sort each run, and name the first vertex with a pair above the
        # multiplicity cap, at its smallest such neighbor.
        for v, a, b in zip(range(n), start, islice(start, 1, None)):
            run = nbr[a:b]
            run.sort()
            nbr[a:b] = run
            for x, y in zip(run, run[MAX_MULTIPLICITY:]):
                if x == y:
                    pair = (v, x) if v < x else (x, v)
                    raise ValueError(f"edge {pair} has multiplicity > {MAX_MULTIPLICITY}")
        self._start = start
        self._nbr = nbr

    # -- queries ---------------------------------------------------------

    def neighbors(self, v: int) -> list[int]:
        """v's neighbors in increasing order, each repeated once per
        parallel edge (a fresh list)."""
        # The hot loops read _nbr directly; this serves the K4 test, the
        # oracle's bitmasks, reduce_diamond and the tests.
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        return self._nbr[self._start[v] : self._start[v + 1]]

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges expanded by multiplicity, sorted by (min, max) endpoint."""
        start, nbr = self._start, self._nbr
        runs = zip(range(self.n), start, islice(start, 1, None))
        return [(u, v) for u, a, b in runs for v in nbr[a:b] if v > u]

    def edge_pairs(self) -> list[tuple[int, int, int]]:
        """Distinct edges as (u, v, multiplicity) with u < v, sorted."""
        return [(u, v, m) for (u, v), m in Counter(self.edge_list()).items()]

    @property
    def edge_count(self) -> int:
        """Total number of edges counted with multiplicity."""
        return len(self._nbr) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self._start == other._start and self._nbr == other._nbr

    def __hash__(self):
        return hash((self.n, tuple(self._nbr)))

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
    witness = _find_claw(g)
    return ValidationReport(
        is_cubic=is_cubic(g),
        is_connected=is_connected(g),
        is_claw_free=witness is None,
        is_k4=_is_k4(g),
        claw_witness=witness,
    )


def is_cubic(g: Multigraph) -> bool:
    """True iff every vertex has degree 3: the fill gives exactly those
    graphs range offsets, so this reads the type and allocates nothing."""
    return isinstance(g._start, range)


def _is_k4(g: Multigraph) -> bool:
    # Exact K4 test: all six simple edges, nothing doubled.
    return g.n == 4 and all(g.neighbors(v) == [u for u in range(4) if u != v] for v in range(4))


def is_connected(g: Multigraph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    start, nbr = g._start, g._nbr
    seen = [False] * g.n
    seen[0] = True
    count = 1
    stack = [0]
    if is_cubic(g):
        # The loop below with v's run at slots 3v..3v+2: a third faster at
        # n = 10^5 than indexing the range offsets.
        while stack:
            v = 3 * stack.pop()
            for u in nbr[v : v + 3]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(u)
        return count == g.n
    while stack:
        v = stack.pop()
        for u in nbr[start[v] : start[v + 1]]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == g.n


def _find_claw(g: Multigraph) -> tuple[int, int, int, int] | None:
    start, nbr = g._start, g._nbr
    if is_cubic(g):
        # The general loop below on runs x <= y <= z of three slots each:
        # a run with a repeat has two distinct neighbors at most, and one of
        # three distinct neighbors is their only triple. It also skips a vertex
        # seen in a triangle: that triple holds the two other corners of the
        # triangle, which are adjacent.
        in_triangle = [False] * g.n
        runs = iter(nbr)
        for v, x, y, z in zip(range(g.n), runs, runs, runs):
            if in_triangle[v] or x == y or y == z:
                continue
            near_x = nbr[3 * x : 3 * x + 3]
            if y in near_x:
                in_triangle[x] = in_triangle[y] = True
            elif z in near_x:
                in_triangle[x] = in_triangle[z] = True
            elif z in nbr[3 * y : 3 * y + 3]:
                in_triangle[y] = in_triangle[z] = True
            else:
                return (v, x, y, z)
        return None
    for v in range(g.n):
        for a, b, c in combinations(dict.fromkeys(nbr[start[v] : start[v + 1]]), 3):
            near_a = nbr[start[a] : start[a + 1]]
            if b not in near_a and c not in near_a and c not in nbr[start[b] : start[b + 1]]:
                return (v, a, b, c)
    return None


# -- text format -----------------------------------------------------------
#
#   # optional comment lines (the first non-blank character is #)
#   n m
#   u v          (m lines, 0-based endpoints, one line per parallel edge)


# Characters per slice of the text that _read_edges reads at once.
_SLICE = 1 << 16


def parse_graph(text: str) -> Multigraph:
    """Parse the edge-list text format; raises GraphFormatError on bad input."""
    try:
        return Multigraph._from_ends(*_read_edges(text))
    except GraphFormatError:
        raise
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def _read_edges(text: str) -> tuple[int, list[int]]:
    """The vertex count and the flat endpoint list u0 v0 u1 v1 ... of the
    edge lines, holding one shared int object per vertex label.

    The text is read once, in slices of about _SLICE characters, each cut
    just after a newline, so only one slice's lines and tokens are alive at
    a time. When the header's slice up to its first newline holds exactly
    one line that is neither blank nor a comment, that line is the header,
    and the rest of the slice is read as a later slice is; otherwise the
    whole slice goes through the line reader. A slice, or that rest, which
    holds nothing but plain `u v` lines (see _plain_ints) is read in bulk,
    its integers in C; any other goes through the line reader, which alone
    names a bad line. Both accept the same texts and give the same
    integers. The first fault in reading order raises where it is found: a
    bad header at once; in a slice, the first line that is not two
    integers, then the first edge out of range or looped (or n < 1); after
    the last slice, a missing header, then a line count other than m. A
    header whose m is more than the text can hold builds no labels and
    keeps no ends, but its lines are checked all the same, so the same
    fault is named.
    """
    n = m = None
    labels: list[int] = []
    ends: list[int] = []
    count = 0
    at = 0
    while at < len(text):
        cut = text.find("\n", at + _SLICE) + 1 or len(text)
        piece = text[at:cut]
        at = cut
        if n is None:
            # A first line is split off only when it is short, so that a
            # long text with CR line ends alone is not split into lines twice.
            i = piece.find("\n") + 1 or len(piece)
            head = _lines(piece[:i]) if i <= _SLICE else []
            if len(head) == 1:
                n, m = _header(head[0])
                piece = piece[i:]
        ints = None if n is None else _plain_ints(piece)
        if ints is None:
            lines = _lines(piece)
            if n is None and lines:
                n, m = _header(lines.pop(0))
            if not lines:
                continue
            ints = _line_ints(lines)
        count += len(ints) // 2
        # Only a "-" can make a label negative, which indexing would take.
        it = iter(ints)
        if "-" in piece or any(map(eq, it, it)):
            _check_ends(n, ints)
        # The parsed ints are dropped with the slice; the graph keeps 2m
        # references to n label objects, not 2m objects of its own. The
        # labels wait for a slice of good lines, so that a huge n in a bad
        # file allocates nothing before the fault is named.
        _check_size(n)
        # An edge line and its line end take at least 4 characters, so a
        # larger m is a wrong line count whatever the lines hold: their
        # faults are still named, but no labels are built.
        if m > len(text) // 4:
            _check_ends(n, ints)
            continue
        labels = labels or list(range(n))
        try:
            # At least two items, so itemgetter gives a tuple.
            ends += itemgetter(*ints)(labels)
        except IndexError:  # a label of n or more, or n < 1
            _check_ends(n, ints)
    if n is None:
        raise GraphFormatError("empty graph file")
    if count != m:
        raise GraphFormatError(f"expected {m} edge lines, found {count}")
    _check_ends(n, [])  # n < 1 with no edge line
    _check_size(n)
    return n, ends


# Deletes the ASCII digits, and turns the separators of plain lines into
# the commas of a JSON array.
_DIGITS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


def _plain_ints(piece: str) -> list[int] | None:
    """The integers of a slice of plain `u v` lines, each two runs of ASCII
    digits with one space between and a newline after (but maybe the last),
    read by the C JSON scanner; None for any other slice.

    With the digits deleted such a slice leaves exactly " \n" per line,
    and a lone " " for a last line without a newline. JSON then refuses an
    empty token, a leading zero and more digits than int() takes (4300 by
    default), so what it accepts is two integers per line, each as int()
    reads it, but for a last line of one integer and no newline: its digits
    leave nothing, so it is refused by the odd count it gives. The line
    reader takes whatever is refused.
    """
    rest = piece.translate(_DIGITS)
    if not rest or rest != " \n" * (len(rest) // 2) + " " * (len(rest) % 2):
        return None
    try:
        ints = json.loads("[" + piece.rstrip("\n").translate(_COMMAS) + "]")
    except ValueError:
        return None
    return None if len(ints) % 2 else ints


def _lines(piece: str) -> list[str]:
    """The lines of piece, stripped, that are neither blank nor comments."""
    lines = list(filter(None, map(str.strip, piece.splitlines())))
    if "#" in piece:
        lines = [ln for ln in lines if not ln.startswith("#")]
    return lines


def _line_ints(lines: list[str]) -> list[int]:
    """The integers of edge lines, stripped and free of comments, two per
    line; raises GraphFormatError on the first line that is not two
    integers."""
    # One split for every edge line, with a "#" token between lines. No
    # comment line is left and no integer reads "#", so each line holds
    # exactly two integers iff every third token is a "#" and the others
    # are integers.
    tokens = " # ".join(lines).split()
    if len(tokens) != 3 * len(lines) - 1 or tokens[2::3] != ["#"] * (len(lines) - 1):
        _raise_bad_line(lines)
    del tokens[2::3]
    try:
        return list(map(int, tokens))
    except ValueError:
        _raise_bad_line(lines)


def _check_size(n: int) -> None:
    """Raise MemoryError if no list can be n long: allocating one would
    raise OverflowError, not the MemoryError of a merely too large n."""
    if n > sys.maxsize:
        raise MemoryError(f"vertex count {n} exceeds any list's length")


def _header(line: str) -> tuple[int, int]:
    """The n and m of a header line."""
    header = line.split()
    if len(header) != 2:
        raise GraphFormatError(f"expected header 'n m', got {line!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {line!r}") from exc
    return n, m


def _raise_bad_line(lines: list[str]) -> None:
    """Raise GraphFormatError on the first of lines that is not two integers."""
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected edge line 'u v', got {ln!r}")
        try:
            int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc


def format_graph(g: Multigraph) -> str:
    """Canonical text form: sorted edges, one line per parallel edge.

    parse_graph(format_graph(g)) reproduces g exactly, and formatting a
    parsed canonical file reproduces it byte for byte.
    """
    edges = g.edge_list()
    # The header is a "u v" line too: one % over m + 1 of them, with no
    # string per line.
    return ("%d %d\n" * (len(edges) + 1)) % (g.n, len(edges), *chain.from_iterable(edges))
