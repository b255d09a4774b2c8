"""Construct a minimum 2-bisection for a connected claw-free cubic
multigraph other than the complete graph on four vertices.

The minimum monochromatic count is (n - k - 2p) / 3 when the diamond
count k is even, and one more when k is odd, where p counts doubled
pairs (a tripled pair contributes one). Even k admits a coloring in
which every triangle carries exactly one monochromatic edge and every
monochromatic edge sits in a triangle; one Euler walk over the graph of
triangle/trumpet blocks and the digon/diamond chains between them builds
it in linear time. Odd k runs the same walk with one diamond colored to
carry exactly two monochromatic edges, the one with the smallest vertex
tuple, which the walk picks itself. Diamond removal and splicing
(``reduce_diamond`` and ``lift``) are the proof device for the odd case
and are kept for the tests that check it.

``require_cover`` is the class gate: a cubic graph has a block cover
exactly when it has no claw and no K4 component, so the cover plus a
search over its blocks along the matching between them decide the class,
and validate's claw search and connectivity test run only when they
fail, to build the report.
``min_bisection`` certifies its coloring with one ``mono_stats`` and one
``is_2bisection`` pass; for even k a count equal to the formula already
makes the coloring desired.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisection import BLACK, WHITE, Bisection, MonoStats, is_2bisection, mono_stats
from .errors import CertificateError, LiftError, NotApplicable, PartitionError, ReductionError
from .multigraph import Multigraph, format_graph, validate
from .structure import DIAMOND, DIGON, TRIANGLE, TRUMPET, Block, StructurePartition, find_blocks


def desired_bisection_csp(g: Multigraph, part: StructurePartition) -> Bisection:
    """Build a balanced coloring with one monochromatic edge per diamond,
    triangle and trumpet and every edge between blocks bichromatic, in
    time linear in the graph's size.

    Triangles and trumpets are nodes; each maximal run of digons and
    diamonds between two node ports is a chain, followed along the
    cover's matching part.ext. A digon's ends differ in color and a
    diamond's ends match, so a chain with an odd diamond count is
    "equal": its two end ports share a color. A dummy node
    joined to every node makes all degrees even, and one Euler circuit
    from the dummy colors every chain in turn. At each pass through a
    node the departing port takes the opposite color of the arriving
    one, so no triangle is monochromatic; the departure color therefore
    flips exactly after each equal chain, so equal chains alternate
    between all-black and all-white ends. Their count has the parity of
    k, so for even k the colors balance. The circuit runs over the cover's
    own lists: a node's ports are its members in role order (a trumpet's
    apex alone), and the circuit takes a chain when it reaches one of its
    ports, following it to the far port without coloring it; backing out,
    it paints each chain once. Without nodes the graph is one ring of
    digons and diamonds, painted the same way.

    For odd k the diamond with the smallest vertex tuple is flipped:
    colored with a, c one color and b, d the other, its ends differ like
    a digon's, the count of equal chains becomes even, and that diamond
    carries two monochromatic edges instead of one.

    A coloring that fails to close the ring or to come out complete and
    balanced raises CertificateError, as a bug.
    """
    kinds, members, block_of, ext = part.kinds, part.members, part.vertex_to_block, part.ext
    first = kinds.index(DIAMOND) if part.k % 2 else 0  # the diamonds are one slice
    flip = block_of[min(members[first : first + part.k])[0]] if part.k % 2 else -1

    n = g.n
    # In colors: -1 until painted; PORT at a node's port until the circuit
    # takes its chain, TAKEN from then until the chain is painted.
    PORT, TAKEN = -2, -3
    colors = [-1] * n

    def paint(p: int, c: int) -> int:
        """Color p with c and the digons and diamonds after it along ext up
        to the first vertex already colored (the chain's far port, or in a
        ring the one after p); color that as forced and return its color."""
        colors[p] = c
        v, c = ext[p], 1 - c
        while colors[v] == -1:
            i = block_of[v]
            vs = members[i]
            out = vs[-1] if v == vs[0] else vs[0]
            colors[v] = c
            if i == flip:  # the shared side split: v's neighbor on it takes c
                colors[vs[1]], colors[vs[2]] = (1 - c, c) if v == vs[0] else (c, 1 - c)
                c = 1 - c
            elif kinds[i] == DIGON:
                c = 1 - c
            else:
                colors[vs[1]] = colors[vs[2]] = 1 - c
            colors[out] = c
            v, c = ext[out], 1 - c
        colors[v] = c
        return c

    if n == 2:
        # A connected cubic graph on two vertices is the triple edge.
        colors[0], colors[1] = BLACK, WHITE
    elif not part.t:
        # Around the ring from its first vertex and back through its block,
        # which colors that vertex black again if the ring closes.
        if paint(members[0][0], BLACK) != WHITE:
            raise CertificateError("ring of digons and diamonds does not close consistently:\n" + format_graph(g))
    else:
        # free[i]: 1 at a node until the circuit takes its edge to the dummy.
        dummy = len(members)
        free = bytearray(dummy)
        for i, kind in enumerate(kinds):
            if kind == TRIANGLE or kind == TRUMPET:
                w, x, y = members[i]
                colors[w], colors[x], colors[y] = (PORT, PORT, PORT) if kind == TRIANGLE else (PORT, BLACK, WHITE)
                free[i] = 1

        # Iterative Hierholzer from the dummy, x the node at the top. A node
        # leaves by the chain of its first port still PORT, found by
        # following the chain to its far port, then by its dummy edge; the
        # dummy leaves by the edge of the first free node. An entry is the
        # port a chain arrived at, or ~x for an arrival at x by a dummy
        # edge. Entries pop in reverse circuit order, so the circuit read
        # backwards leaves each popped port along its chain: paint it then.
        stack: list[int] = []
        departure = BLACK
        at = 0  # no node below at is free
        x = dummy
        while True:
            step = None
            if x == dummy:
                y = free.find(1, at)
                if y >= 0:
                    at, free[y], step = y, 0, ~y
            else:
                for p in members[x]:
                    if colors[p] == PORT:
                        v = ext[p]
                        while colors[v] == -1:
                            vs = members[block_of[v]]
                            v = ext[vs[-1] if v == vs[0] else vs[0]]
                        colors[p] = colors[v] = TAKEN
                        step = v
                        break
                else:
                    if free[x]:
                        free[x], step = 0, ~dummy
            if step is not None:
                stack.append(step)
                x = block_of[step] if step >= 0 else ~step
            elif stack:
                top = stack.pop()
                if top >= 0:
                    departure = 1 - paint(top, departure)
                top = stack[-1] if stack else ~dummy
                x = block_of[top] if top >= 0 else ~top
            else:
                break

    if min(colors) < 0 or 2 * colors.count(BLACK) != n:
        raise CertificateError(
            "constructed coloring is unbalanced or incomplete:\n" + format_graph(g)
        )
    return Bisection(tuple(colors))


@dataclass(frozen=True)
class DiamondReduction:
    """Record of removing one diamond and joining its two attachment
    vertices directly.

    removed: the diamond's vertices (a, b, c, d) in the original graph.
    x, y: outside neighbors of a and d, in original labels.
    reduced: the smaller graph on n - 4 vertices.
    new_edge_was_present: True when x and y were already adjacent, so the
        added edge raised a multiplicity.
    vertex_map: vertex_map[new] = old for the surviving vertices.
    """

    removed: tuple[int, int, int, int]
    x: int
    y: int
    reduced: Multigraph
    new_edge_was_present: bool
    vertex_map: tuple[int, ...]


def reduce_diamond(g: Multigraph, diamond: Block) -> DiamondReduction:
    """Delete a diamond's four vertices and connect their two outside
    neighbors with a fresh edge.

    The result stays cubic, connected, and claw-free with one diamond
    fewer. When the outside neighbors were a doubled pair the new edge
    makes a tripled pair; when they were a simple pair inside a triangle
    the triangle becomes a trumpet. Inputs whose removal would leave the
    complete graph on four vertices are rejected.
    """
    if diamond.kind != DIAMOND:
        raise ValueError("reduce_diamond needs a diamond block")
    a, b, c, d = diamond.vertices

    (x,) = [u for u in g.neighbors(a) if u not in (b, c, d)]
    (y,) = [u for u in g.neighbors(d) if u not in (a, b, c)]
    if x == y:
        # x would need degree >= 2 into the diamond plus its other edges;
        # impossible in a cubic graph unless n == 6, where the graph is a
        # diamond plus a digon and x != y. Guard anyway.
        raise ReductionError("attachment vertices coincide")

    removed = {a, b, c, d}
    vertex_map = tuple(v for v in range(g.n) if v not in removed)
    new_label = {old: new for new, old in enumerate(vertex_map)}

    was_present = y in g.neighbors(x)
    edges = [
        (new_label[u], new_label[v])
        for u, v in g.edge_list()
        if u not in removed and v not in removed
    ]
    edges.append((new_label[x], new_label[y]))
    reduced = Multigraph(g.n - 4, edges)

    report = validate(reduced)
    if not report.in_class:
        raise ReductionError(
            "removing this diamond leaves the complete graph on four "
            "vertices, which has no further decomposition"
            if report.is_k4
            else "reduction broke a graph invariant"
        )
    return DiamondReduction(
        removed=(a, b, c, d),
        x=x,
        y=y,
        reduced=reduced,
        new_edge_was_present=was_present,
        vertex_map=vertex_map,
    )


def lift(red: DiamondReduction, bp: Bisection) -> Bisection:
    """Extend a coloring of the reduced graph back to the original.

    The coloring is normalized so the attachment vertex x is black; then
    the diamond comes back with b, d black and a, c white. The outer
    vertex a sits next to the white y side, d next to the black x side,
    adding exactly the two monochromatic edges bd and ac.
    """
    if bp.n != red.reduced.n:
        raise LiftError("coloring does not match the reduced graph")
    nx = red.vertex_map.index(red.x)
    ny = red.vertex_map.index(red.y)
    if bp.colors[nx] == bp.colors[ny]:
        raise LiftError(
            "attachment vertices share a color; the reduced coloring does "
            "not keep its new edge bichromatic"
        )
    if bp.colors[nx] == WHITE:
        bp = bp.swapped()

    a, b, c, d = red.removed
    colors: list[int | None] = [None] * (len(red.vertex_map) + 4)
    for new, old in enumerate(red.vertex_map):
        colors[old] = bp.colors[new]
    colors[b] = BLACK
    colors[d] = BLACK
    colors[a] = WHITE
    colors[c] = WHITE
    if any(col is None for col in colors):
        raise LiftError("lifted coloring left a vertex unassigned")
    return Bisection(tuple(colors))  # type: ignore[arg-type]


@dataclass(frozen=True)
class BisectionCertificate:
    """Certificate that a coloring attains the closed-form minimum."""

    stats: MonoStats
    n: int
    k: int
    p: int
    formula_value: int
    parity: int
    is_valid_2bisection: bool

    @property
    def epsilon(self) -> int:
        return self.stats.epsilon

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "p": self.p,
            "epsilon": self.epsilon,
            "formula": self.formula_value,
            "parity": "even" if self.parity == 0 else "odd",
            "valid": self.is_valid_2bisection,
        }


def formula_minimum(n: int, k: int, p: int) -> int:
    """Closed-form minimum monochromatic count over all 2-bisections."""
    base, rem = divmod(n - k - 2 * p, 3)
    if rem:
        raise ValueError(f"(n - k - 2p) not divisible by 3 for n={n} k={k} p={p}")
    return base + (k % 2)


def require_in_class(g: Multigraph) -> None:
    """Raise NotApplicable unless g is a connected claw-free cubic
    multigraph other than the complete graph on four vertices."""
    report = validate(g)
    if not report.in_class:
        raise NotApplicable(
            report,
            "the complete graph on four vertices is excluded"
            if report.is_k4
            else "graph is not a connected claw-free cubic multigraph",
        )


def cover_is_connected(part: StructurePartition) -> bool:
    """True iff the graph of the cover part is connected.

    Each block is connected inside, and every edge between two blocks is
    one of part.ext, so a search over the blocks along ext reaches every
    block exactly when the graph is connected.
    """
    members, block_of, ext = part.members, part.vertex_to_block, part.ext
    seen = bytearray(len(members))
    seen[0] = 1
    stack = [0]
    while stack:
        for u in members[stack.pop()]:
            w = ext[u]
            if w >= 0:
                j = block_of[w]
                if not seen[j]:
                    seen[j] = 1
                    stack.append(j)
    return 0 not in seen


def require_cover(g: Multigraph) -> StructurePartition:
    """The block cover of g; raises NotApplicable, with the same report,
    wherever require_in_class does.

    find_blocks refuses a graph that is not cubic or has a claw or a K4
    component, and cover_is_connected tells from the cover alone whether
    the graph is connected, so together they prove g in class. validate,
    with its claw search and its connectivity test over the vertices, runs
    only when one of them fails, to build the report. A PartitionError on
    an in-class graph propagates.
    """
    try:
        part = find_blocks(g)
    except PartitionError:
        require_in_class(g)
        raise
    if not cover_is_connected(part):
        require_in_class(g)  # raises: g is not connected
    return part


def min_bisection(g: Multigraph) -> tuple[Bisection, BisectionCertificate]:
    """Compute a 2-bisection with the minimum monochromatic count,
    together with a self-checked certificate.

    Raises NotApplicable when the graph falls outside the covered class:
    not cubic, not connected, not claw-free, or the complete graph on
    four vertices (whose best 2-bisection exceeds the formula).

    For even k the certificate also proves the coloring desired: every
    diamond, triangle and trumpet holds a triangle, so a balanced
    coloring has at least k + t monochromatic edges, and a count of
    exactly k + t (the formula for even k) leaves one in each of these
    blocks and none on a digon or between blocks.
    """
    part = require_cover(g)
    bis = desired_bisection_csp(g, part)

    stats = mono_stats(g, bis)
    cert = BisectionCertificate(
        stats=stats,
        n=g.n,
        k=part.k,
        p=part.p,
        formula_value=formula_minimum(g.n, part.k, part.p),
        parity=part.k % 2,
        is_valid_2bisection=is_2bisection(g, bis),
    )
    if not cert.is_valid_2bisection:
        raise CertificateError("constructed coloring is not a 2-bisection:\n" + format_graph(g))
    if cert.epsilon != cert.formula_value:
        raise CertificateError(
            f"constructed coloring has {cert.epsilon} monochromatic edges, "
            f"formula says {cert.formula_value}:\n" + format_graph(g)
        )
    if stats.epsilon_black != stats.epsilon_white:
        raise CertificateError("black and white monochromatic counts differ")
    return bis, cert
