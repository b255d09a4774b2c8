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
exactly when it has no claw and no K4 component, so the cover plus the
connectivity test decide the class, and the claw search runs only when
they fail, to build the report.
``min_bisection`` certifies its coloring with one ``mono_stats`` and one
``is_2bisection`` pass; for even k a count equal to the formula already
makes the coloring desired.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisection import BLACK, WHITE, Bisection, MonoStats, is_2bisection, mono_stats
from .errors import CertificateError, LiftError, NotApplicable, PartitionError, ReductionError
from .multigraph import Multigraph, format_graph, is_connected, validate
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
    k, so for even k the colors balance. Without nodes the graph is one
    ring of digons and diamonds, colored by propagation.

    For odd k the diamond with the smallest vertex tuple is flipped:
    colored with a, c one color and b, d the other, its ends differ like
    a digon's, the count of equal chains becomes even, and that diamond
    carries two monochromatic edges instead of one.

    A coloring that fails to close the ring or to come out complete and
    balanced raises CertificateError, as a bug.
    """
    blocks, block_of, ext = part.blocks, part.vertex_to_block, part.ext
    flip_index = -1
    if part.k % 2:
        flip_index = block_of[min(b.vertices for b in part.diamond_blocks)[0]]

    n = g.n
    colors = [-1] * n
    is_port = [False] * n
    nodes = [i for i, blk in enumerate(blocks) if blk.kind in (TRIANGLE, TRUMPET)]
    for i in nodes:
        blk = blocks[i]
        if blk.kind == TRIANGLE:
            for v in blk.vertices:
                is_port[v] = True
        else:
            w, x, y = blk.vertices
            is_port[w] = True
            colors[x] = BLACK
            colors[y] = WHITE

    def enter(v: int, c: int) -> tuple[int, int]:
        """Color the digon or diamond entered at port v with color c;
        return its other port and that port's color."""
        i = block_of[v]
        blk = blocks[i]
        if blk.kind == DIGON:
            u, w = blk.vertices
            out = w if v == u else u
            colors[v] = c
            colors[out] = 1 - c
            return out, 1 - c
        a, b, cc, d = blk.vertices
        if i == flip_index:
            near, far, out = (cc, b, d) if v == a else (b, cc, a)
            colors[v] = colors[near] = c
            colors[far] = colors[out] = 1 - c
            return out, 1 - c
        out = d if v == a else a
        colors[v] = colors[out] = c
        colors[b] = colors[cc] = 1 - c
        return out, c

    def paint(p: int, c: int) -> int:
        """Color port p with c and the chain leaving it; return the port
        where the chain ends, colored as the chain forces."""
        colors[p] = c
        v, c = ext[p], 1 - c
        while not is_port[v]:
            out, c = enter(v, c)
            v, c = ext[out], 1 - c
        colors[v] = c
        return v

    if not nodes:
        if n == 2:
            # A connected cubic graph on two vertices is the triple edge.
            colors[0], colors[1] = BLACK, WHITE
        else:
            # Color the first block, then walk the ring back to it.
            start = blocks[0].vertices[0]
            out, c = enter(start, BLACK)
            is_port[start] = True
            if colors[paint(out, c)] != BLACK:
                raise CertificateError(
                    "ring of digons and diamonds does not close consistently:\n"
                    + format_graph(g)
                )
    else:
        # Chains as edges of the node graph, plus one dummy edge per node.
        dummy = len(blocks)
        ends: list[tuple[int, int]] = []  # chain id -> (port, port)
        for i in nodes:
            for p in blocks[i].vertices:
                if is_port[p] and colors[p] < 0:  # a port is painted with its chain
                    ends.append((p, paint(p, BLACK)))
        edges = [(block_of[p], block_of[q]) for p, q in ends]
        edges.extend((dummy, i) for i in nodes)
        adj: list[list[int]] = [[] for _ in range(dummy + 1)]
        for e, (x, y) in enumerate(edges):
            adj[x].append(e)
            adj[y].append(e)

        # Iterative Hierholzer from the dummy, with one scan per adjacency
        # list. Entries leave the stack in reverse circuit order, so the
        # circuit read backwards leaves node x along edge e for each popped
        # (x, e) but the last: paint that chain as its entry pops. A dummy
        # edge, or the end, carries the departure color over.
        used = [False] * len(edges)
        scans = [iter(out_edges) for out_edges in adj]
        stack: list[tuple[int, int]] = [(dummy, -1)]
        departure = BLACK
        while stack:
            x = stack[-1][0]
            for e in scans[x]:
                if not used[e]:
                    used[e] = True
                    a, b = edges[e]
                    stack.append((b if a == x else a, e))
                    break
            else:
                x, e = stack.pop()
                if 0 <= e < len(ends):
                    p, q = ends[e]
                    if block_of[p] != x:
                        p = q
                    departure = 1 - colors[paint(p, departure)]

    if -1 in colors or 2 * colors.count(BLACK) != n:
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


def require_cover(g: Multigraph) -> StructurePartition:
    """The block cover of g; raises NotApplicable, with the same report,
    wherever require_in_class does.

    find_blocks refuses a graph that is not cubic or has a claw or a K4
    component, so a cover of a connected graph proves it in class, and
    the claw search of validate runs only when the cover or the
    connectivity test fails, to build the report. A PartitionError on an
    in-class graph propagates.
    """
    try:
        part = find_blocks(g)
    except PartitionError:
        require_in_class(g)
        raise
    if not is_connected(g):
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
