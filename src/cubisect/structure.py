"""Decomposition of a claw-free cubic multigraph into structural blocks.

Every vertex of a connected claw-free cubic multigraph other than K4 lies
in exactly one of four block types:

* diamond -- K4 minus an edge: two triangles sharing a side;
* triangle -- a plain 3-cycle with simple edges;
* trumpet -- a triangle with one doubled side;
* digon -- two vertices joined by a double (or, in the unique 2-vertex
  graph, triple) edge.

``find_blocks`` computes this cover, which is unique, and reports the
block counts k (diamonds), t (triangles + trumpets), p (digons) that
drive the monochromatic-edge formula. It follows the structure locally:
each vertex's role is read off its own three neighbors, a repeated one
meaning a digon or trumpet and otherwise the count of adjacent pairs
among them, 2 on a diamond's shared side and 1 anywhere else. A count of
0 is a claw and 3 a K4 component; a cubic graph has the cover exactly
when neither occurs, so the cover is also the class gate's claw test.
The vertex that lists a block claims the block's vertices above it, whose
runs it has read, and those are skipped: each triangle and diamond is
worked out once, not at every corner. Connectivity is left to a search
over the blocks along the matching between them (construct.require_cover).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import PartitionError
from .multigraph import Multigraph, is_cubic

DIAMOND = "diamond"
TRIANGLE = "triangle"
TRUMPET = "trumpet"
DIGON = "digon"


@dataclass(frozen=True)
class Block:
    """One block of the cover, with vertices in role order.

    diamond: (a, b, c, d) -- bc is the shared side, ad the missing edge;
    triangle: sorted (u, v, w);
    trumpet: (w, x, y) -- apex w, doubled pair x < y;
    digon: (u, v) with u < v.
    """

    kind: str
    vertices: tuple[int, ...]


# Each block as it sits in the cover's indented JSON, one template per kind,
# filled with the block's vertices; the sizes are the ones Block lists.
_BLOCK_JSON = {
    kind: '{\n      "kind": "' + kind + '",\n      "vertices": [\n        '
    + ",\n        ".join(["%d"] * size)
    + "\n      ]\n    }"
    for kind, size in ((DIAMOND, 4), (TRIANGLE, 3), (TRUMPET, 3), (DIGON, 2))
}
# Blocks per piece of the cover's JSON: a piece is a few hundred kB of text.
PIECE_BLOCKS = 4096


@dataclass(frozen=True)
class StructurePartition:
    """The vertex-disjoint block cover of a graph, with block counts.

    The cover is flat, in find_blocks' order (so the diamonds are one
    slice): block i has kind ``kinds[i]`` and vertices ``members[i]`` in
    role order. ``blocks`` builds Block objects on first use, for tests.

    ``ext`` is the matching formed by the (simple) edges between blocks:
    ext[v] is v's neighbor in another block, or -1 when v has none (a
    diamond's shared side, a trumpet's doubled pair, the triple edge).
    ``vertex_to_block`` and ``ext`` are the lists find_blocks filled, not
    copies, so that no second n-long copy is alive; callers only read them.

    ``json_pieces`` writes it as `cubisect partition` prints it: the
    blocks in cover order, each with its kind and its vertices in role
    order, then k, t and p.
    """

    kinds: list[str]
    members: list[tuple[int, ...]]
    k: int  # diamonds
    t: int  # triangles + trumpets
    p: int  # digons (a triple edge counts as one digon)
    vertex_to_block: list[int]
    ext: list[int]

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(map(Block, self.kinds, self.members))

    @property
    def diamond_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.kind == DIAMOND]

    def json_pieces(self) -> Iterator[str]:
        """The cover as JSON indented by two spaces, with a final newline,
        in pieces: their concatenation is what json.dumps(..., indent=2)
        gives for {"blocks": [{"kind", "vertices"}, ...], "k", "t", "p"}.
        An indented dump runs the pure-Python encoder, so each piece of up
        to PIECE_BLOCKS blocks is one % over a template joined from the
        blocks' kinds: no string per block and no output-sized text. A
        cover has at least one block, as a graph has at least one vertex."""
        kinds, members = self.kinds, self.members
        yield '{\n  "blocks": [\n    '
        for lo in range(0, len(kinds), PIECE_BLOCKS):
            hi = lo + PIECE_BLOCKS
            if lo:
                yield ",\n    "
            template = ",\n    ".join(map(_BLOCK_JSON.__getitem__, kinds[lo:hi]))
            yield template % tuple(chain.from_iterable(members[lo:hi]))
        yield f'\n  ],\n  "k": {self.k},\n  "t": {self.t},\n  "p": {self.p}\n}}\n'


def find_blocks(g: Multigraph) -> StructurePartition:
    """Compute the unique block cover of a cubic multigraph, one vertex at
    a time from its sorted run x <= y <= z.

    * x == z: a triple digon (v, x), listed at its smaller end.
    * x == y or y == z: v is on a doubled pair with u and r is its third
      neighbor; a trumpet (r, v, u) if r is u's third neighbor too, else a
      digon (v, u) with ext[v] = r, listed at v < u.
    * a simple run, by the count of adjacent pairs among x, y, z:
      0, v centers a claw; 3, v lies in a K4 component (both raise);
      2, v is on a diamond's shared side with the neighbor h adjacent to
      the other two, a < d, giving (a, min(v, h), max(v, h), d) at v < h;
      1, v lies in one triangle (v, p, q), with ext[v] its third neighbor,
      a block when p and q have simple runs and share no neighbor but v
      (else v is a diamond's outer corner or a trumpet's apex), listed at
      v < p < q.

    The vertex that lists a block claims the block's other vertices above
    it and writes their ext, each the slot of its own run that the block
    leaves (the label object itself, not an int computed afresh); the loop
    skips claimed vertices. The rule at a claimed vertex would only write
    that same ext: its lister has read its whole run, so it centers no claw
    and lies in no K4, and it lists nothing, as the lister is smaller.

    Blocks come as triple digons, doubled pairs, diamonds, then triangles,
    each group in the order of the vertex that lists it, as flat lists of
    kinds and vertex tuples: no Block is built. A vertex on a
    parallel edge has at most two distinct neighbors, so the rule raises
    PartitionError exactly on a claw or a K4 component; otherwise it finds
    the cover, and a last pass checks that it covers every vertex once. A
    graph that is not cubic raises PartitionError too.
    """
    n = g.n
    if not is_cubic(g):
        raise PartitionError("graph is not cubic")
    nbr = g._nbr
    triples, pairs, diamonds, triangles = [], [], [], []  # vertex tuples in role order
    ext = [-1] * n
    claimed = bytearray(n)  # 1 where a smaller vertex listed the block
    runs = iter(nbr)  # zipped thrice with itself: one sorted run per step
    for v, x, y, z in zip(range(n), runs, runs, runs):
        if claimed[v]:
            continue
        if x == z:
            if v < x:
                triples.append((v, x))
                claimed[x] = 1
        elif x == y or y == z:
            u, r = (x, z) if x == y else (z, x)
            run_u = nbr[3 * u : 3 * u + 3]  # v twice, and u's third neighbor
            if r in run_u:
                if v < u:
                    pairs.append((r, v, u))
                    claimed[u] = 1
                    if r > v:  # the apex: its run holds v, u and its ext
                        claimed[r] = 1
                        r0, r1, r2 = nbr[3 * r : 3 * r + 3]
                        ext[r] = r0 if r0 != v else r2 if r1 == u else r1
            else:
                ext[v] = r
                if v < u:
                    pairs.append((v, u))
                    claimed[u] = 1
                    ext[u] = run_u[2] if run_u[0] == v else run_u[0]
        else:
            near_x, near_y = nbr[3 * x : 3 * x + 3], nbr[3 * y : 3 * y + 3]
            xy, xz, yz = y in near_x, z in near_x, z in near_y
            count = xy + xz + yz
            if count == 0:
                raise PartitionError(f"vertex {v} centers a claw ({x}, {y}, {z})")
            if count == 3:
                raise PartitionError(f"vertices ({v}, {x}, {y}, {z}) induce K4")
            if count == 2:
                h, a, d = (x, y, z) if xy and xz else (y, x, z) if yz and xy else (z, x, y)
                if v < h:
                    diamonds.append((a, v, h, d))
                    # h's run is (v, a, d), so h has no ext; an outer
                    # corner's run holds v, h and its ext, in the slot that
                    # v and h leave.
                    claimed[h] = 1
                    for c in (a, d):
                        if c > v:
                            claimed[c] = 1
                            r0, r1, r2 = nbr[3 * c : 3 * c + 3]
                            ext[c] = r0 if r0 != v else r2 if r1 == h else r1
            else:
                p, q, ext[v] = (x, y, z) if xy else (x, z, y) if xz else (y, z, x)
                if v < p:
                    # p and q see v, each other and one vertex each: five in
                    # all iff both runs are simple and those two differ.
                    run_p = near_x if p == x else near_y
                    run_q = near_y if q == y else nbr[3 * q : 3 * q + 3]
                    if len({*run_p, *run_q}) == 5:
                        triangles.append((v, p, q))
                        # v < p < q; each one's ext is the slot the other
                        # two corners leave in its run.
                        claimed[p] = claimed[q] = 1
                        r0, r1, r2 = run_p
                        ext[p] = r0 if r0 != v else r2 if r1 == q else r1
                        r0, r1, r2 = run_q
                        ext[q] = r0 if r0 != v else r2 if r1 == p else r1

    members = triples + pairs + diamonds + triangles
    kinds = [DIGON] * len(triples) + [TRUMPET if len(vs) == 3 else DIGON for vs in pairs]
    kinds += [DIAMOND] * len(diamonds) + [TRIANGLE] * len(triangles)
    vertex_to_block = [-1] * n
    for i, vs in enumerate(members):
        for v in vs:
            if vertex_to_block[v] != -1:
                raise PartitionError(f"vertex {v} claimed by two blocks ({kinds[i]} {vs})")
            vertex_to_block[v] = i
    if -1 in vertex_to_block:
        raise PartitionError(f"vertex {vertex_to_block.index(-1)} lies in no block")
    k, t = len(diamonds), len(triangles) + kinds.count(TRUMPET)
    p = len(members) - k - t
    return StructurePartition(kinds, members, k, t, p, vertex_to_block=vertex_to_block, ext=ext)
