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
drive the monochromatic-edge formula.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, islice
from operator import eq

from .errors import PartitionError
from .multigraph import Multigraph

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
    digon: (u, v) with u < v and digon_multiplicity 2 or 3.
    """

    kind: str
    vertices: tuple[int, ...]
    digon_multiplicity: int | None = None


@dataclass(frozen=True)
class StructurePartition:
    """The vertex-disjoint block cover of a graph, with block counts."""

    blocks: tuple[Block, ...]
    k: int  # diamonds
    t: int  # triangles + trumpets
    p: int  # digons (a triple edge counts as one digon)
    vertex_to_block: tuple[int, ...]

    @property
    def diamond_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.kind == DIAMOND]

    def to_json(self) -> dict:
        return {
            "blocks": [
                {"kind": b.kind, "vertices": list(b.vertices)} for b in self.blocks
            ],
            "k": self.k,
            "t": self.t,
            "p": self.p,
        }


def find_blocks(g: Multigraph) -> StructurePartition:
    """Compute the unique block cover of a connected claw-free cubic
    multigraph other than K4.

    Classification runs in a fixed order: triple edges, then doubled edges
    with a common neighbor (trumpets), then remaining doubled edges
    (digons), then simple edges lying in two triangles (diamonds), then
    one triangle per leftover vertex. Any overlap, ambiguity, or uncovered
    vertex raises PartitionError: the input violated a precondition (for
    instance it hides a claw) rather than the partition being optional.
    """
    n = g.n
    covered = [False] * n
    vertex_to_block = [-1] * n
    blocks: list[Block] = []

    def claim(block: Block) -> None:
        for v in block.vertices:
            if covered[v]:
                raise PartitionError(
                    f"vertex {v} claimed by two blocks ({block.kind} {block.vertices})"
                )
            covered[v] = True
            vertex_to_block[v] = len(blocks)
        blocks.append(block)

    start, nbr = g._start, g._nbr
    # Pairs joined by parallel edges, as (u, v) -> multiplicity with u < v,
    # in increasing order: a slot equal to the one before it, inside the
    # same sorted run, repeats a neighbor.
    doubled: dict[tuple[int, int], int] = {}
    for j in compress(range(1, len(nbr)), map(eq, nbr, islice(nbr, 1, None))):
        u = bisect_right(start, j) - 1
        v = nbr[j]
        if start[u] != j and v > u:
            doubled[u, v] = doubled.get((u, v), 1) + 1

    for (u, v), m in doubled.items():
        if m == 3:
            claim(Block(DIGON, (u, v), digon_multiplicity=3))

    for (u, v), m in doubled.items():
        if m != 2:
            continue
        near_u = set(nbr[start[u] : start[u + 1]])
        common = sorted(near_u.intersection(nbr[start[v] : start[v + 1]]))
        if len(common) > 1:
            raise PartitionError(f"doubled edge ({u}, {v}) has {len(common)} common neighbors")
        if common:
            claim(Block(TRUMPET, (common[0], u, v)))
        else:
            claim(Block(DIGON, (u, v), digon_multiplicity=2))

    # Every vertex on a parallel edge is covered now, so the runs of the
    # uncovered vertices below hold no repeats and every pair among them
    # is simple.
    for b in range(n):
        if covered[b]:
            continue
        near_b = nbr[start[b] : start[b + 1]]
        for c in near_b:
            if c < b or covered[c]:
                continue
            near_c = nbr[start[c] : start[c + 1]]
            common = [w for w in near_b if not covered[w] and w in near_c]
            if len(common) != 2:
                continue
            a, d = common
            if d in nbr[start[a] : start[a + 1]]:
                # All six pairs present: an induced K4, which has no block cover.
                raise PartitionError(f"vertices ({a}, {b}, {c}, {d}) induce K4")
            claim(Block(DIAMOND, (a, b, c, d)))
            break

    for v in range(n):
        if covered[v]:
            continue
        near = [u for u in nbr[start[v] : start[v + 1]] if not covered[u]]
        tris = [
            (u, w)
            for i, u in enumerate(near)
            for w in near[i + 1 :]
            if w in nbr[start[u] : start[u + 1]]
        ]
        if len(tris) != 1:
            raise PartitionError(
                f"vertex {v} lies in {len(tris)} candidate triangles, expected 1"
            )
        u, w = tris[0]
        claim(Block(TRIANGLE, tuple(sorted((v, u, w)))))

    k = sum(1 for b in blocks if b.kind == DIAMOND)
    t = sum(1 for b in blocks if b.kind in (TRIANGLE, TRUMPET))
    p = sum(1 for b in blocks if b.kind == DIGON)
    if 4 * k + 3 * t + 2 * p != n:
        raise PartitionError(f"block counts ({k}, {t}, {p}) do not cover n={n}")
    return StructurePartition(
        blocks=tuple(blocks),
        k=k,
        t=t,
        p=p,
        vertex_to_block=tuple(vertex_to_block),
    )


def enumerate_diamonds(g: Multigraph) -> list[frozenset[int]]:
    """Vertex sets of all induced diamonds (K4 minus an edge) in g.

    Scans shared sides directly rather than reusing find_blocks, so it also
    works on graphs where the block cover does not exist.
    """
    found = []
    for b, c, m in g.edge_pairs():
        if m != 1:
            continue
        common = sorted(g.distinct_neighbors(b) & g.distinct_neighbors(c))
        if len(common) != 2:
            continue
        a, d = common
        if g.adjacent(a, d):
            continue
        if all(g.multiplicity(x, y) == 1 for x, y in ((a, b), (a, c), (b, d), (c, d))):
            found.append(frozenset((a, b, c, d)))
    return found


def diamonds_disjoint_check(g: Multigraph) -> bool:
    """True iff no two induced diamonds share a vertex.

    Guaranteed for connected claw-free cubic multigraphs other than K4;
    exposed as a fuzzable invariant rather than assumed.
    """
    seen: set[int] = set()
    for dset in enumerate_diamonds(g):
        if seen & dset:
            return False
        seen |= dset
    return True
