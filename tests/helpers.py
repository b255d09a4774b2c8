"""Test-side reimplementations used to cross-check library results.

These deliberately avoid the library's internal shortcuts: component
sizes come from an actual flood fill, the tiny brute-force minimum
below enumerates colorings directly instead of reusing the oracle,
``reference_find_blocks`` finds the block cover by the ordered searches
that the one-pass local rule of ``find_blocks`` replaced, and its
matching between blocks by a scan of every adjacency slot,
``reference_is_desired`` checks the four conditions of a desired
bisection over every triangle of the graph instead of tallying blocks,
``reference_cover_json`` gives the cover as the dict that
``json.dumps(..., indent=2)`` turns into the text ``partition`` prints,
and the ``reference_`` readers of the flat layout below are the general
loops over every vertex's run, which cubic graphs bypass.
``relabel`` renames vertices for the label-invariance tests, and
``load_script`` imports one of the scripts/ files by name.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
from bisect import bisect_right
from itertools import combinations, compress, islice
from operator import eq

from cubisect import Bisection, Block, Multigraph, PartitionError, StructurePartition
from cubisect.bisection import (
    DIAMOND_ONE_MONO,
    MonoStats,
    MONO_IN_TRIANGLE,
    MULTI_EDGE_NOT_MONO,
    TRIANGLE_ONE_MONO,
    Violation,
)
from cubisect.structure import DIAMOND, DIGON, TRIANGLE, TRUMPET


def same_color_component_sizes(g: Multigraph, colors) -> list[int]:
    """Sizes of the connected components of each one-color subgraph."""
    seen = [False] * g.n
    sizes = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        size = 1
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if not seen[u] and colors[u] == colors[v]:
                    seen[u] = True
                    size += 1
                    stack.append(u)
        sizes.append(size)
    return sizes


def relabel(g: Multigraph, perm) -> Multigraph:
    """g with vertex v renamed to perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return Multigraph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()])


def epsilon_of(g: Multigraph, colors) -> int:
    return sum(m for u, v, m in g.edge_pairs() if colors[u] == colors[v])


def tiny_brute_min(g: Multigraph) -> int | None:
    """Minimum epsilon over 2-bisections by definition; for n <= 10 only."""
    assert g.n <= 10
    best = None
    for black in itertools.combinations(range(g.n), g.n // 2):
        colors = [1] * g.n
        for v in black:
            colors[v] = 0
        if max(same_color_component_sizes(g, colors)) > 2:
            continue
        eps = epsilon_of(g, colors)
        best = eps if best is None else min(best, eps)
    return best


def balanced_colorings(n: int):
    """Every balanced coloring with vertex 0 black, as tuples."""
    for rest in itertools.combinations(range(1, n), n // 2 - 1):
        black = {0, *rest}
        yield tuple(0 if v in black else 1 for v in range(n))


def reference_find_blocks(g: Multigraph) -> StructurePartition:
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
            claim(Block(DIGON, (u, v)))

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
            claim(Block(DIGON, (u, v)))

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
    # ext[v]: v's neighbor in another block, from a scan of every slot.
    ext = [-1] * n
    for u in range(n):
        for v in nbr[start[u] : start[u + 1]]:
            if vertex_to_block[v] != vertex_to_block[u]:
                ext[u] = v
    return StructurePartition(
        kinds=[b.kind for b in blocks],
        members=[b.vertices for b in blocks],
        k=k,
        t=t,
        p=p,
        vertex_to_block=vertex_to_block,
        ext=ext,
    )


def reference_cover_json(part: StructurePartition) -> dict:
    """The cover as the dict whose indented dump `partition` prints."""
    return {
        "blocks": [
            {"kind": b.kind, "vertices": list(b.vertices)} for b in part.blocks
        ],
        "k": part.k,
        "t": part.t,
        "p": part.p,
    }


def triangles(g: Multigraph) -> list[tuple[int, int, int]]:
    """All vertex triples u < v < w with the three pairs adjacent."""
    start, nbr = g._start, g._nbr
    out = []
    for u in range(g.n):
        end = start[u + 1]
        higher = nbr[bisect_right(nbr, u, start[u], end) : end]
        if len(higher) < 2:
            continue
        if len(set(higher)) < len(higher):
            higher = list(dict.fromkeys(higher))
        for v, w in combinations(higher, 2):
            if w in nbr[start[v] : start[v + 1]]:
                out.append((u, v, w))
    return out


def reference_is_desired(
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
    nbrs = g.neighbors
    colors = b.colors
    violations: list[Violation] = []

    def mono(u: int, v: int) -> int:
        return nbrs(u).count(v) if colors[u] == colors[v] else 0

    for u, v, w in triangles(g):
        if mono(u, v) + mono(u, w) + mono(v, w) != 1:
            violations.append((TRIANGLE_ONE_MONO, (u, v, w)))

    # One pass over the monochromatic pairs u < v, in edge order, for the
    # second and the fourth condition; the fourth's violations are held
    # back so the report keeps the order of the conditions.
    outside: list[Violation] = []
    parallel: list[Violation] = []
    for u in range(g.n):
        c = colors[u]
        near_u = nbrs(u)
        same = [v for v in near_u if v > u and colors[v] == c]
        for v in dict.fromkeys(same):
            if set(near_u).isdisjoint(nbrs(v)):
                outside.append((MONO_IN_TRIANGLE, (u, v)))
            if same.count(v) >= 2:
                parallel.append((MULTI_EDGE_NOT_MONO, (u, v)))
    violations += outside

    for block in part.blocks:
        if block.kind != DIAMOND:
            continue
        a, bb, cc, d = block.vertices
        count = sum(
            mono(x, y) for x, y in ((a, bb), (a, cc), (bb, cc), (bb, d), (cc, d))
        )
        if count != 1:
            violations.append((DIAMOND_ONE_MONO, block.vertices))

    violations += parallel
    return (not violations, violations)


def enumerate_diamonds(g: Multigraph) -> list[frozenset[int]]:
    """Vertex sets of all induced diamonds (K4 minus an edge) in g.

    Scans shared sides directly rather than reusing find_blocks, so it also
    works on graphs where the block cover does not exist.
    """
    found = []
    for b, c, m in g.edge_pairs():
        if m != 1:
            continue
        common = sorted(set(g.neighbors(b)) & set(g.neighbors(c)))
        if len(common) != 2:
            continue
        a, d = common
        if d in g.neighbors(a):
            continue
        if all(g.neighbors(x).count(y) == 1 for x, y in ((a, b), (a, c), (b, d), (c, d))):
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


# -- the general loops over the flat layout ----------------------------------
#
# Each indexes v's run as _nbr[_start[v] : _start[v + 1]], whatever the
# layout, as the library does for graphs that are not cubic.


def reference_is_connected(g: Multigraph) -> bool:
    start, nbr = g._start, g._nbr
    seen = [False] * g.n
    seen[0] = True
    count = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for u in nbr[start[v] : start[v + 1]]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == g.n


def reference_find_claw(g: Multigraph) -> tuple[int, int, int, int] | None:
    start, nbr = g._start, g._nbr
    in_triangle = [False] * g.n
    for v in range(g.n):
        if in_triangle[v] and start[v + 1] - start[v] <= 3:
            continue
        run = nbr[start[v] : start[v + 1]]
        if len(run) < 3:
            continue
        if len(run) != 3 or run[0] == run[1] or run[1] == run[2]:
            run = list(dict.fromkeys(run))
            if len(run) < 3:
                continue
        for a, b, c in combinations(run, 3):
            near_a = nbr[start[a] : start[a + 1]]
            if b in near_a:
                in_triangle[a] = in_triangle[b] = True
            elif c in near_a:
                in_triangle[a] = in_triangle[c] = True
            elif c in nbr[start[b] : start[b + 1]]:
                in_triangle[b] = in_triangle[c] = True
            else:
                return (v, a, b, c)
    return None


def reference_mono_stats(g: Multigraph, b: Bisection) -> MonoStats:
    colors = b.colors
    start, nbr = g._start, g._nbr
    same = [0, 0]
    for u in range(g.n):
        c = colors[u]
        for v in nbr[start[u] : start[u + 1]]:
            if colors[v] == c:
                same[c] += 1
    eb, ew = same[0] // 2, same[1] // 2
    return MonoStats(epsilon=eb + ew, epsilon_black=eb, epsilon_white=ew)


def reference_is_2bisection(g: Multigraph, b: Bisection) -> bool:
    colors = b.colors
    start, nbr = g._start, g._nbr
    for v in range(g.n):
        c = colors[v]
        mate = -1
        for u in nbr[start[v] : start[v + 1]]:
            if colors[u] == c:
                if mate >= 0 and u != mate:
                    return False
                mate = u
    return True


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name: str):
    """scripts/<name>.py as a fresh module."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
