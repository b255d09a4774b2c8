from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubisect import (
    BlockRecipe,
    Multigraph,
    PartitionError,
    curated_suite,
    find_blocks,
    generate,
    ring_of_diamonds,
    validate,
)
from cubisect.structure import DIAMOND, DIGON, TRIANGLE, TRUMPET
from helpers import (
    diamonds_disjoint_check,
    enumerate_diamonds,
    reference_cover_json,
    reference_find_blocks,
    relabel,
)


def test_prism_is_two_triangles(fixtures):
    part = find_blocks(fixtures["prism"])
    assert (part.k, part.t, part.p) == (0, 2, 0)
    assert [b.kind for b in part.blocks] == ["triangle", "triangle"]
    assert part.blocks[0].vertices == (0, 1, 2)


def test_triple_edge_is_one_digon(fixtures):
    g = fixtures["triple_edge"]
    part = find_blocks(g)
    assert (part.k, part.t, part.p) == (0, 0, 1)
    # A connected cubic graph on two vertices is the triple edge.
    assert g.n == 2 and [(b.kind, b.vertices) for b in part.blocks] == [(DIGON, (0, 1))]


def test_ring2_roles():
    part = find_blocks(ring_of_diamonds(2))
    assert (part.k, part.t, part.p) == (2, 0, 0)
    a, b, c, d = part.blocks[0].vertices
    # outer pair (a, d) misses its edge; the shared side bc has two
    # uncovered common neighbors
    g = ring_of_diamonds(2)
    assert d not in g.neighbors(a)
    assert c in g.neighbors(b)
    assert {a, d} == set(g.neighbors(b)) & set(g.neighbors(c))


def test_diamond_digon_partition(fixtures):
    part = find_blocks(fixtures["diamond_digon"])
    kinds = sorted(b.kind for b in part.blocks)
    assert kinds == ["diamond", "digon"]
    assert (part.k, part.t, part.p) == (1, 0, 1)


def test_trumpet_classification():
    # triangle 0,1,2 with side 1-2 doubled, apexes joined by a path of
    # one more trumpet to stay cubic
    g = Multigraph(6, [(0, 1), (0, 2), (1, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5), (4, 5)])
    part = find_blocks(g)
    assert (part.k, part.t, part.p) == (0, 2, 0)
    assert all(b.kind == "trumpet" for b in part.blocks)
    assert part.blocks[0].vertices == (0, 1, 2)  # apex first


def _digon_ring(count: int) -> Multigraph:
    """count doubled pairs in a cycle, each joined to the next by one edge."""
    edges = []
    for i in range(count):
        edges += [(2 * i, 2 * i + 1)] * 2 + [(2 * i + 1, 2 * ((i + 1) % count))]
    return Multigraph(2 * count, edges)


def test_ext_is_the_matching_between_blocks(fixtures):
    trumpets = Multigraph(
        6, [(0, 1), (0, 2), (1, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5), (4, 5)]
    )
    graphs = [g for g in fixtures.values() if validate(g).in_class]
    graphs += [trumpets, _digon_ring(5), generate(BlockRecipe(500, 2000, 1000, seed=2))]
    seen = Counter()
    for g in graphs:
        part = find_blocks(g)
        block_of, ext = part.vertex_to_block, part.ext
        inside = set()
        for b in part.blocks:
            vs = b.vertices
            if b.kind == DIAMOND:
                inside.update(vs[1:3])  # the shared side
            elif b.kind == TRUMPET:
                inside.update(vs[1:])  # the doubled pair
            elif g.n == 2:
                inside.update(vs)  # the triple edge
            seen[b.kind] += 1
        assert {v for v in range(g.n) if ext[v] == -1} == inside
        for v, u in enumerate(ext):
            if u != -1:
                assert ext[u] == v and block_of[u] != block_of[v]
                assert g.neighbors(u).count(v) == 1
    assert seen[TRUMPET] >= 5 and seen[DIGON] >= 7 and seen[DIAMOND] and seen[TRIANGLE]


def test_vertex_to_block_total(corpus):
    for _, g in corpus:
        part = find_blocks(g)
        assert len(part.vertex_to_block) == g.n
        for v in range(g.n):
            assert v in part.blocks[part.vertex_to_block[v]].vertices


def test_partition_identity_on_corpus(corpus):
    for (k, t, p, _), g in corpus:
        part = find_blocks(g)
        assert 4 * part.k + 3 * part.t + 2 * part.p == g.n
        assert part.t % 2 == 0
        assert (part.k, part.t, part.p) == (k, t, p)


CURATED = dict(curated_suite())


@pytest.mark.parametrize(
    "graph",
    [
        CURATED["k4"],
        CURATED["q3"],
        Multigraph(4, [(0, 1), (0, 2), (0, 3)]),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)]),
    ],
    ids=["k4", "q3", "star", "triangle"],
)
def test_no_block_cover(graph):
    with pytest.raises(PartitionError):
        find_blocks(graph)


def _outcome(find, g):
    try:
        return find(g)
    except PartitionError:
        return PartitionError


def _two_switch(rng: random.Random, g: Multigraph) -> Multigraph:
    """g with edges ab, cd rewired to ac, bd or ad, bc, loops avoided."""
    edges = g.edge_list()
    i, j = rng.sample(range(len(edges)), 2)
    (a, b), (c, d) = edges[i], edges[j]
    if rng.random() < 0.5:
        c, d = d, c
    if a == c or b == d:
        return g
    edges[i], edges[j] = (a, c), (b, d)
    return Multigraph(g.n, edges)


def _cubic_matching(rng: random.Random, n: int) -> Multigraph:
    """A uniform matching of 3n stubs, redrawn until it has no loop."""
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(u != v for u, v in pairs):
            return Multigraph(n, pairs)


def test_find_blocks_matches_reference(fixtures, corpus):
    # partition prints the blocks in find_blocks' order, so the old
    # ordered search pins the order as well as the cover.
    rng = random.Random(11)
    graphs = [*fixtures.values(), *(g for _, g in corpus)]
    for _, g in corpus:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabel(g, perm))
        switched = _two_switch(rng, g)
        graphs.append(_two_switch(rng, switched) if rng.random() < 0.5 else switched)
    graphs += [_cubic_matching(rng, n) for n in range(2, 24, 2) for _ in range(100)]
    clawed = 0
    for g in graphs:
        assert _outcome(find_blocks, g) == _outcome(reference_find_blocks, g), g.edge_list()
        clawed += not validate(g).is_claw_free
    assert clawed >= 100, clawed


def test_enumerate_diamonds_matches_partition(corpus):
    for _, g in corpus:
        part = find_blocks(g)
        listed = set(enumerate_diamonds(g))
        from_partition = {
            frozenset(b.vertices) for b in part.blocks if b.kind == "diamond"
        }
        assert listed == from_partition
        assert diamonds_disjoint_check(g)


def test_partition_json_shape(fixtures):
    obj = reference_cover_json(find_blocks(fixtures["ring3"]))
    assert set(obj) == {"blocks", "k", "t", "p"}
    assert obj["k"] == 3 and obj["t"] == 0 and obj["p"] == 0
    assert all(set(b) == {"kind", "vertices"} for b in obj["blocks"])


def test_json_text_is_the_indented_dump(fixtures, corpus):
    rng = random.Random(13)
    graphs = [g for g in fixtures.values() if validate(g).in_class]
    for _, g in corpus:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [g, relabel(g, perm)]
    graphs += [ring_of_diamonds(count) for count in range(2, 9)]
    # n = 10^4 with every block kind, three trumpets among them.
    graphs.append(generate(BlockRecipe(500, 2000, 1000, seed=2)))
    seen = Counter()
    for g in graphs:
        part = find_blocks(g)
        assert "".join(part.json_pieces()) == json.dumps(reference_cover_json(part), indent=2) + "\n"
        # The one digon of a two-vertex graph is the triple edge.
        seen.update((b.kind, g.n == 2) for b in part.blocks)
    assert seen[TRUMPET, False] >= 3 and seen[DIGON, True] >= 1
    assert seen[DIAMOND, False] and seen[TRIANGLE, False] and seen[DIGON, False]


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_partition_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    g = ring_of_diamonds(2) if seed % 2 else ring_of_diamonds(3)
    perm = list(range(g.n))
    rng.shuffle(perm)
    inverse = [0] * g.n
    for old, new in enumerate(perm):
        inverse[new] = old
    original = {
        (b.kind, frozenset(b.vertices)) for b in find_blocks(g).blocks
    }
    mapped = {
        (b.kind, frozenset(inverse[v] for v in b.vertices))
        for b in find_blocks(relabel(g, perm)).blocks
    }
    assert mapped == original
