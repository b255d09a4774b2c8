from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubisect import (
    BlockRecipe,
    Multigraph,
    Unsatisfiable,
    curated_suite,
    find_blocks,
    format_graph,
    generate,
    ring_of_diamonds,
    validate,
)


def test_deterministic():
    a = generate(BlockRecipe(2, 2, 1, seed=7))
    b = generate(BlockRecipe(2, 2, 1, seed=7))
    assert a == b
    assert a.edge_list() == b.edge_list()


def test_different_seeds_usually_differ():
    graphs = {generate(BlockRecipe(2, 2, 1, seed=s)) for s in range(10)}
    assert len(graphs) > 1


def test_realized_counts_match_recipe(corpus):
    for (k, t, p, _), g in corpus:
        part = find_blocks(g)
        assert (part.k, part.t, part.p) == (k, t, p)
        assert g.n == 4 * k + 3 * t + 2 * p


def test_single_digon_is_triple_edge():
    g = generate(BlockRecipe(0, 0, 1, seed=3))
    assert g.n == 2
    assert g.neighbors(0).count(1) == 3


def test_two_triangles_realize_both_wirings():
    trumpet_counts = set()
    for seed in range(30):
        g = generate(BlockRecipe(0, 2, 0, seed=seed))
        part = find_blocks(g)
        trumpet_counts.add(sum(1 for b in part.blocks if b.kind == "trumpet"))
        assert (part.k, part.t, part.p) == (0, 2, 0)
    # prism-like wiring has no trumpets; pairing inside each triangle
    # yields two
    assert trumpet_counts == {0, 2}


def test_lone_diamond_unrealizable():
    with pytest.raises(Unsatisfiable):
        generate(BlockRecipe(1, 0, 0))


@pytest.mark.parametrize("k,t,p", [(-1, 0, 1), (0, 0, 0), (0, 1, 0), (1, 3, 2)])
def test_bad_recipes_rejected(k, t, p):
    with pytest.raises(ValueError):
        generate(BlockRecipe(k, t, p))


def test_ring_builder():
    with pytest.raises(ValueError):
        ring_of_diamonds(1)
    g = ring_of_diamonds(4)
    part = find_blocks(g)
    assert (part.k, part.t, part.p) == (4, 0, 0)
    assert validate(g).is_connected


def _edge_by_edge_ring(count):
    """ring_of_diamonds as Multigraph's constructor builds it, edge by edge."""
    edges = []
    for i in range(count):
        a, b, c, d = range(4 * i, 4 * i + 4)
        edges += [(a, b), (a, c), (b, c), (b, d), (c, d), (d, 4 * ((i + 1) % count))]
    return Multigraph(4 * count, edges)


def test_ring_builder_matches_the_edge_by_edge_build():
    for count in [*range(2, 65), 1259]:
        g, expected = ring_of_diamonds(count), _edge_by_edge_ring(count)
        assert g == expected, count
        assert format_graph(g) == format_graph(expected), count


def test_curated_suite_names_and_sizes():
    suite = dict(curated_suite())
    assert set(suite) == {
        "k4", "triple_edge", "prism", "ring2", "ring3", "diamond_digon", "big40", "q3",
    }
    assert suite["big40"].n == 40
    big = find_blocks(suite["big40"])
    assert (big.k, big.p) == (3, 2)


recipe_strategy = st.tuples(
    st.integers(0, 3), st.sampled_from((0, 2, 4)), st.integers(0, 3), st.integers(0, 10_000)
).filter(lambda r: 0 < 4 * r[0] + 3 * r[1] + 2 * r[2] <= 20 and (r[0], r[1], r[2]) != (1, 0, 0))


@given(recipe_strategy)
@settings(deadline=None, max_examples=60)
def test_generated_instances_always_validate(recipe):
    k, t, p, seed = recipe
    g = generate(BlockRecipe(k, t, p, seed=seed))
    rep = validate(g)
    assert rep.is_cubic and rep.is_connected and rep.is_claw_free and not rep.is_k4
    part = find_blocks(g)
    assert (part.k, part.t, part.p) == (k, t, p)
    # cross wiring never builds a triangle out of block-external edges
    assert part.t == sum(1 for b in part.blocks if b.kind in ("triangle", "trumpet"))
