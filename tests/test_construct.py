from __future__ import annotations

import pytest

from cubisect import (
    Bisection,
    BlockRecipe,
    LiftError,
    Multigraph,
    NotApplicable,
    ReductionError,
    desired_bisection_csp,
    find_blocks,
    formula_minimum,
    generate,
    is_2bisection,
    is_desired,
    lift,
    min_bisection,
    mono_stats,
    reduce_diamond,
    ring_of_diamonds,
    validate,
)

# diamond 0..3 feeding a triangle 4..6 whose two free corners close a
# second path into a trumpet 7..9; reducing the diamond doubles the
# 4-5 edge and the triangle becomes a trumpet
ABSORB10 = Multigraph(
    10,
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (3, 5),
     (4, 5), (4, 6), (5, 6), (6, 7), (7, 8), (7, 9), (8, 9), (8, 9)],
)

# diamond 0..3 attached to two triangles and a digon so that the
# reduction's new edge 4-7 lands in no triangle
SPREAD12 = Multigraph(
    12,
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
     (7, 8), (7, 9), (8, 9), (10, 11), (10, 11), (0, 4), (3, 7),
     (5, 10), (6, 8), (9, 11)],
)


def test_csp_finds_desired_bisection_even_k(corpus):
    for (k, t, p, _), g in corpus:
        if k % 2:
            continue
        part = find_blocks(g)
        b = desired_bisection_csp(g, part)
        ok, violations = is_desired(g, part, b)
        assert ok, violations
        assert mono_stats(g, b).epsilon == part.k + part.t


def test_csp_rejects_odd_k(fixtures):
    g = fixtures["diamond_digon"]
    with pytest.raises(ValueError):
        desired_bisection_csp(g, find_blocks(g))


def test_csp_flip_only_for_odd_k(fixtures):
    g = fixtures["ring2"]
    part = find_blocks(g)
    with pytest.raises(ValueError):
        desired_bisection_csp(g, part, part.diamond_blocks[0])
    g = fixtures["diamond_digon"]
    part = find_blocks(g)
    digon = next(b for b in part.blocks if b.kind == "digon")
    with pytest.raises(ValueError):
        desired_bisection_csp(g, part, digon)


def test_odd_k_doubles_only_the_canonical_diamond(odd_k_corpus, fixtures):
    cases = [*odd_k_corpus, ("ring3", fixtures["ring3"]), ("big40", fixtures["big40"])]
    for key, g in cases:
        part = find_blocks(g)
        bis, _ = min_bisection(g)
        canonical = min(part.diamond_blocks, key=lambda blk: blk.vertices)
        mono = [0] * len(part.blocks)
        for u, v, m in g.edge_pairs():
            if bis.colors[u] == bis.colors[v]:
                assert part.vertex_to_block[u] == part.vertex_to_block[v], key
                mono[part.vertex_to_block[u]] += m
        for block, count in zip(part.blocks, mono):
            want = 0 if block.kind == "digon" else 2 if block == canonical else 1
            assert count == want, (key, block)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: generate(BlockRecipe(1000, 1666, 750, seed=1)), id="n10498-even-k"),
        pytest.param(lambda: generate(BlockRecipe(1001, 1664, 750, seed=1)), id="n10496-odd-k"),
        pytest.param(lambda: ring_of_diamonds(2000), id="ring-2000"),
        pytest.param(lambda: ring_of_diamonds(2001), id="ring-2001"),
        pytest.param(lambda: generate(BlockRecipe(0, 0, 2000)), id="digons-2000"),
        # instances on which an earlier backtracking search ran for minutes
        pytest.param(lambda: generate(BlockRecipe(8, 20, 8, seed=0)), id="8-20-8"),
        pytest.param(lambda: generate(BlockRecipe(0, 0, 500, seed=0)), id="0-0-500"),
        pytest.param(lambda: generate(BlockRecipe(200, 0, 0, seed=0)), id="200-0-0"),
    ],
)
def test_min_bisection_at_scale(make):
    g = make()
    part = find_blocks(g)
    _, cert = min_bisection(g)
    assert cert.epsilon == formula_minimum(g.n, part.k, part.p) == part.k + part.t + part.k % 2
    assert cert.is_valid_2bisection
    assert cert.is_desired == (part.k % 2 == 0)


def test_reduce_into_triple_edge(fixtures):
    g = fixtures["diamond_digon"]
    red = reduce_diamond(g, find_blocks(g).diamond_blocks[0])
    assert red.new_edge_was_present
    assert red.reduced.n == 2
    assert red.reduced.multiplicity(0, 1) == 3
    assert (red.x, red.y) == (4, 5)


def test_reduce_ring3_to_ring2():
    g = ring_of_diamonds(3)
    part = find_blocks(g)
    red = reduce_diamond(g, part.diamond_blocks[0])
    assert not red.new_edge_was_present
    sub = find_blocks(red.reduced)
    assert (sub.k, sub.t, sub.p) == (2, 0, 0)


def test_reduce_ring2_would_leave_k4():
    g = ring_of_diamonds(2)
    with pytest.raises(ReductionError):
        reduce_diamond(g, find_blocks(g).diamond_blocks[0])


def test_reduce_absorbs_into_trumpet():
    part = find_blocks(ABSORB10)
    assert (part.k, part.t, part.p) == (1, 2, 0)
    red = reduce_diamond(ABSORB10, part.diamond_blocks[0])
    assert red.new_edge_was_present
    sub = find_blocks(red.reduced)
    assert sub.k == 0
    assert sorted(b.kind for b in sub.blocks) == ["trumpet", "trumpet"]


def test_reduce_new_edge_in_no_triangle():
    part = find_blocks(SPREAD12)
    red = reduce_diamond(SPREAD12, part.diamond_blocks[0])
    assert not red.new_edge_was_present
    nx = red.vertex_map.index(red.x)
    ny = red.vertex_map.index(red.y)
    common = red.reduced.distinct_neighbors(nx) & red.reduced.distinct_neighbors(ny)
    assert not common
    assert find_blocks(red.reduced).k == 0


def test_reduce_requires_diamond_block():
    part = find_blocks(ABSORB10)
    trumpet = next(b for b in part.blocks if b.kind != "diamond")
    with pytest.raises(ValueError):
        reduce_diamond(ABSORB10, trumpet)


def test_lift_adds_exactly_two():
    part = find_blocks(SPREAD12)
    red = reduce_diamond(SPREAD12, part.diamond_blocks[0])
    sub = find_blocks(red.reduced)
    bp = desired_bisection_csp(red.reduced, sub)
    lifted = lift(red, bp)
    assert is_2bisection(SPREAD12, lifted)
    assert mono_stats(SPREAD12, lifted).epsilon == mono_stats(red.reduced, bp).epsilon + 2
    a, b, c, d = red.removed
    assert lifted.colors[b] == lifted.colors[d]
    assert lifted.colors[a] == lifted.colors[c] == 1 - lifted.colors[b]


def test_lift_rejects_same_colored_attachments():
    red = reduce_diamond(SPREAD12, find_blocks(SPREAD12).diamond_blocks[0])
    nx = red.vertex_map.index(red.x)
    ny = red.vertex_map.index(red.y)
    black = {nx, ny}
    for v in range(red.reduced.n):
        if len(black) == red.reduced.n // 2:
            break
        black.add(v)
    bad = Bisection.from_black_set(red.reduced.n, black)
    with pytest.raises(LiftError):
        lift(red, bad)


def test_min_bisection_fixture_values(fixtures):
    want = {"triple_edge": 0, "prism": 2, "ring2": 2, "ring3": 4, "diamond_digon": 2, "big40": 12}
    for name, eps in want.items():
        bis, cert = min_bisection(fixtures[name])
        assert cert.epsilon == eps, name
        assert cert.epsilon == cert.formula_value
        assert cert.is_valid_2bisection
        assert cert.epsilon % 2 == 0
        if cert.parity == 0:
            assert cert.is_desired


def test_min_bisection_rejects_k4(fixtures):
    with pytest.raises(NotApplicable) as info:
        min_bisection(fixtures["k4"])
    assert info.value.report.is_k4


def test_min_bisection_rejects_claws(fixtures):
    with pytest.raises(NotApplicable) as info:
        min_bisection(fixtures["q3"])
    assert not info.value.report.is_claw_free


def test_min_bisection_rejects_disconnected():
    g = Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3)
    with pytest.raises(NotApplicable) as info:
        min_bisection(g)
    assert not info.value.report.is_connected


def test_min_bisection_rejects_exactly_out_of_class(fixtures):
    graphs = list(fixtures.values()) + [
        Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3),
        Multigraph(4, [(0, 1), (0, 2), (0, 3)]),
    ]
    for g in graphs:
        report = validate(g)
        if report.in_class:
            min_bisection(g)
            continue
        with pytest.raises(NotApplicable) as info:
            min_bisection(g)
        assert info.value.report == report
        assert ("four vertices" in str(info.value)) == report.is_k4


def test_certificate_json(fixtures):
    _, cert = min_bisection(fixtures["diamond_digon"])
    assert cert.to_json() == {
        "n": 6,
        "k": 1,
        "p": 1,
        "epsilon": 2,
        "formula": 2,
        "parity": "odd",
        "valid": True,
    }


def test_formula_minimum():
    assert formula_minimum(40, 3, 2) == 12
    assert formula_minimum(8, 2, 0) == 2
    assert formula_minimum(2, 0, 1) == 0
    with pytest.raises(ValueError):
        formula_minimum(8, 1, 0)


def test_reduction_choice_does_not_change_epsilon():
    g = ring_of_diamonds(3)
    part = find_blocks(g)
    results = set()
    for block in part.diamond_blocks:
        red = reduce_diamond(g, block)
        bp = desired_bisection_csp(red.reduced, find_blocks(red.reduced))
        results.add(mono_stats(g, lift(red, bp)).epsilon)
    assert results == {4}


def test_spread12_also_solves_end_to_end():
    for g in (SPREAD12, ABSORB10):
        assert validate(g).is_claw_free
        bis, cert = min_bisection(g)
        assert cert.epsilon == 4
        assert is_2bisection(g, bis)
