from __future__ import annotations

import hashlib
import random
import sys
import tracemalloc

import pytest

from cubisect import (
    Bisection,
    BlockRecipe,
    LiftError,
    Multigraph,
    NotApplicable,
    PartitionError,
    ReductionError,
    StructurePartition,
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
from cubisect.bisection import DIAMOND_ONE_MONO
from cubisect.construct import require_cover, require_in_class
from helpers import reference_find_blocks

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


def assert_desired_but_for_the_flip(g, bis):
    """bis is desired for even k; for odd k its one violation is the
    canonical diamond, the one colored with two monochromatic edges."""
    part = find_blocks(g)
    ok, violations = is_desired(g, part, bis)
    if part.k % 2 == 0:
        assert ok and violations == []
    else:
        canonical = min(part.diamond_blocks, key=lambda blk: blk.vertices)
        assert violations == [(DIAMOND_ONE_MONO, canonical.vertices)]


def test_csp_finds_desired_bisection_even_k(corpus):
    for (k, t, p, _), g in corpus:
        if k % 2:
            continue
        part = find_blocks(g)
        b = desired_bisection_csp(g, part)
        ok, violations = is_desired(g, part, b)
        assert ok, violations
        assert mono_stats(g, b).epsilon == part.k + part.t


def test_csp_flips_the_smallest_diamond_for_odd_k(odd_k_corpus, fixtures):
    for _, g in [*odd_k_corpus, ("ring3", fixtures["ring3"]), ("diamond_digon", fixtures["diamond_digon"])]:
        assert_desired_but_for_the_flip(g, desired_bisection_csp(g, find_blocks(g)))


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
    bis, cert = min_bisection(g)
    assert cert.epsilon == formula_minimum(g.n, part.k, part.p) == part.k + part.t + part.k % 2
    assert cert.is_valid_2bisection
    assert_desired_but_for_the_flip(g, bis)


def test_reduce_into_triple_edge(fixtures):
    g = fixtures["diamond_digon"]
    red = reduce_diamond(g, find_blocks(g).diamond_blocks[0])
    assert red.new_edge_was_present
    assert red.reduced.n == 2
    assert red.reduced.neighbors(0).count(1) == 3
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
    common = set(red.reduced.neighbors(nx)) & set(red.reduced.neighbors(ny))
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
        assert_desired_but_for_the_flip(fixtures[name], bis)


# SHA-256 of bytes(colors) of the walk's colorings, in the order of
# test_walk_colorings_are_pinned. Any change to the walk's order of
# painting, or to the generator's wiring, shows up here.
WALK_DIGEST = "469c2fd9c23ca5b3878655aa474bf1d6c5a19a1cd043469595af9b4c505b5f46"


def test_walk_colorings_are_pinned(corpus):
    graphs = [g for _, g in corpus]
    graphs += [ring_of_diamonds(count) for count in range(2, 9)]
    # The two n ~ 10^4 recipes of scripts/bench_stages.py, k even then odd.
    graphs += [generate(BlockRecipe(626, 2082, 625, seed=1)), generate(BlockRecipe(625, 2082, 625, seed=1))]
    # Its triangles-only pair, k even then odd.
    graphs += [generate(BlockRecipe(0, 3334, 0, seed=1)), generate(BlockRecipe(1, 3332, 0, seed=1))]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(bytes(desired_bisection_csp(g, find_blocks(g)).colors))
    assert digest.hexdigest() == WALK_DIGEST


def paint_calls(g) -> int:
    """How many times the walk on g calls its chain painter."""
    part = find_blocks(g)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "paint":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        desired_bisection_csp(g, part)
    finally:
        sys.setprofile(previous)
    return calls


def test_the_walk_paints_each_chain_once(corpus):
    graphs = [g for _, g in corpus]
    # The n ~ 10^3 rung of scripts/bench_stages.py, even k.
    graphs.append(generate(BlockRecipe(62, 208, 62, seed=1)))
    for g in graphs:
        kinds = [b.kind for b in reference_find_blocks(g).blocks]
        # Each chain joins two node ports: 3 per triangle, 1 per trumpet.
        chains = (3 * kinds.count("triangle") + kinds.count("trumpet")) // 2
        # Without nodes one call paints the whole ring, unless n == 2.
        assert paint_calls(g) == (chains if chains else int(g.n > 2)), g.edge_list()


def test_the_walk_peak_is_a_few_words_per_vertex():
    # The walk keeps its state in the coloring and one byte per block; the
    # coloring and the Bisection's tuple are 16 bytes per vertex between them.
    for recipe in (BlockRecipe(626, 2082, 625, seed=1), BlockRecipe(0, 3334, 0, seed=1)):
        g = generate(recipe)
        part = find_blocks(g)
        tracemalloc.start()
        try:
            desired_bisection_csp(g, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * g.n, (recipe, peak / g.n)


def test_min_bisection_is_desired_but_for_the_flip_on_corpus(corpus):
    for _, g in corpus:
        bis, _ = min_bisection(g)
        assert_desired_but_for_the_flip(g, bis)


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


def _gate_outcome(gate, g):
    """The cover a gate returns, or the type, message and report it raises."""
    try:
        return gate(g)
    except (NotApplicable, PartitionError) as exc:
        report = exc.report.to_json() if isinstance(exc, NotApplicable) else None
        return type(exc), str(exc), report


def _validate_then_cover(g):
    require_in_class(g)
    return find_blocks(g)


def _stub_matching(rng, n):
    """A random cubic multigraph on n vertices from a matching of 3n
    stubs; loops are dropped, which leaves some vertices of degree 1."""
    stubs = [v for v in range(n) for _ in range(3)]
    rng.shuffle(stubs)
    return Multigraph(n, [(u, v) for u, v in zip(stubs[::2], stubs[1::2]) if u != v])


def _digon_ring(count):
    """A ring of count digons, each one's second end joined to the next
    one's first."""
    return Multigraph(
        2 * count,
        [e for i in range(0, 2 * count, 2) for e in ((i, i + 1), (i, i + 1), (i + 1, (i + 2) % (2 * count)))],
    )


def _disjoint_union(g, h):
    return Multigraph(g.n + h.n, g.edge_list() + [(u + g.n, v + g.n) for u, v in h.edge_list()])


def _shuffled(rng, g):
    """g relabelled by a random permutation, its edges in a random order
    and orientation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v]) for u, v in g.edge_list()]
    rng.shuffle(edges)
    return Multigraph(g.n, edges)


def test_require_cover_matches_validate_then_cover(fixtures, corpus):
    rng = random.Random(7)
    prism = fixtures["prism"].edge_list()
    # Disconnected graphs with rings of digons and diamonds as components:
    # the block search crosses no triangle there.
    triangle_free = [
        _disjoint_union(ring_of_diamonds(3), _digon_ring(2)),
        _disjoint_union(fixtures["prism"], ring_of_diamonds(3)),
        _disjoint_union(ring_of_diamonds(2), ring_of_diamonds(3)),
    ]
    triangle_free += [_shuffled(rng, g) for g in triangle_free]
    for g in triangle_free:
        # Covered, so only the block search can refuse them.
        assert isinstance(find_blocks(g), StructurePartition) and not validate(g).is_connected
    graphs = [
        *triangle_free,
        *fixtures.values(),
        *(g for _, g in corpus),
        Multigraph(12, prism + [(u + 6, v + 6) for u, v in prism]),
        Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3),
        Multigraph(4, [(0, 1), (0, 2), (0, 3)]),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)]),
        Multigraph(1, []),
        *(_stub_matching(rng, n) for n in range(2, 24, 2) for _ in range(150)),
    ]
    outcomes = {"cover": 0, "clawed": 0}
    for g in graphs:
        got = _gate_outcome(require_cover, g)
        assert got == _gate_outcome(_validate_then_cover, g), g.edge_list()
        report = validate(g)
        if report.is_cubic and report.is_connected and not report.is_claw_free:
            outcomes["clawed"] += 1
            with pytest.raises(PartitionError):
                find_blocks(g)
        outcomes["cover"] += isinstance(got, StructurePartition)
    assert min(outcomes.values()) >= 100, outcomes


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
