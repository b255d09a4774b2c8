"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The corpus fixture supplies 216 generated instances over k in 0..3,
p in 0..3, t in {0, 2, 4}, n <= 16 (eight seeds per recipe).
"""

from __future__ import annotations

import random
import time

import pytest

from cubisect import (
    BlockRecipe,
    NotApplicable,
    desired_bisection_csp,
    find_blocks,
    formula_minimum,
    generate,
    is_2bisection,
    lift,
    min_bisection,
    mono_stats,
    oracle_min,
    reduce_diamond,
    validate,
)
from helpers import balanced_colorings, relabel, same_color_component_sizes


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_forty_vertex_formula_instance():
    start = time.perf_counter()
    g = generate(BlockRecipe(k=3, t=8, p=2, seed=0))
    bis, cert = min_bisection(g)
    elapsed = time.perf_counter() - start
    ok = (
        g.n == 40
        and (cert.k, cert.p) == (3, 2)
        and cert.epsilon == 12
        and is_2bisection(g, bis)
        and elapsed < 1.0
    )
    report(1, ok, f"n=40 k=3 p=2 epsilon={cert.epsilon} (want 12) in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence(corpus):
    start = time.perf_counter()
    checked = 0
    for (k, t, p, seed), g in corpus:
        res = oracle_min(g)
        _, cert = min_bisection(g)
        want = formula_minimum(g.n, k, p)
        assert res.min_epsilon == cert.epsilon == want, (k, t, p, seed)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 200 and elapsed < 60.0
    report(2, ok, f"{checked} instances, oracle == constructor == formula, {elapsed:.1f}s")


def test_criterion_3_color_classes_split_epsilon_evenly(corpus):
    bisections = 0
    for _, g in (pair for pair in corpus if pair[1].n <= 12):
        for colors in balanced_colorings(g.n):
            if max(same_color_component_sizes(g, colors)) > 2:
                continue
            black = sum(
                m for u, v, m in g.edge_pairs() if colors[u] == colors[v] == 0
            )
            white = sum(
                m for u, v, m in g.edge_pairs() if colors[u] == colors[v] == 1
            )
            assert black == white, (g, colors)
            bisections += 1
    report(3, bisections > 0, f"epsilon_black == epsilon_white over {bisections} enumerated 2-bisections")


def test_criterion_4_desired_existence_split(corpus):
    for (k, t, p, seed), g in corpus:
        res = oracle_min(g)
        assert res.desired_exists == (k % 2 == 0), (k, t, p, seed)
    report(4, True, "desired_exists == (k even) on all 216 instances")


def test_criterion_5_reduction_invariants(odd_k_corpus):
    for (k, t, p, seed), g in odd_k_corpus:
        part = find_blocks(g)
        red = reduce_diamond(g, part.diamond_blocks[0])
        rep = validate(red.reduced)
        assert rep.is_cubic and rep.is_connected and rep.is_claw_free, (k, t, p, seed)
        sub = find_blocks(red.reduced)
        assert sub.k == k - 1, (k, t, p, seed)
        nx = red.vertex_map.index(red.x)
        ny = red.vertex_map.index(red.y)
        if red.new_edge_was_present:
            assert red.reduced.neighbors(nx).count(ny) >= 2
        else:
            shared = set(red.reduced.neighbors(nx)) & set(red.reduced.neighbors(ny))
            assert not shared, (k, t, p, seed)
        bp = desired_bisection_csp(red.reduced, sub)
        lifted = lift(red, bp)
        assert is_2bisection(g, lifted)
        assert mono_stats(g, lifted).epsilon == mono_stats(red.reduced, bp).epsilon + 2
    report(5, True, f"reduction + lift invariants on {len(odd_k_corpus)} odd-k instances")


def test_criterion_6_fixture_values(fixtures):
    want = {"prism": 2, "triple_edge": 0, "ring2": 2, "diamond_digon": 2, "ring3": 4}
    for name, eps in want.items():
        g = fixtures[name]
        _, cert = min_bisection(g)
        assert cert.epsilon == eps, name
        assert oracle_min(g).min_epsilon == eps, name
    with pytest.raises(NotApplicable):
        min_bisection(fixtures["k4"])
    report(6, True, "five fixture minimums match the oracle; K4 refused")


def test_criterion_7_diamond_choice_independence(odd_k_corpus):
    instances = 0
    for (k, t, p, seed), g in odd_k_corpus:
        if k < 3:
            continue
        part = find_blocks(g)
        want = formula_minimum(g.n, k, p)
        for block in part.diamond_blocks:
            red = reduce_diamond(g, block)
            bp = desired_bisection_csp(red.reduced, find_blocks(red.reduced))
            lifted = lift(red, bp)
            assert mono_stats(g, lifted).epsilon == want, (k, t, p, seed, block)
        instances += 1
    report(7, instances > 0, f"every diamond choice agrees on {instances} instances with k >= 3")


def test_criterion_8_partition_uniqueness_under_relabeling(corpus):
    rng = random.Random(0)
    for (k, t, p, seed), g in corpus:
        base = {
            (b.kind, frozenset(b.vertices)) for b in find_blocks(g).blocks
        }
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            inverse = [0] * g.n
            for old, new in enumerate(perm):
                inverse[new] = old
            relabeled = {
                (b.kind, frozenset(inverse[v] for v in b.vertices))
                for b in find_blocks(relabel(g, perm)).blocks
            }
            assert relabeled == base, (k, t, p, seed)
    report(8, True, "block cover stable under 20 relabelings per instance")
