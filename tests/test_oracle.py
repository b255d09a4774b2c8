from __future__ import annotations

import math

import pytest

from cubisect import Bisection, Multigraph, TooLarge, find_blocks, is_2bisection, oracle_min
from helpers import balanced_colorings, reference_is_desired, tiny_brute_min


def test_prism(fixtures):
    res = oracle_min(fixtures["prism"])
    assert res.min_epsilon == 2
    assert res.desired_exists
    assert res.enumerated == 20
    assert res.optima_count == 3


def test_k4_is_searchable_even_though_excluded(fixtures):
    # the closed form excludes this graph; raw enumeration does not
    res = oracle_min(fixtures["k4"])
    assert res.min_epsilon == 2
    assert res.optima_count == 3
    assert not res.desired_exists
    assert res.enumerated == 6


def test_triple_edge(fixtures):
    res = oracle_min(fixtures["triple_edge"])
    assert res.min_epsilon == 0
    assert res.optima_count == 1
    assert res.desired_exists
    assert res.enumerated == 2


def test_odd_diamond_count_kills_desired(fixtures):
    res = oracle_min(fixtures["diamond_digon"])
    assert res.min_epsilon == 2
    assert not res.desired_exists


def test_clawed_control_still_enumerable(fixtures):
    # bipartite, so a side-by-side coloring has no monochromatic edge
    res = oracle_min(fixtures["q3"])
    assert res.min_epsilon == 0
    assert not res.desired_exists


def test_budget():
    g = Multigraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    with pytest.raises(TooLarge):
        oracle_min(g, limit=4)
    with pytest.raises(ValueError):
        oracle_min(g, limit=25)


def test_rejects_non_cubic():
    with pytest.raises(ValueError):
        oracle_min(Multigraph(2, [(0, 1)]))


def test_min_epsilon_is_even_on_corpus(corpus):
    for _, g in corpus:
        res = oracle_min(g)
        assert res.min_epsilon is not None
        assert res.min_epsilon % 2 == 0
        assert res.enumerated == math.comb(g.n, g.n // 2)


def test_matches_independent_brute_force(fixtures, corpus):
    small = [g for _, g in corpus if g.n <= 8]
    for g in [fixtures["k4"], fixtures["prism"], fixtures["q3"], *small]:
        assert oracle_min(g).min_epsilon == tiny_brute_min(g)


def test_desired_exists_matches_reference(corpus):
    """desired_exists, read off the minimum, holds iff some 2-bisection
    passes the four-condition reference check."""
    checked = 0
    for _, g in corpus:
        if g.n > 14:
            continue
        part = find_blocks(g)
        found = any(
            is_2bisection(g, b) and reference_is_desired(g, part, b)[0]
            for b in map(Bisection, balanced_colorings(g.n))
        )
        assert oracle_min(g).desired_exists == found, g.edge_list()
        checked += 1
    assert checked == 176
