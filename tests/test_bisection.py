from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubisect import (
    BLACK,
    WHITE,
    Bisection,
    GraphFormatError,
    Multigraph,
    bisection_from_json,
    bisection_to_json,
    find_blocks,
    is_2bisection,
    is_desired,
    mono_stats,
    parity_check,
)
from helpers import same_color_component_sizes

PRISM = Multigraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
# one mono edge per triangle: 0-1 black, 3-4 white... 3 is white, 4 white
PRISM_GOOD = Bisection((BLACK, BLACK, WHITE, WHITE, WHITE, BLACK))


def test_balance_enforced():
    with pytest.raises(ValueError):
        Bisection((BLACK, BLACK, WHITE, BLACK))
    with pytest.raises(ValueError):
        Bisection((BLACK, 2))
    b = Bisection((BLACK, WHITE))
    assert b.black_count == b.white_count == 1


def test_from_black_set():
    b = Bisection.from_black_set(4, [2, 0])
    assert b.black() == [0, 2]
    assert b.white() == [1, 3]
    assert b.swapped().black() == [1, 3]
    with pytest.raises(ValueError):
        Bisection.from_black_set(4, [0, 9])


def test_prism_stats():
    stats = mono_stats(PRISM, PRISM_GOOD)
    assert (stats.epsilon, stats.epsilon_black, stats.epsilon_white) == (2, 1, 1)
    assert is_2bisection(PRISM, PRISM_GOOD)
    assert parity_check(PRISM, PRISM_GOOD)


def test_mono_stats_counts_multiplicity():
    g = Multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
    same_side = Bisection((BLACK, BLACK, WHITE, WHITE))
    assert mono_stats(g, same_side).epsilon == 4  # doubled edges count twice
    split = Bisection((BLACK, WHITE, WHITE, BLACK))
    assert mono_stats(g, split).epsilon == 0


def test_domain_mismatch():
    with pytest.raises(ValueError):
        mono_stats(PRISM, Bisection((BLACK, WHITE)))
    with pytest.raises(ValueError):
        is_2bisection(PRISM, Bisection((BLACK, WHITE)))


def test_monochromatic_triangle_rejected():
    b = Bisection((BLACK, BLACK, BLACK, WHITE, WHITE, WHITE))
    assert not is_2bisection(PRISM, b)
    assert max(same_color_component_sizes(PRISM, b.colors)) == 3


def test_is_2bisection_matches_component_definition():
    import itertools

    for black in itertools.combinations(range(6), 3):
        b = Bisection.from_black_set(6, black)
        by_components = max(same_color_component_sizes(PRISM, b.colors)) <= 2
        assert is_2bisection(PRISM, b) == by_components


def test_prism_desired():
    ok, violations = is_desired(PRISM, find_blocks(PRISM), PRISM_GOOD)
    assert ok and violations == []


def test_desired_violations_are_named():
    part = find_blocks(PRISM)
    all_black_triangle = Bisection((BLACK, BLACK, BLACK, WHITE, WHITE, WHITE))
    ok, violations = is_desired(PRISM, part, all_black_triangle)
    assert not ok
    names = {name for name, _ in violations}
    assert names == {"triangle_one_mono"}
    assert ("triangle_one_mono", (0, 1, 2)) in violations


def test_desired_catches_mono_edge_outside_triangle():
    # color the prism so a cross edge goes monochromatic
    part = find_blocks(PRISM)
    b = Bisection((BLACK, WHITE, BLACK, BLACK, WHITE, WHITE))
    ok, violations = is_desired(PRISM, part, b)
    assert not ok
    assert any(name == "mono_edge_in_triangle" for name, _ in violations)


def test_desired_checks_multi_edges(fixtures):
    g = fixtures["diamond_digon"]
    part = find_blocks(g)
    # digon 4-5 colored one color
    b = Bisection.from_black_set(6, [4, 5, 0])
    ok, violations = is_desired(g, part, b)
    assert not ok
    assert ("multi_edge_not_mono", (4, 5)) in violations


def test_desired_checks_diamond_total(fixtures):
    g = fixtures["diamond_digon"]
    part = find_blocks(g)
    # b, d black and a, c white: both diamond triangles keep one mono
    # edge but the diamond as a whole carries two
    b = Bisection.from_black_set(6, [1, 3, 4])
    ok, violations = is_desired(g, part, b)
    assert not ok
    assert [name for name, _ in violations] == ["diamond_one_mono"]


def test_json_roundtrip():
    obj = bisection_to_json(PRISM, PRISM_GOOD)
    assert obj == {
        "black": [0, 1, 5],
        "white": [2, 3, 4],
        "epsilon": 2,
        "epsilon_black": 1,
        "epsilon_white": 1,
    }
    back = bisection_from_json(obj, 6)
    assert back == PRISM_GOOD


@pytest.mark.parametrize(
    "obj,exc",
    [
        ({}, GraphFormatError),
        ({"black": [0], "white": "x"}, GraphFormatError),
        ({"black": [0, "a"], "white": [1]}, GraphFormatError),
        ({"black": [0, 1], "white": [1, 2]}, ValueError),
        ({"black": [0, 1], "white": [2]}, ValueError),
        ({"black": [0, 1], "white": [2, 4]}, ValueError),
        ({"black": [True], "white": [False]}, GraphFormatError),
    ],
)
def test_json_rejects(obj, exc):
    with pytest.raises(exc):
        bisection_from_json(obj, 4)


@given(st.permutations(list(range(6))))
@settings(deadline=None, max_examples=60)
def test_epsilon_swap_invariant(perm):
    b = Bisection.from_black_set(6, perm[:3])
    assert mono_stats(PRISM, b).epsilon == mono_stats(PRISM, b.swapped()).epsilon


@given(st.permutations(list(range(8))))
@settings(deadline=None, max_examples=80)
def test_desired_implies_2bisection(perm):
    from cubisect import ring_of_diamonds

    g = ring_of_diamonds(2)
    part = find_blocks(g)
    b = Bisection.from_black_set(8, perm[:4])
    if is_desired(g, part, b)[0]:
        assert is_2bisection(g, b)
        assert mono_stats(g, b).epsilon == part.k + part.t
