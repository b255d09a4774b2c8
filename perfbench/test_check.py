"""Tests for the benchmark's output checker.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import pytest

from check import (
    check_bisect,
    check_check,
    check_partition,
    check_verify,
    closed_form,
    graph_from_edges,
    recount,
    ring_coloring,
    ring_edges,
)


def ring(count: int):
    return graph_from_edges(4 * count, ring_edges(count)), {"n": 4 * count, "k": count, "t": 0, "p": 0}


def bisect_output(g, recipe, black, **overrides) -> dict:
    """A `bisect` JSON payload for the coloring, honest unless overridden."""
    rc = recount(g, set(black))
    out = {
        "bisection": {
            "black": sorted(black),
            "white": sorted(set(range(g.n)) - set(black)),
            "epsilon": rc.epsilon,
            "epsilon_black": rc.epsilon_black,
            "epsilon_white": rc.epsilon_white,
        },
        "certificate": {
            "n": g.n,
            "k": recipe["k"],
            "p": recipe["p"],
            "epsilon": rc.epsilon,
            "formula": closed_form(g.n, recipe["k"], recipe["p"]),
            "parity": "odd" if recipe["k"] % 2 else "even",
            "valid": rc.is_2bisection,
        },
    }
    for key, value in overrides.items():
        section, field = key.split("__")
        out[section][field] = value
    return out


@pytest.mark.parametrize("count", [2, 3, 4, 5, 250, 251])
def test_accepts_ring_coloring_rule_for_both_parities(count):
    g, recipe = ring(count)
    black = ring_coloring(count)
    assert check_bisect(g, recipe, bisect_output(g, recipe, black)) == []
    assert recount(g, set(black)).epsilon == count + count % 2


def test_rejects_unbalanced_coloring():
    g, recipe = ring(4)
    black = ring_coloring(4)[:-1]
    problems = check_bisect(g, recipe, bisect_output(g, recipe, black))
    assert any("unbalanced" in p for p in problems)


def test_rejects_three_vertex_monochromatic_component():
    g, recipe = ring(4)
    # Diamond 0 = (0, 1, 2, 3): a, b, c black make one black triangle;
    # vertex 4 (diamond 1's a) goes white to keep the classes balanced.
    black = [v for v in ring_coloring(4) if v != 4] + [0]
    assert len(black) == 8
    problems = check_bisect(g, recipe, bisect_output(g, recipe, black))
    assert any("same-coloured" in p for p in problems)


def test_rejects_wrong_epsilon():
    g, recipe = ring(4)
    black = ring_coloring(4)
    assert check_bisect(g, recipe, bisect_output(g, recipe, black, bisection__epsilon=5))
    assert check_bisect(g, recipe, bisect_output(g, recipe, black, certificate__epsilon=3))
    assert check_bisect(g, recipe, bisect_output(g, recipe, black, certificate__formula=5))
    # A consistent report of a non-minimum coloring fails the closed form.
    swapped = [v for v in black if v != 1] + [0]
    problems = check_bisect(g, recipe, bisect_output(g, recipe, swapped))
    assert any("closed form" in p for p in problems)


def test_rejects_malformed_output():
    g, recipe = ring(2)
    assert check_bisect(g, recipe, {"bisection": {}})


def test_partition_counts_and_cover():
    g, recipe = ring(2)
    blocks = [{"kind": "diamond", "vertices": [0, 1, 2, 3]}, {"kind": "diamond", "vertices": [4, 5, 6, 7]}]
    assert check_partition(g, recipe, {"blocks": blocks, "k": 2, "t": 0, "p": 0}) == []
    assert check_partition(g, recipe, {"blocks": blocks, "k": 2, "t": 1, "p": 0})
    assert check_partition(g, recipe, {"blocks": blocks[:1], "k": 2, "t": 0, "p": 0})


def test_check_report_must_be_in_class():
    ok = {"is_cubic": True, "is_connected": True, "is_claw_free": True, "is_k4": False}
    assert check_check(ok) == []
    assert check_check({**ok, "is_claw_free": False})


def test_verify_fields_must_match_recount():
    g, _ = ring(3)
    black = set(ring_coloring(3))
    rc = recount(g, black)
    out = {
        "is_2bisection": rc.is_2bisection,
        "epsilon": rc.epsilon,
        "epsilon_black": rc.epsilon_black,
        "epsilon_white": rc.epsilon_white,
    }
    assert check_verify(g, black, out) == []
    assert check_verify(g, black, {**out, "is_2bisection": not rc.is_2bisection})
    assert check_verify(g, black, {**out, "epsilon_white": rc.epsilon_white + 1})
