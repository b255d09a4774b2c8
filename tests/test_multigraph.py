from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubisect import (
    GraphFormatError,
    Multigraph,
    format_graph,
    parse_graph,
    triangles,
    validate,
)


def triple_edge():
    return Multigraph(2, [(0, 1)] * 3)


def test_multiplicity_accumulates():
    g = triple_edge()
    assert g.multiplicity(0, 1) == 3
    assert g.multiplicity(1, 0) == 3
    assert g.degree(0) == 3
    assert g.distinct_neighbors(0) == frozenset({1})
    assert g.edge_count == 3


def test_rejects_loops_and_bad_labels():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 1)] * 4)
    with pytest.raises(ValueError):
        Multigraph(0, [])


def test_edge_views_sorted():
    g = Multigraph(4, [(3, 2), (1, 0), (2, 3), (0, 2)])
    assert g.edge_pairs() == [(0, 1, 1), (0, 2, 1), (2, 3, 2)]
    assert g.edge_list() == [(0, 1), (0, 2), (2, 3), (2, 3)]


def test_relabel_roundtrip():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    perm = [2, 0, 3, 1]
    h = g.relabel(perm)
    inverse = [0] * 4
    for old, new in enumerate(perm):
        inverse[new] = old
    assert h.relabel(inverse) == g
    with pytest.raises(ValueError):
        g.relabel([0, 0, 1, 2])


def test_validate_k4():
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    rep = validate(g)
    assert rep.is_cubic and rep.is_connected and rep.is_claw_free
    assert rep.is_k4
    # doubling any edge breaks the exact-K4 shape
    h = Multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
    assert not validate(h).is_k4


def test_validate_finds_claw():
    # star K_{1,3} plus padding edges to keep it a graph (not cubic)
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
    rep = validate(g)
    assert not rep.is_claw_free
    v, a, b, c = rep.claw_witness
    assert v == 0 and {a, b, c} == {1, 2, 3}
    assert not rep.is_cubic


def test_validate_disconnected():
    g = Multigraph(4, [(0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)])
    rep = validate(g)
    assert rep.is_cubic and not rep.is_connected


def test_in_class_is_the_four_field_conjunction(fixtures):
    graphs = list(fixtures.values()) + [
        Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3),  # two triple edges
        Multigraph(4, [(0, 1), (0, 2), (0, 3)]),  # a star, not cubic
    ]
    seen = set()
    for g in graphs:
        rep = validate(g)
        expected = rep.is_cubic and rep.is_connected and rep.is_claw_free and not rep.is_k4
        assert rep.in_class == expected
        assert "in_class" not in rep.to_json()
        seen.add(expected)
    assert seen == {True, False}


def test_triangle_listing():
    g = Multigraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    assert triangles(g) == [(0, 1, 2), (3, 4, 5)]
    # doubled sides still count once as a triangle
    t = Multigraph(3, [(0, 1), (0, 2), (1, 2), (1, 2)])
    assert triangles(t) == [(0, 1, 2)]


def test_handshake_identity(corpus):
    for _, g in corpus:
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def test_claw_witness_is_a_claw(fixtures):
    g = fixtures["q3"]
    rep = validate(g)
    v, a, b, c = rep.claw_witness
    assert all(g.adjacent(v, u) for u in (a, b, c))
    assert not any(g.adjacent(x, y) for x, y in ((a, b), (a, c), (b, c)))


def test_parse_format_roundtrip_exact():
    text = "6 9\n0 1\n0 2\n0 3\n1 2\n1 4\n2 5\n3 4\n3 5\n4 5\n"
    g = parse_graph(text)
    assert format_graph(g) == text
    commented = "# prism\n\n" + text
    assert parse_graph(commented) == g


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "not a header\n",
        "2 1\n",
        "2 1\n0 1\n0 1\n",
        "2 1\n0\n",
        "2 1\n0 x\n",
        "2 1\n0 5\n",
        "1 1\n0 0\n",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(GraphFormatError):
        parse_graph(bad)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_roundtrip_random_multigraphs(data):
    n = data.draw(st.integers(2, 9))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=2 * n).filter(
            lambda es: max(es.count(e) for e in es) <= 3
        )
    )
    g = Multigraph(n, edges)
    assert parse_graph(format_graph(g)) == g


@given(st.permutations(list(range(6))))
@settings(deadline=None, max_examples=40)
def test_validation_is_label_invariant(perm):
    g = Multigraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    a, b = validate(g), validate(g.relabel(perm))
    assert (a.is_cubic, a.is_connected, a.is_claw_free, a.is_k4) == (
        b.is_cubic,
        b.is_connected,
        b.is_claw_free,
        b.is_k4,
    )
