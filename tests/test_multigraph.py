from __future__ import annotations

import contextlib
import random
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubisect.cli as cli
import cubisect.multigraph as multigraph
from cubisect import (
    Bisection,
    BlockRecipe,
    GraphFormatError,
    Multigraph,
    find_blocks,
    format_graph,
    generate,
    min_bisection,
    parse_graph,
    ring_of_diamonds,
    validate,
)
from cubisect.bisection import is_2bisection, mono_stats
from cubisect.multigraph import _find_claw, is_connected, is_cubic
from helpers import (
    balanced_colorings,
    reference_find_claw,
    reference_is_2bisection,
    reference_is_connected,
    reference_mono_stats,
    relabel,
    triangles,
)


def triple_edge():
    return Multigraph(2, [(0, 1)] * 3)


def test_multiplicity_accumulates():
    g = triple_edge()
    assert g.neighbors(0).count(1) == 3
    assert g.neighbors(1).count(0) == 3
    assert len(g.neighbors(0)) == 3
    assert set(g.neighbors(0)) == {1}
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
    h = relabel(g, perm)
    inverse = [0] * 4
    for old, new in enumerate(perm):
        inverse[new] = old
    assert relabel(h, inverse) == g
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1, 2])


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
        assert sum(len(g.neighbors(v)) for v in range(g.n)) == 2 * g.edge_count


def test_claw_witness_is_a_claw(fixtures):
    g = fixtures["q3"]
    rep = validate(g)
    v, a, b, c = rep.claw_witness
    assert all(u in g.neighbors(v) for u in (a, b, c))
    assert not any(y in g.neighbors(x) for x, y in ((a, b), (a, c), (b, c)))


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_claw_witness_is_the_first_claw(data):
    # validate skips vertices of degree at most 3 already seen in a
    # triangle; its witness must still be the first claw of the plain scan
    # (center ascending, then leaves in increasing order), on graphs with
    # degrees past 3 and parallel edges.
    n = data.draw(st.integers(4, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mults = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 1, 2]), min_size=len(pairs), max_size=len(pairs)))
    g = Multigraph(n, [pair for pair, m in zip(pairs, mults) for _ in range(m)])
    first = None
    for v in range(n):
        for a, b, c in combinations(sorted(set(g.neighbors(v))), 3):
            if not (b in g.neighbors(a) or c in g.neighbors(a) or c in g.neighbors(b)):
                first = (v, a, b, c)
                break
        if first:
            break
    assert validate(g).claw_witness == first


def test_parse_format_roundtrip_exact():
    text = "6 9\n0 1\n0 2\n0 3\n1 2\n1 4\n2 5\n3 4\n3 5\n4 5\n"
    g = parse_graph(text)
    assert format_graph(g) == text
    commented = "# prism\n\n" + text
    assert parse_graph(commented) == g


# Each malformed text with the exact error it raises.
PARSE_ERRORS = {
    "": "empty graph file",
    "not a header\n": "expected header 'n m', got 'not a header'",
    "2 1\n": "expected 1 edge lines, found 0",
    "2 1\n0 1\n0 1\n": "expected 1 edge lines, found 2",
    "2 1\n0\n": "expected edge line 'u v', got '0'",
    "2 1\n0 x\n": "non-integer edge line '0 x'",
    "2 1\n0 5\n": "edge (0, 5) out of range for n=2",
    "1 1\n0 0\n": "loop at vertex 0 not allowed",
    "3 2\n0\n1 2 0\n": "expected edge line 'u v', got '0'",
    "2 1\n0 1 # x\n": "expected edge line 'u v', got '0 1 # x'",
    "2 1\n0 #\n": "non-integer edge line '0 #'",
    "2 4\n0 1\n0 1\n0 1\n1 0\n": "edge (0, 1) has multiplicity > 3",
    "0 0\n": "vertex count must be positive, got 0",
    # An n past any list's length is refused only where the labels would
    # be allocated, so a bad line or line count is named first.
    "9223372036854775808 1\n0 x\n": "non-integer edge line '0 x'",
    "9223372036854775808 5\n": "expected 5 edge lines, found 0",
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS))
def test_parse_rejects(bad):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(PARSE_ERRORS[bad])}$"):
        parse_graph(bad)


# 116,681 characters, read in two slices: n = 8000, m = 12000, and the
# last edge line, in the second slice, is "7998 7999".
BIG = format_graph(ring_of_diamonds(2000))


@pytest.mark.parametrize(
    "last, message",
    [
        ("7998 x", "non-integer edge line '7998 x'"),
        ("7998 7999 0", "expected edge line 'u v', got '7998 7999 0'"),
        ("", "expected 12000 edge lines, found 11999"),
        ("7998 8000", "edge (7998, 8000) out of range for n=8000"),
        ("-1 7999", "edge (-1, 7999) out of range for n=8000"),
        ("7998 2147483648", "edge (7998, 2147483648) out of range for n=8000"),
    ],
    ids=["token", "three-tokens", "line-short", "label-n", "negative", "label-2-31"],
)
def test_parse_rejects_a_fault_in_a_later_slice(last, message):
    assert BIG.endswith("\n7998 7999\n")
    bad = BIG[: -len("7998 7999\n")] + (last and last + "\n")
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        parse_graph(bad)


def _big_with(header="8000 12000", first="0 1", last="7998 7999", extra=""):
    """BIG with its header, first and last edge lines replaced, and extra
    lines after them."""
    assert BIG.startswith("8000 12000\n0 1\n") and BIG.endswith("\n7998 7999\n")
    body = BIG[len("8000 12000\n0 1\n") : -len("7998 7999\n")]
    return f"{header}\n{first}\n{body}{last}\n{extra}"


# Texts with a fault in the first slice and another fault after it: the
# first in reading order is named, and a line count only when every line
# read was good.
MULTI_FAULTS = {
    "label-n-then-token": (_big_with(first="9000 1", last="x y"), "edge (9000, 1) out of range for n=8000"),
    "label-n-then-count": (_big_with(first="9000 1", extra="0 1\n"), "edge (9000, 1) out of range for n=8000"),
    "token-then-count": (_big_with(first="a b", extra="0 1\n"), "non-integer edge line 'a b'"),
    "n-0-then-token": (_big_with(header="0 12000", last="x y"), "vertex count must be positive, got 0"),
    "token-then-token": (_big_with(first="a b", last="x y"), "non-integer edge line 'a b'"),
    "loop-then-label-n": (_big_with(first="0 0", last="7998 8000"), "loop at vertex 0 not allowed"),
}


@pytest.mark.parametrize("name", list(MULTI_FAULTS))
def test_parse_names_the_first_fault_in_reading_order(name):
    bad, message = MULTI_FAULTS[name]
    assert len(bad) > 2**16  # two slices
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        parse_graph(bad)


def test_parse_reads_minus_zero_in_a_later_slice():
    # The first edge, moved to the end of the text and written "1 -0".
    text = BIG.replace("\n0 1\n", "\n", 1) + "1 -0\n"
    assert parse_graph(text) == parse_graph(BIG)


def test_parse_stops_at_a_fault_in_the_first_slice(monkeypatch):
    # An edge out of range in the first slice is named before the rest of
    # the text is read: no later slice reaches either reader.
    read = []
    for name in ("_plain_ints", "_line_ints"):
        reader = getattr(multigraph, name)
        monkeypatch.setattr(multigraph, name, lambda arg, name=name, reader=reader: read.append(name) or reader(arg))
    with pytest.raises(GraphFormatError, match=r"^edge \(0, 8000\) out of range for n=8000$"):
        parse_graph(_big_with(first="0 8000"))
    assert read == ["_line_ints"]
    read.clear()
    parse_graph(BIG)
    assert read == ["_line_ints", "_plain_ints"]


def test_parse_reads_plain_later_slices_in_bulk(monkeypatch):
    # BIG's second slice is all plain "u v" lines, so it takes the bulk
    # read; the header's slice always takes the line reader.
    bulk = []
    plain_ints = multigraph._plain_ints
    monkeypatch.setattr(multigraph, "_plain_ints", lambda piece: bulk.append(plain_ints(piece)) or bulk[-1])
    parse_graph(BIG)
    assert bulk == [list(map(int, BIG[BIG.find("\n", 2**16) + 1 :].split()))]
    # A text with no line end at all is plain, its last line included.
    assert multigraph._plain_ints("10 2\n3 45") == [10, 2, 3, 45]


# Lines the bulk read refuses, and one it takes, in place of BIG's last
# edge line, in its second slice: each reads as the line reader reads it
# in the header's slice.
LATE_LINES = {
    "leading-zero": "07998 7999\n",
    "4301-digits": "7998 " + "1" * 4301 + "\n",
    "tab": "7998\t7999\n",
    "double-space": "7998  7999\n",
    "sign": "+7998 7999\n",
    "blank-line": "\n7998 7999\n",
    "comment": "# last\n7998 7999\n",
    "no-final-newline": "7998 7999",
    # int()'s grammar: Unicode decimal digits, "_" between digits, and any
    # Unicode whitespace between the tokens.
    "arabic-indic-digit": "799\u0668 7999\n",
    "underscore": "7_998 7999\n",
    "em-space": "7998\u20037999\n",
}


def _outcome(text):
    """text's graph as format_graph writes it, or the message it is refused with."""
    try:
        return format_graph(parse_graph(text))
    except GraphFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(LATE_LINES))
def test_parse_reads_a_later_slice_as_the_line_reader_does(name):
    tail = LATE_LINES[name]
    body = BIG[len("8000 12000\n") : -len("7998 7999\n")]
    late = "8000 12000\n" + body + tail
    early = "8000 12000\n" + tail.rstrip("\n") + "\n" + body
    assert late.find("\n", 2**16) < len(body)  # tail is past the first cut
    expected = "non-integer edge line '7998 " + "1" * 4301 + "'" if name == "4301-digits" else BIG
    assert _outcome(late) == _outcome(early) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("3000000 5\n0 1\n", "expected 5 edge lines, found 1"),
        ("3000000 5\n0 x\n", "non-integer edge line '0 x'"),
        ("3000000 9\n0 3000000\n", "edge (0, 3000000) out of range for n=3000000"),
        ("3000000 5\n1 1\n", "loop at vertex 1 not allowed"),
        ("9223372036854775808 5\n0 1\n", "vertex count 9223372036854775808 exceeds any list's length"),
    ],
)
def test_parse_builds_no_labels_for_more_lines_than_the_text_holds(text, message):
    # m is above what the text's length can hold (4 characters an edge
    # line), so no labels are built; each fault is still named in order.
    tracemalloc.start()
    try:
        with pytest.raises((GraphFormatError, MemoryError), match=f"^{re.escape(message)}$"):
            parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_parse_reads_crlf_and_comments_across_slices():
    lines = BIG.splitlines()
    # A comment and a blank line every 500 lines, indents and CRLF ends.
    noisy = []
    for i, ln in enumerate(lines):
        if i % 500 == 0:
            noisy += [f"# block {i}", ""]
        noisy.append(f"  {ln} " if i % 7 == 0 else ln)
    text = "\r\n".join(noisy) + "\r\n"
    assert len(text) > 2 * 2**16  # three slices
    g = parse_graph(text)
    assert g == parse_graph(BIG)
    assert format_graph(g) == BIG
    # Out of order, and with each edge written both ways round.
    edges = lines[1:]
    random.Random(5).shuffle(edges)
    edges = [" ".join(reversed(e.split())) if i % 2 else e for i, e in enumerate(edges)]
    assert format_graph(parse_graph("\n".join(lines[:1] + edges))) == BIG


def test_parse_reads_signed_labels():
    # A "-" sends a slice to _check_ends, which accepts "-0".
    assert parse_graph("2 3\n-0 +1\n0 1\n1 -0\n") == triple_edge()
    with pytest.raises(GraphFormatError, match=r"^edge \(0, -2\) out of range for n=2$"):
        parse_graph("2 1\n0 -2\n")
    with pytest.raises(GraphFormatError, match=r"^edge \(0, 10{30}\) out of range for n=2$"):
        parse_graph("2 1\n0 1" + "0" * 30 + "\n")


def test_parse_peak_memory_is_bounded():
    # bench_stages.py's n = 10^4 rung (even k). Reading the whole text at
    # once, with a fresh int per endpoint, peaked at 3.96 MB here; reading
    # it in slices onto shared label objects peaked near 3.2 MB, and
    # reading the slices after the header's in bulk peaks near 2.0 MB.
    text = format_graph(generate(BlockRecipe(626, 2082, 625, seed=1)))
    tracemalloc.start()
    try:
        parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * 2**20


def test_multiplicity_error_names_the_pair_at_the_lowest_vertex():
    # The cap is checked vertex by vertex after the fill, so of two pairs
    # over it the one at the lower vertex is named, whatever the edge order.
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) has multiplicity > 3$"):
        Multigraph(4, [(2, 3)] * 4 + [(0, 1)] * 4)
    with pytest.raises(GraphFormatError, match=r"^edge \(0, 1\) has multiplicity > 3$"):
        parse_graph("4 8\n" + "2 3\n" * 4 + "1 0\n" * 4)


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
    a, b = validate(g), validate(relabel(g, perm))
    assert (a.is_cubic, a.is_connected, a.is_claw_free, a.is_k4) == (
        b.is_cubic,
        b.is_connected,
        b.is_claw_free,
        b.is_k4,
    )


def test_parse_accepts_crlf_blank_lines_and_indented_comments():
    g = parse_graph("6 9\n0 1\n0 2\n0 3\n1 2\n1 4\n2 5\n3 4\n3 5\n4 5\n")
    text = "\r\n  # prism\r\n6 9\r\n\t\r\n0 1\r\n 0  2 \r\n\t# side\r\n0\t3\r\n1 2\r\n1 4\r\n2 5\r\n3 4\r\n3 5\r\n4 5"
    assert parse_graph(text) == g
    assert parse_graph("1 0\n") == Multigraph(1, [])
    # A header in Arabic-Indic digits reads as int() reads it.
    assert parse_graph("\u0662 \u0663\n0 1\n0 1\n0 1\n") == parse_graph("2 3\n0 1\n0 1\n0 1\n") == triple_edge()


def _shuffled(edges, rng):
    """The same edges in a random order, each pair in a random orientation."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_flat_layout_matches_a_multiplicity_model(data):
    # Any multigraph with multiplicities up to 3: degrees run past 3 and
    # most draws are not cubic.
    n = data.draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mults = data.draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3]), min_size=len(pairs), max_size=len(pairs)))
    model = {pair: m for pair, m in zip(pairs, mults) if m}
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    edges = _shuffled([pair for pair, m in model.items() for _ in range(m)], rng)
    g = Multigraph(n, edges)

    assert g.edge_pairs() == [(u, v, m) for (u, v), m in sorted(model.items())]
    assert g.edge_list() == [pair for pair, m in sorted(model.items()) for _ in range(m)]
    assert g.edge_count == sum(model.values())
    for v in range(n):
        incident = {(p[0] if p[1] == v else p[1]): m for p, m in model.items() if v in p}
        assert g.neighbors(v) == sorted(u for u, m in incident.items() for _ in range(m))

    h = Multigraph(n, _shuffled(edges, rng))
    assert h == g and hash(h) == hash(g)
    assert parse_graph(format_graph(h)) == g
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in _shuffled(edges, rng))
    assert parse_graph(text) == g
    for (u, v), m in model.items():
        with pytest.raises(ValueError, match="multiplicity > 3"):
            Multigraph(n, edges + [(v, u)] * (4 - m))


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_edge_order_does_not_change_results(corpus, fixtures, data):
    graphs = [g for _, g in corpus] + list(fixtures.values())
    g = graphs[data.draw(st.integers(0, len(graphs) - 1))]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    h = Multigraph(g.n, _shuffled(g.edge_list(), rng))
    assert h == g
    report = validate(h)
    assert report == validate(g)
    if report.in_class:
        assert find_blocks(h) == find_blocks(g)
        assert min_bisection(h) == min_bisection(g)


# -- the cubic core --------------------------------------------------------


def _model_neighbors(n, edges):
    """Each vertex's sorted neighbor list, one entry per edge end."""
    near = [[] for _ in range(n)]
    for u, v in edges:
        near[u].append(v)
        near[v].append(u)
    return [sorted(run) for run in near]


# 2m = 3n with degrees 4, 3, 3, 2, so only the counts tell the fill that the
# graph is not cubic: the degree-4 vertex last (its fourth end falls past the
# list) and first (it spills into vertex 1's slots).
SPILLS = {
    "last": "4 6\n3 0\n3 1\n3 2\n3 0\n0 1\n1 2\n",
    "first": "4 6\n0 3\n0 1\n0 2\n0 3\n3 1\n1 2\n",
}


@pytest.mark.parametrize("where", sorted(SPILLS))
def test_a_spilling_graph_gets_the_general_layout(where, tmp_path, capsys):
    text = SPILLS[where]
    g = parse_graph(text)
    edges = [tuple(map(int, line.split())) for line in text.splitlines()[1:]]
    assert not is_cubic(g) and isinstance(g._start, list)
    assert [g.neighbors(v) for v in range(4)] == _model_neighbors(4, edges)
    assert g == Multigraph(4, edges)
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    assert "cubic: no\n" in capsys.readouterr().out


@pytest.mark.parametrize("change", ["edge-added", "edge-removed"])
def test_the_general_layout_at_scale(change, tmp_path, capsys):
    # bench_stages.py's n = 10^4 rung (even k) one edge off cubic, relabelled
    # and shuffled: the general fill, claw search and loops at scale. An
    # edge added between vertices 0 and n-1 makes a claw; the graph with its
    # last edge removed is claw-free.
    g = generate(BlockRecipe(626, 2082, 625, seed=1))
    edges = g.edge_list() + [(0, g.n - 1)] if change == "edge-added" else g.edge_list()[:-1]
    rng = random.Random(3)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = _shuffled([(perm[u], perm[v]) for u, v in edges], rng)
    text = f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    h = parse_graph(text)
    assert not is_cubic(h)
    assert [h.neighbors(v) for v in range(h.n)] == _model_neighbors(h.n, edges)
    assert is_connected(h) == reference_is_connected(h)
    witness = _find_claw(h)
    assert witness == reference_find_claw(h)
    assert (witness is None) == (change == "edge-removed")
    colors = [0] * (h.n // 2) + [1] * (h.n // 2)
    rng.shuffle(colors)
    b = Bisection(tuple(colors))
    assert mono_stats(h, b) == reference_mono_stats(h, b)
    assert is_2bisection(h, b) == reference_is_2bisection(h, b)
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    assert "cubic: no\n" in capsys.readouterr().out


def test_parse_sorts_every_run_of_a_shuffled_relabelled_corpus(corpus):
    rng = random.Random(5)
    for _, g in corpus:
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edge_list()]
        # Lines shuffled, endpoints swapped at random.
        lines = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(lines)
        h = parse_graph(f"{g.n} {len(lines)}\n" + "".join(f"{u} {v}\n" for u, v in lines))
        assert is_cubic(h)
        assert [h.neighbors(v) for v in range(h.n)] == _model_neighbors(g.n, edges)
        assert h == relabel(g, perm)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, outer + inner + [(i, i + 5) for i in range(5)])


def _reader_graphs(corpus):
    """Cubic graphs of every kind the readers meet, and the spilling ones."""
    prism = Multigraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    two_prisms = Multigraph(12, prism.edge_list() + [(u + 6, v + 6) for u, v in prism.edge_list()])
    k33 = Multigraph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    spills = [parse_graph(text) for text in SPILLS.values()]
    return [g for _, g in corpus[::9]] + [two_prisms, k33, _petersen()] + spills


def _colorings(g, rng):
    """Every balanced coloring of a small graph, else seeded ones, the
    constructed minimum among them where there is one."""
    if g.n <= 12:
        yield from balanced_colorings(g.n)
        return
    if validate(g).in_class:
        bis, _ = min_bisection(g)
        yield bis.colors
        yield bis.swapped().colors
    for _ in range(20):
        colors = [0] * (g.n // 2) + [1] * (g.n // 2)
        rng.shuffle(colors)
        yield tuple(colors)


def test_cubic_readers_match_the_general_loops(corpus):
    rng = random.Random(11)
    graphs = _reader_graphs(corpus)
    assert sum(map(is_cubic, graphs)) == len(graphs) - len(SPILLS)
    verdicts = set()
    for g in graphs:
        assert is_connected(g) == reference_is_connected(g)
        assert _find_claw(g) == reference_find_claw(g)
        verdicts |= {("connected", is_connected(g)), ("claw-free", _find_claw(g) is None)}
        if g.n % 2:
            continue
        for colors in _colorings(g, rng):
            b = Bisection(colors)
            assert mono_stats(g, b) == reference_mono_stats(g, b)
            two = is_2bisection(g, b)
            assert two == reference_is_2bisection(g, b)
            verdicts.add(("2-bisection", two))
    # Each reader answered both ways.
    assert len(verdicts) == 6


def test_a_cubic_graph_holds_no_offset_list():
    g = generate(BlockRecipe(626, 2082, 625, seed=1))
    assert g.n == 10_000 and g._start == range(0, 3 * g.n + 1, 3)
    assert isinstance(g._start, range) and len(g._nbr) == 3 * g.n
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert is_cubic(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024
