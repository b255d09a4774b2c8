from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import deque

import pytest

import cubisect.bisection as bisection
import cubisect.cli as cli
import cubisect.construct as construct
import cubisect.structure as structure
from cubisect import (
    BlockRecipe,
    CertificateError,
    Multigraph,
    PartitionError,
    bisection_to_json,
    curated_suite,
    find_blocks,
    format_graph,
    generate,
    min_bisection,
    ring_of_diamonds,
    validate,
)
from helpers import load_script, reference_cover_json, relabel

CURATED = dict(curated_suite())


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def stdin_bytes(data: bytes):
    """A text stdin over raw bytes, decoded as the interpreter does under a
    C or POSIX locale."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_text(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["prism"])
    code, out, _ = run_cli(capsys, ["check", path])
    assert code == 0
    assert "cubic: yes" in out
    assert "in-class: yes" in out


def test_check_k4_exits_2(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["k4"])
    code, out, _ = run_cli(capsys, ["check", path, "--format", "json"])
    assert code == 2
    assert json.loads(out)["is_k4"] is True


def test_check_claw_witness_shown(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["q3"])
    code, out, _ = run_cli(capsys, ["check", path])
    assert code == 2
    assert "claw witness:" in out


def test_partition_json(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["ring2"])
    code, out, _ = run_cli(capsys, ["partition", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 2 and obj["t"] == 0 and obj["p"] == 0
    for name, g in fixtures.items():
        if name in ("k4", "q3"):
            continue
        code, out, err = run_cli(capsys, ["partition", write_graph(tmp_path, g)])
        assert (code, err) == (0, "")
        assert out == json.dumps(reference_cover_json(find_blocks(g)), indent=2) + "\n"


def test_partition_rejects_k4(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["k4"])
    code, _, err = run_cli(capsys, ["partition", path])
    assert code == 2
    assert "error:" in err


def test_bisect_json(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["diamond_digon"])
    code, out, _ = run_cli(capsys, ["bisect", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["epsilon"] == 2
    assert obj["certificate"]["parity"] == "odd"
    assert sorted(obj["bisection"]["black"] + obj["bisection"]["white"]) == list(range(6))


def test_bisect_k4_exits_2(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["k4"])
    code, out, err = run_cli(capsys, ["bisect", path])
    assert code == 2
    assert out == ""
    assert "excluded" in err
    assert '"is_k4": true' in err


def test_bisect_dot(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["triple_edge"])
    code, out, _ = run_cli(capsys, ["bisect", path, "--format", "dot"])
    assert code == 0
    assert out.count("0 -- 1;") == 3
    assert "fillcolor=black" in out and "fillcolor=white" in out


def test_oracle(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["prism"])
    code, out, _ = run_cli(capsys, ["oracle", path])
    assert code == 0
    assert json.loads(out) == {
        "min_epsilon": 2,
        "optima": 3,
        "desired_exists": True,
        "enumerated": 20,
    }


def test_oracle_limit(tmp_path, capsys, fixtures):
    path = write_graph(tmp_path, fixtures["big40"])
    code, _, err = run_cli(capsys, ["oracle", path])
    assert code == 2 and "budget" in err
    code, _, err = run_cli(capsys, ["oracle", path, "--oracle-limit", "25"])
    assert code == 2 and "hard cap" in err


def test_gen_text_deterministic(capsys):
    code, first, _ = run_cli(capsys, ["gen", "2", "2", "1", "--seed", "5"])
    assert code == 0
    code, second, _ = run_cli(capsys, ["gen", "2", "2", "1", "--seed", "5"])
    assert first == second
    n, m = map(int, first.splitlines()[0].split())
    assert n == 16 and m == 24


def test_gen_unsatisfiable(capsys):
    code, _, err = run_cli(capsys, ["gen", "1", "0", "0"])
    assert code == 2
    assert "no connected wiring" in err


def test_gen_dot(capsys):
    code, out, _ = run_cli(capsys, ["gen", "0", "0", "1", "--format", "dot"])
    assert code == 0
    assert out.count("0 -- 1;") == 3
    assert "fillcolor" not in out


def test_verify_roundtrip(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["ring3"])
    code, out, _ = run_cli(capsys, ["bisect", gpath])
    bpath = tmp_path / "b.json"
    bpath.write_text(json.dumps(json.loads(out)["bisection"]))
    code, out, _ = run_cli(capsys, ["verify", gpath, str(bpath), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["is_2bisection"] is True
    assert obj["epsilon"] == 4
    assert obj["is_desired"] is False  # odd-k colorings double up one diamond
    assert obj["violations"][0][0] == "diamond_one_mono"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_reads_the_bisect_document(tmp_path, capsys, monkeypatch, fmt):
    # bisect G | verify G - : the nested "bisection" object is read.
    for name, g in CURATED.items():
        if name in ("k4", "q3"):
            continue
        gpath = write_graph(tmp_path, g)
        code, doc, _ = run_cli(capsys, ["bisect", gpath])
        assert code == 0
        epsilon = json.loads(doc)["certificate"]["epsilon"]
        monkeypatch.setattr("sys.stdin", stdin_bytes(doc.encode()))
        code, out, err = run_cli(capsys, ["verify", gpath, "-", "--format", fmt])
        assert (code, err) == (0, ""), name
        if fmt == "json":
            obj = json.loads(out)
            assert obj["is_2bisection"] is True and obj["epsilon"] == epsilon, name
        else:
            assert "2-bisection: yes" in out and f"epsilon: {epsilon} " in out, name


def test_verify_text_flags_bad_coloring(tmp_path, capsys, fixtures):
    g = fixtures["prism"]
    gpath = write_graph(tmp_path, g)
    bpath = tmp_path / "bad.json"
    bpath.write_text(json.dumps({"black": [0, 1, 2], "white": [3, 4, 5]}))
    code, out, _ = run_cli(capsys, ["verify", gpath, str(bpath)])
    assert code == 0
    assert "2-bisection: no" in out
    assert "violated triangle_one_mono" in out


def test_verify_bad_json_exits_1(tmp_path, capsys, fixtures):
    for name, bad in (
        ("prism", b"{not json"),
        ("triple_edge", b'{"black": [true], "white": [false]}'),
        ("triple_edge", b'{"black": [0], "white": [1]}\xff'),  # not UTF-8
    ):
        gpath = write_graph(tmp_path, fixtures[name])
        bpath = tmp_path / "broken.json"
        bpath.write_bytes(bad)
        code, out, err = run_cli(capsys, ["verify", gpath, str(bpath)])
        assert code == 1
        assert out == ""
        assert "error:" in err


@pytest.mark.parametrize(
    "bad",
    [b"[" * 100_000, b'{"black": [' + b"1" * 5001 + b'], "white": [0]}'],
    ids=["nested_100000", "int_5001_digits"],
)
def test_verify_json_loads_refusal_exits_1(tmp_path, capsys, fixtures, bad):
    # json.loads raises RecursionError on deep nesting and a plain
    # ValueError on an integer past the digit limit; both are bad input.
    gpath = write_graph(tmp_path, fixtures["triple_edge"])
    bpath = tmp_path / "refused.json"
    bpath.write_bytes(bad)
    code, out, err = run_cli(capsys, ["verify", gpath, str(bpath)])
    assert (code, out) == (1, "")
    assert err.startswith("error: bad bisection JSON: ")


def test_stdin_input(capsys, monkeypatch, fixtures):
    monkeypatch.setattr("sys.stdin", stdin_bytes(format_graph(fixtures["prism"]).encode()))
    code, out, _ = run_cli(capsys, ["check", "-"])
    assert code == 0 and "in-class: yes" in out


# A comment line holding the byte 0xff, then the triple edge.
NOT_UTF8 = b"# \xff\n2 3\n0 1\n0 1\n0 1\n"


def test_non_utf8_stdin_exits_1_like_a_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    code, out, file_err = run_cli(capsys, ["check", str(path)])
    assert (code, out) == (1, "")
    monkeypatch.setattr("sys.stdin", stdin_bytes(NOT_UTF8))
    code, out, err = run_cli(capsys, ["check", "-"])
    assert (code, out) == (1, "")
    assert err == file_err.replace(str(path), "stdin")
    assert "stdin is not UTF-8 text" in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_byte_order_mark_is_read_past(tmp_path, capsys, monkeypatch, fixtures, source):
    bom = b"\xef\xbb\xbf"
    gpath = write_graph(tmp_path, fixtures["prism"])
    bpath = tmp_path / "b.json"
    bpath.write_text('{"black": [0, 1, 5], "white": [2, 3, 4]}')
    want = [run_cli(capsys, ["check", gpath]), run_cli(capsys, ["verify", gpath, str(bpath)])]
    assert want[0][0] == want[1][0] == 0

    def marked(path):
        """path's bytes after a byte-order mark, on stdin or in a new file."""
        data = bom + path.read_bytes()
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", stdin_bytes(data))
            return "-"
        out = path.with_name("bom-" + path.name)
        out.write_bytes(data)
        return str(out)

    assert run_cli(capsys, ["check", marked(tmp_path / "g.txt")]) == want[0]
    assert run_cli(capsys, ["verify", gpath, marked(bpath)]) == want[1]


def test_verify_reads_bisection_from_stdin(tmp_path, capsys, monkeypatch, fixtures):
    gpath = write_graph(tmp_path, fixtures["prism"])
    bpath = tmp_path / "b.json"
    bpath.write_text('{"black": [0, 1, 5], "white": [2, 3, 4]}')
    _, from_file, _ = run_cli(capsys, ["verify", gpath, str(bpath)])
    monkeypatch.setattr("sys.stdin", stdin_bytes(bpath.read_bytes()))
    code, out, _ = run_cli(capsys, ["verify", gpath, "-"])
    assert code == 0 and out == from_file and "2-bisection: yes" in out
    monkeypatch.setattr("sys.stdin", stdin_bytes(bpath.read_bytes() + b"\xff"))
    code, out, err = run_cli(capsys, ["verify", gpath, "-"])
    assert (code, out) == (1, "")
    assert "error: stdin is not UTF-8 text" in err


def test_output_flag(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["prism"])
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, ["oracle", gpath, "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["min_epsilon"] == 2


def test_unwritable_output_exits_1(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["prism"])
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, ["bisect", gpath, "--output", str(target)])
    assert code == 1
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("bogus\n")
    code, _, err = run_cli(capsys, ["check", str(path)])
    assert code == 1
    assert "error:" in err
    # Byte 0xff in the last edge line: a decoding failure is parse trouble
    # too, not an out-of-class graph.
    path.write_bytes(b"2 3\n0 1\n0 1\n0 1\xff\n")
    for command in ("check", "partition", "bisect"):
        code, out, err = run_cli(capsys, [command, str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "text, message",
    [
        # Six tokens for two edges, but one line has one and the next three.
        ("3 2\n0\n1 2 0\n", "expected edge line 'u v', got '0'"),
        # A comment is a whole line; an inline one is a third token.
        ("2 1\n0 1 # x\n", "expected edge line 'u v', got '0 1 # x'"),
        ("2 1\n0 #\n", "non-integer edge line '0 #'"),
        ("2 2\n0 1\n0 x\n", "non-integer edge line '0 x'"),
    ],
)
def test_malformed_edge_lines_exit_1(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["check", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


RING_TEXT = format_graph(ring_of_diamonds(2000))  # two parser slices


@pytest.mark.parametrize(
    "text, message",
    [
        (RING_TEXT + "5", "expected edge line 'u v', got '5'"),
        (RING_TEXT[: -len("7998 7999\n")] + "7998", "expected edge line 'u v', got '7998'"),
        ("2 3\n0 1\n0 1\n0 1\n0", "expected edge line 'u v', got '0'"),
    ],
    ids=["later-slice-extra", "later-slice-short", "one-slice"],
)
def test_a_lone_last_integer_exits_1(tmp_path, capsys, text, message):
    # A last line of one integer and no line end leaves nothing when the
    # bulk read deletes its digits; it is named as the line reader names it.
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["check", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_crlf_blank_lines_and_indented_comments_accepted(tmp_path, capsys, fixtures):
    canonical = format_graph(fixtures["prism"])
    head, *edges = canonical.splitlines()
    text = "  # prism\r\n\r\n\t" + head + "\r\n   \r\n" + "\r\n\t# between\r\n".join(edges) + "\r\n\r\n"
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.encode())
    code, out, _ = run_cli(capsys, ["check", str(path)])
    assert code == 0 and "in-class: yes" in out
    _, expected, _ = run_cli(capsys, ["bisect", write_graph(tmp_path, fixtures["prism"])])
    assert run_cli(capsys, ["bisect", str(path)])[1] == expected


PRISM_EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]


@pytest.mark.parametrize(
    "text",
    [
        "3 3\n0 1\n0 2\n1 2\n",  # a lone triangle: degree 2
        "2 2\n0 1\n0 1\n",  # a double edge: degree 2
        # Two disjoint prisms: cubic and claw-free, but not connected.
        "12 18\n" + "".join(f"{u + s} {v + s}\n" for s in (0, 6) for u, v in PRISM_EDGES),
    ],
    ids=["lone_triangle", "double_edge", "two_prisms"],
)
def test_partition_out_of_class_exits_2(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["partition", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: graph is not a connected claw-free cubic multigraph\n")
    assert run_cli(capsys, ["bisect", str(path)])[0] == 2
    assert "in-class: no" in run_cli(capsys, ["check", str(path)])[1]


def _report_text(cubic, claw_free, k4, witness):
    witness = "null" if witness is None else "[\n" + ",\n".join(f"    {v}" for v in witness) + "\n  ]"
    return (
        f'{{\n  "is_cubic": {cubic},\n  "is_connected": true,\n  "is_claw_free": {claw_free},\n'
        f'  "is_k4": {k4},\n  "claw_witness": {witness}\n}}\n'
    )


NOT_IN_CLASS = "error: graph is not a connected claw-free cubic multigraph\n"


@pytest.mark.parametrize(
    "text, err",
    [
        (
            format_graph(CURATED["k4"]),
            "error: the complete graph on four vertices is excluded\n"
            + _report_text("true", "true", "true", None),
        ),
        (format_graph(CURATED["q3"]), NOT_IN_CLASS + _report_text("true", "false", "false", [0, 1, 2, 4])),
        ("3 3\n0 1\n0 2\n1 2\n", NOT_IN_CLASS + _report_text("false", "true", "false", None)),
    ],
    ids=["k4", "q3", "lone_triangle"],
)
def test_partition_refusal_text(tmp_path, capsys, text, err):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert run_cli(capsys, ["partition", str(path)]) == (2, "", err)


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, ["check", "/nonexistent/graph.txt"])
    assert code == 1


def test_usage_error_exits_1(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["prism"])
    # partition and oracle print JSON only, so they take no --format
    for argv in (["frobnicate"], ["partition", gpath, "--format", "json"], ["oracle", gpath, "--format", "json"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, fixtures):
    # A PartitionError on an in-class graph is a bug in the cover, not an
    # out-of-class input: the gate turns every one of those into NotApplicable.
    gpath = write_graph(tmp_path, fixtures["prism"])
    for module, name, exc in (
        (cli, "min_bisection", CertificateError),
        (construct, "find_blocks", PartitionError),
    ):

        def boom(_):
            raise exc("forced for the test")

        with monkeypatch.context() as patch:
            patch.setattr(module, name, boom)
            code, out, err = run_cli(capsys, ["bisect", gpath])
        assert code == 3
        assert out == ""
        assert f"internal error: {exc.__name__}: forced for the test" in err
        assert f"input: {gpath}" in err


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch, fixtures):
    def boom(_):
        raise RuntimeError("forced for the test")

    monkeypatch.setattr(cli, "min_bisection", boom)
    gpath = write_graph(tmp_path, fixtures["prism"])
    code, out, err = run_cli(capsys, ["bisect", gpath])
    assert code == 3
    assert out == ""
    assert "internal error: RuntimeError: forced for the test" in err
    assert gpath in err


def test_gen_internal_error_reports_recipe(capsys, monkeypatch):
    def boom(_):
        raise RuntimeError("forced for the test")

    monkeypatch.setattr(cli, "generate", boom)
    code, out, err = run_cli(capsys, ["gen", "2", "2", "1", "--seed", "5"])
    assert code == 3
    assert out == ""
    assert "internal error: RuntimeError: forced for the test" in err
    assert "input: recipe k=2 t=2 p=1 seed=5" in err


def test_verify_large_ring_is_desired(tmp_path, capsys):
    g = ring_of_diamonds(1250)
    bis, _ = min_bisection(g)
    gpath = write_graph(tmp_path, g)
    bpath = tmp_path / "b.json"
    bpath.write_text(json.dumps({"black": bis.black(), "white": bis.white()}))
    code, out, _ = run_cli(capsys, ["verify", gpath, str(bpath), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["is_2bisection"] is True
    assert obj["is_desired"] is True
    assert obj["epsilon"] == 1250


def test_json_output_stable(tmp_path, capsys, fixtures):
    gpath = write_graph(tmp_path, fixtures["ring2"])
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, ["bisect", gpath])
        outputs.add(out)
    assert len(outputs) == 1


# `bisect` stdout byte for byte: two odd-k fixtures, where the walk flips the
# diamond with the smallest vertex tuple, and one even-k fixture.
BISECT_STDOUT = {
    "diamond_digon": """\
{
  "bisection": {
    "black": [
      1,
      3,
      4
    ],
    "white": [
      0,
      2,
      5
    ],
    "epsilon": 2,
    "epsilon_black": 1,
    "epsilon_white": 1
  },
  "certificate": {
    "n": 6,
    "k": 1,
    "p": 1,
    "epsilon": 2,
    "formula": 2,
    "parity": "odd",
    "valid": true
  }
}
""",
    "ring3": """\
{
  "bisection": {
    "black": [
      0,
      2,
      4,
      7,
      9,
      10
    ],
    "white": [
      1,
      3,
      5,
      6,
      8,
      11
    ],
    "epsilon": 4,
    "epsilon_black": 2,
    "epsilon_white": 2
  },
  "certificate": {
    "n": 12,
    "k": 3,
    "p": 0,
    "epsilon": 4,
    "formula": 4,
    "parity": "odd",
    "valid": true
  }
}
""",
    "prism": """\
{
  "bisection": {
    "black": [
      1,
      3,
      5
    ],
    "white": [
      0,
      2,
      4
    ],
    "epsilon": 2,
    "epsilon_black": 1,
    "epsilon_white": 1
  },
  "certificate": {
    "n": 6,
    "k": 0,
    "p": 0,
    "epsilon": 2,
    "formula": 2,
    "parity": "even",
    "valid": true
  }
}
""",
}


@pytest.mark.parametrize("name", sorted(BISECT_STDOUT))
def test_bisect_stdout_pinned(tmp_path, capsys, fixtures, name):
    code, out, _ = run_cli(capsys, ["bisect", write_graph(tmp_path, fixtures[name])])
    assert code == 0 and out == BISECT_STDOUT[name]


def test_bisect_json_is_the_indented_dump(tmp_path, capsys, fixtures, corpus):
    graphs = [g for g in fixtures.values() if validate(g).in_class]
    graphs += [g for _, g in corpus]
    # bench_stages.py's n = 10^4 rungs, even and odd k.
    graphs += [generate(BlockRecipe(626, 2082, 625, seed=1)), generate(BlockRecipe(625, 2082, 625, seed=1))]
    parities = set()
    for g in graphs:
        code, out, _ = run_cli(capsys, ["bisect", write_graph(tmp_path, g)])
        bis, cert = min_bisection(g)
        payload = {"bisection": bisection_to_json(bis, cert.stats), "certificate": cert.to_json()}
        assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
        parities.add((g.n > 9000, cert.parity))
    assert parities == {(False, 0), (False, 1), (True, 0), (True, 1)}


def test_partition_pieces_meet_at_their_boundaries(tmp_path, capsys):
    size = structure.PIECE_BLOCKS
    # bench_stages.py's ring lists its digons first: one piece boundary falls
    # inside the run of digons and the next where the diamonds begin.
    ring = load_script("bench_stages").ring(101, 2 * size)
    kinds = find_blocks(ring).kinds
    assert kinds[size - 1] == kinds[size] == "digon" and kinds[2 * size - 1 : 2 * size + 1] == ["digon", "diamond"]
    # Every kind, with runs of one kind and another mixed, in three pieces.
    for g in (ring, generate(BlockRecipe(3000, 6000, 3000, seed=1))):
        part = find_blocks(g)
        assert len(part.kinds) > 2 * size
        code, out, _ = run_cli(capsys, ["partition", write_graph(tmp_path, g)])
        assert code == 0 and out == json.dumps(reference_cover_json(part), indent=2) + "\n"


def test_bisect_pieces_skip_a_range_without_a_vertex_of_a_class(tmp_path, capsys):
    size = bisection.PIECE_VERTICES
    # A ring of an even number of diamonds has one desired coloring up to a
    # swap. Relabelled with its white vertices first, the first of its three
    # ranges holds one class only, and the last range the other.
    g = ring_of_diamonds(3 * size // 4)
    bis, _ = min_bisection(g)
    perm = [0] * g.n
    for new, old in enumerate(bis.white() + bis.black()):
        perm[old] = new
    g = relabel(g, perm)
    bis, cert = min_bisection(g)
    assert bis.black() in (list(range(g.n // 2)), list(range(g.n // 2, g.n)))
    code, out, _ = run_cli(capsys, ["bisect", write_graph(tmp_path, g)])
    payload = {"bisection": bisection_to_json(bis, cert.stats), "certificate": cert.to_json()}
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"


def test_the_output_writers_hold_one_piece_at_a_time():
    # bench_stages.py's n = 10^5 mix rung, even k. Drained into a sink that
    # keeps nothing; the whole cover's text is 3.5 MB, the document's 1.2 MB.
    g = generate(BlockRecipe(6250, 20832, 6250, seed=1))
    part = find_blocks(g)
    bis, cert = min_bisection(g)
    for name, pieces in (("partition", part.json_pieces), ("bisect", lambda: cli._bisect_json(bis, cert))):
        tracemalloc.start()
        try:
            deque(pieces(), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20, (name, peak / 2**20)


@pytest.mark.parametrize("command", ["partition", "bisect"])
@pytest.mark.parametrize("name", ["k4", "q3", "disconnected"])
def test_a_refused_graph_writes_nothing(tmp_path, capsys, fixtures, command, name):
    g = Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3) if name == "disconnected" else fixtures[name]
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, [command, write_graph(tmp_path, g), "--output", str(target)])
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not target.exists()


# scripts/output_digest.py's table. A change that alters output on purpose
# re-pins the rows it meant to change and says why. The overflow rows were
# re-pinned when a header whose n is 2**63 or more went from exit 3 (an
# OverflowError) to exit 2 ("error: instance too large for memory").
# The faulty-later rows were first computed on the parser that read every
# slice line by line, before later slices could be read in bulk.
OUTPUT_DIGESTS = """
check-text   fixtures           81230ac4f12e94b46af17ed738b2c2975d493ab5a1ca933f8cab0b7419b1cc9c
check-json   fixtures           8b9aff8d95f947c9b5d3718a2fdc62cf2934e51f6eed6e0e69cb12785c376489
partition    fixtures           f993c3be8c088615c679ce2a1498088e4803e1d9de5b24627fa1eb7cf31f9c21
bisect-json  fixtures           c57013fdea6d3650ad50539894bfa2073e853c74815d25e4891945ed5c985249
bisect-dot   fixtures           74e5c06fc1e3d951a6541c23d68849a75b5e9eb13db6b962aae0fce23b2797e6
oracle       fixtures           a2998b8abe1c463d0dfae10df5e27df19059d0442b556337ea8148152d1bab1d
verify-text  fixtures           9c47d40a6e02909d761ba27736a414e1260dec09683ece386c9e4c595fdf7475
verify-json  fixtures           d3c00f91665f97d1578e95254fbd14bed72abd016a66a6a6566848c2f2b39631
check-text   fixtures-shuffled  c80d96b370f9726813e59abcd7b0c7f935c5e4caaac50cab1b736d7a721a959a
check-json   fixtures-shuffled  bfd99ad9e1c3fe03a075a15617845f852324a1a55e4eddac870871639bdbed37
partition    fixtures-shuffled  3ec9034d7aa84fac8993eede981df021b0a8bdce46519c7818d578af5cd2a1b7
bisect-json  fixtures-shuffled  3072c14855fa4cedd49293380e3afe2ad50d80965492cc7d4536e00d43ac860c
bisect-dot   fixtures-shuffled  11192d6a546d31efbd4e0ced1e01d725d4b8072275346fe2441ce383d3b8a9c1
oracle       fixtures-shuffled  a2998b8abe1c463d0dfae10df5e27df19059d0442b556337ea8148152d1bab1d
verify-text  fixtures-shuffled  194b793d9a5ede0732106feee95bb0a3f3521674e7bca24b175ce7d48463bcc9
verify-json  fixtures-shuffled  29262cbd97aebc3412de74f886ba74dfebff788eaddbb1e85ce5f254d85c6fee
check-text   corpus             019b820ac0afe32f91acfd0a85fcaf21abee5030856a96d487c33bf4f825fa4f
check-json   corpus             630824051416f0d2585d6287983df1902b3fc6f43c10fce8c20cfcba835decce
partition    corpus             88545eb5303fdc9a5f6f0afd48558c7b6971fae2266f3b4423344a5c2ac66c66
bisect-json  corpus             034c64f2d54a3de427be9c30daa08179642a8a8f07aa6f98a325750626d0d71c
bisect-dot   corpus             5e1487495435503977398bd38f80192f46ad2a1aa11d4b03184af9df14db8f1b
oracle       corpus             07b32255e1be2ee7529c96f26b1e5b74bd9b5937674a1b54331f791c329c7375
verify-text  corpus             5b22aa32ae56c9b4dad6cff925712dc9658379f5f10f53bd6d7b706ae73f0360
verify-json  corpus             f1cc096e96c95652ca717879bf42bd6a827b7097b8f251c84fadbe759454460e
check-text   corpus-shuffled    019b820ac0afe32f91acfd0a85fcaf21abee5030856a96d487c33bf4f825fa4f
check-json   corpus-shuffled    630824051416f0d2585d6287983df1902b3fc6f43c10fce8c20cfcba835decce
partition    corpus-shuffled    818d5201fd10dae18f1f6e14b245fc5badc05df9735ed5bd086d7b0e87ff69db
bisect-json  corpus-shuffled    5ba6b065d68571d6509893873b393fcef41eba91526036c3743131c0aeee4547
bisect-dot   corpus-shuffled    5ab86a3a8239b646106a6cedf1bc333533c8e7b08eb49fff58d6e7bc79c47cb0
oracle       corpus-shuffled    07b32255e1be2ee7529c96f26b1e5b74bd9b5937674a1b54331f791c329c7375
verify-text  corpus-shuffled    9fde62c4f88025343987d4095fb347dd06793bbbc0d02d83dbd1e0ef367a7afa
verify-json  corpus-shuffled    148cf5250556e552d2e831b4d51b274c581052b2c07fb3d1bb287af4cf1d55ee
check-text   rings              eb88b0c1b1c613c84dc9afa8ceec44aac50f67f139fa84e9de1a9b99058c8542
check-json   rings              c39eb1bb312023da470b32c2b192bc7845e62d156e6465af1d42ae7bda3ae640
partition    rings              90b892f6a3e037ac3594e1943ad7e13b28e19145d741c734630166da7b06c4fb
bisect-json  rings              a3dd2925f89ef6b640e6f86becf3c6d8443f0df40a7976ca71a4c99238f895d7
bisect-dot   rings              f5b6014f6974ab4cbd3860370bd91b58d9e122b04f9b0c298fee9986f121f62a
oracle       rings              7d5cccdf2d733124157662b71bc9026dbe7bfb583295838d9ee7018911fe2fa7
verify-text  rings              4c0210bc1c5876196d0672b4173ae55630c36b37423d518b7b77777bbae42990
verify-json  rings              6e3df060afd41f964a248435383ef66257992661d972d0343174dd512c2210c3
check-text   faulty             7b10fc674b1c57be9e275ec0bd8a1b9e9cd36e234d3eb31417fce6a422ace72e
check-json   faulty             4b903815685dc76ea8f4f4a97b6cb82ee237f1243277586464c0924131f37fc2
partition    faulty             5c947472ae572cac75de3b5ac837436d6ddda55c49a43bdece997e64dda76c5c
bisect-json  faulty             8db50258b9ffb67aa301dd070b5068030325c468f4304536f7f9407cda09f449
bisect-dot   faulty             890592f22ea1c8223d3aa94c7bc084c25b3d5af5cb75d06344d5f0a8f904f825
oracle       faulty             f3fec9adb9173c5c37910e4088edc22d6934ccc1e6f9b085461a79fcd8645f71
verify-text  faulty             f3093d9036059bb42a6ffd0d38fbf9422c82a0e873b1848221ff05ccd780593b
verify-json  faulty             a03e73cafae4ab6a2a646f51dcd7ad32fac656c2c10071356587beffaeb002a2
check-text   faulty-later       a2ccc8243371b9e265764c915cac9ae3b2646e6670489e5d3c90fb47e5b6d4a1
check-json   faulty-later       a2ccc8243371b9e265764c915cac9ae3b2646e6670489e5d3c90fb47e5b6d4a1
partition    faulty-later       a2ccc8243371b9e265764c915cac9ae3b2646e6670489e5d3c90fb47e5b6d4a1
bisect-json  faulty-later       a2ccc8243371b9e265764c915cac9ae3b2646e6670489e5d3c90fb47e5b6d4a1
bisect-dot   faulty-later       a2ccc8243371b9e265764c915cac9ae3b2646e6670489e5d3c90fb47e5b6d4a1
oracle       faulty-later       a2ccc8243371b9e265764c915cac9ae3b2646e6670489e5d3c90fb47e5b6d4a1
verify-text  faulty-later       a2ccc8243371b9e265764c915cac9ae3b2646e6670489e5d3c90fb47e5b6d4a1
verify-json  faulty-later       a2ccc8243371b9e265764c915cac9ae3b2646e6670489e5d3c90fb47e5b6d4a1
check-text   overflow           31be743555994a31eb3a5cac477fb357535ecba3fefb935fbf33f06d0e5f4d85
check-json   overflow           31be743555994a31eb3a5cac477fb357535ecba3fefb935fbf33f06d0e5f4d85
partition    overflow           31be743555994a31eb3a5cac477fb357535ecba3fefb935fbf33f06d0e5f4d85
bisect-json  overflow           31be743555994a31eb3a5cac477fb357535ecba3fefb935fbf33f06d0e5f4d85
bisect-dot   overflow           31be743555994a31eb3a5cac477fb357535ecba3fefb935fbf33f06d0e5f4d85
oracle       overflow           31be743555994a31eb3a5cac477fb357535ecba3fefb935fbf33f06d0e5f4d85
verify-text  overflow           31be743555994a31eb3a5cac477fb357535ecba3fefb935fbf33f06d0e5f4d85
verify-json  overflow           31be743555994a31eb3a5cac477fb357535ecba3fefb935fbf33f06d0e5f4d85
gen-text     corpus             eeff6dca15e81bd296299908c9034848bd0ac2298bfb37e36e6cd7a44db42c8e
gen-dot      corpus             6eba02357135a9966895924e28461da3517c5b961802ab09eda5cb8d851943ad
"""


def test_commands_build_no_block_objects(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Block was built on a command path")

    monkeypatch.setattr(structure, "Block", refuse)
    assert load_script("output_digest").main() == 0
    assert capsys.readouterr().out == OUTPUT_DIGESTS.lstrip()


@pytest.mark.parametrize("command", ["check", "bisect"])
def test_a_header_too_large_for_memory_exits_2(tmp_path, command):
    # n = 10^12 labels do not fit: the run must refuse the instance, not
    # crash. The child's address space is capped so that the allocation
    # fails however the host hands out memory.
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.txt"
    path.write_text("1000000000000 1\n0 1\n")
    cap = 2 * 2**30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "cubisect", command, str(path)],
        preexec_fn=limit,
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: instance too large for memory\n")


@pytest.mark.parametrize("command", ["check", "partition", "bisect", "oracle", "verify"])
def test_a_header_past_any_list_length_exits_2(tmp_path, capsys, command):
    # n = 2^63 cannot even be asked of the allocator: allocating n slots
    # would raise OverflowError, so the reader refuses it before that.
    graph = tmp_path / "huge.txt"
    graph.write_text("9223372036854775808 1\n0 1\n")
    coloring = tmp_path / "b.json"
    coloring.write_text('{"black": [0], "white": [1]}')
    argv = [command, str(graph)] + ([str(coloring)] if command == "verify" else [])
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: instance too large for memory\n")
