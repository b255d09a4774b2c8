#!/usr/bin/env python3
"""Print one SHA-256 per command, format and input group, taken over what
`cubisect` writes for every input of the group: the exit code, stdout and
stderr.

Usage: python scripts/output_digest.py [--large]

Every command runs in process, through the CLI's own argument parser and
`run`, in every format it takes, on a fixed input set:

* fixtures -- the curated fixtures, as format_graph writes them;
* corpus -- 216 generated graphs: every realizable (k, t, p) with k, p in
  0..3, t in {0, 2, 4} and n <= 16, eight seeds each;
* fixtures-shuffled, corpus-shuffled -- the same graphs relabelled by a
  seeded permutation, with their edge lines shuffled and each line's
  endpoints swapped at random, so that the parser's sort path runs;
* rings -- rings of 3 and 2001 diamonds;
* faulty -- texts that the parser refuses or that fall outside the class:
  bad headers and lines, labels out of range, loops, a multiplicity above
  3, a wrong line count, bytes that are not UTF-8, a vertex of degree 4,
  a claw, a disconnected graph;
* faulty-later -- the ring of 2001 diamonds with its last edge line, which
  lies in the parser's second slice, replaced by each bad edge line of
  faulty: too few tokens, a non-integer, a trailing comment, a label of n,
  a negative label, a loop;
* overflow -- texts whose header's n is 2**63 or more, with good edge
  lines, none, a bad line, or too few lines.

With --large it digests one more group instead, by hand and outside the
tests, as it takes about a minute:

* stages-1e5 -- the n ~ 10^5 rungs of bench_stages.py, all six shapes
  (the triangles-only one included), both parities of the diamond count.

A graph goes in on stdin. `verify` reads two colorings of each graph:
bisect's document when bisect succeeds, and the first half of the
vertices black. `gen` runs on the corpus recipes. The digests of one
checkout equal another's exactly when every command wrote the same bytes
and exit codes on every input; tests/test_cli.py pins them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Run as a script, it digests this checkout's package; imported, it
    # leaves sys.path to the importer.
    sys.path.insert(0, os.path.join(ROOT, "src"))

from cubisect import BlockRecipe, curated_suite, format_graph, generate, ring_of_diamonds  # noqa: E402
from cubisect.cli import _build_parser, run  # noqa: E402

SEED = 7
# Each graph command with the formats it takes; None for one with no --format.
GRAPH_COMMANDS = (
    ("check", ("text", "json")),
    ("partition", (None,)),
    ("bisect", ("json", "dot")),
    ("oracle", (None,)),
    ("verify", ("text", "json")),
)

FAULTY = (
    b"",
    b"# only a comment\n",
    b"3\n",
    b"x 1\n",
    b"2 1 0\n0 1\n",
    b"2 1\n0\n",
    b"2 1\n0 x\n",
    b"2 1\n0 1 # tail\n",
    b"2 1\n0 2\n",
    b"2 1\n0 -1\n",
    b"2 1\n1 1\n",
    b"0 0\n",
    b"-3 0\n",
    b"2 2\n0 1\n",
    b"2 4\n0 1\n0 1\n0 1\n1 0\n",
    b"4 8\n" + b"2 3\n" * 4 + b"1 0\n" * 4,
    b"\xff\xfe2 3\n",
    b"\xef\xbb\xbf2 3\n0 1\n0 1\n0 1\n",
    b"2 3\r\n0 1\r\n\r\n1 0\r\n  # mid\r\n0 1",
    b"1000000000000 1\n0 1\n",
    b"4 5\n0 1\n0 1\n1 2\n2 3\n0 2\n",
    # 2m = 3n with degrees 4, 3, 3, 2: the degree-4 vertex last, then first.
    b"4 6\n3 0\n3 1\n3 2\n3 0\n0 1\n1 2\n",
    b"4 6\n0 3\n0 1\n0 2\n0 3\n3 1\n1 2\n",
    b"6 9\n0 1\n0 2\n0 3\n1 4\n1 5\n2 4\n2 5\n3 4\n3 5\n",
    # Two K4s, then two prisms: cubic and disconnected.
    b"8 12\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n",
    b"12 18\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n0 3\n1 4\n2 5\n"
    b"6 7\n6 8\n7 8\n9 10\n9 11\n10 11\n6 9\n7 10\n8 11\n",
)
# faulty's bad edge lines; "{n}" is the vertex count of the text they go in.
FAULTY_LINES = ("0", "0 x", "0 1 # tail", "0 {n}", "0 -1", "1 1")
OVERFLOW = (
    b"9223372036854775808 1\n0 1\n",
    b"9223372036854775808 0\n",
    b"18446744073709551616 3\n0 1\n0 1\n0 1\n",
    # The line's fault and the line count are named before the size.
    b"9223372036854775808 1\n0 x\n",
    b"9223372036854775808 5\n",
)


def corpus_recipes() -> list[BlockRecipe]:
    """The corpus: every realizable (k, t, p) with k, p in 0..3, t in
    {0, 2, 4} and n <= 16, eight seeds each."""
    return [
        BlockRecipe(k, t, p, seed)
        for k, t, p in product(range(4), (0, 2, 4), range(4))
        if 0 < 4 * k + 3 * t + 2 * p <= 16 and (k, t, p) != (1, 0, 0)
        for seed in range(8)
    ]


def shuffled_text(g, rng: random.Random) -> str:
    """g relabelled by a random permutation, its edge lines in a random
    order and each line's endpoints in a random orientation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v]) for u, v in g.edge_list()]
    rng.shuffle(edges)
    return f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def later_faults(g) -> list[bytes]:
    """g's text with its last edge line replaced by each of FAULTY_LINES."""
    text = format_graph(g)
    head = text[: text.rindex("\n", 0, -1) + 1]
    return [(head + line.format(n=g.n) + "\n").encode() for line in FAULTY_LINES]


def groups() -> dict[str, list[bytes]]:
    """Each input group's graph texts."""
    rng = random.Random(SEED)
    fixtures = [g for _, g in curated_suite()]
    corpus = list(map(generate, corpus_recipes()))
    ring = ring_of_diamonds(2001)
    return {
        "fixtures": [format_graph(g).encode() for g in fixtures],
        "fixtures-shuffled": [shuffled_text(g, rng).encode() for g in fixtures],
        "corpus": [format_graph(g).encode() for g in corpus],
        "corpus-shuffled": [shuffled_text(g, rng).encode() for g in corpus],
        "rings": [format_graph(ring_of_diamonds(3)).encode(), format_graph(ring).encode()],
        "faulty": list(FAULTY),
        "faulty-later": later_faults(ring),
        "overflow": list(OVERFLOW),
    }


def large_groups() -> dict[str, list[bytes]]:
    """The n ~ 10^5 group's graph texts."""
    from bench_stages import SHAPES, shape_text  # a script in this one's directory

    return {"stages-1e5": [shape_text(shape, 100_000, parity).encode() for shape in SHAPES for parity in (0, 1)]}


class Runner:
    """Runs CLI commands in process, each on its own stdin, and returns
    what they wrote."""

    def __init__(self, tmp: str):
        self.parser = _build_parser()
        self.tmp = tmp

    def __call__(self, argv: list[str], stdin: bytes = b"") -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(self.parser.parse_args(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue().replace(self.tmp, "<tmp>")

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def half_coloring(text: bytes) -> str:
    """The first half of the vertices black, as a bisection JSON, for a
    text whose header reads n; the empty coloring otherwise."""
    try:
        n = int(text.split()[0])
    except (ValueError, IndexError):
        n = 0
    n = n if 0 < n <= 10**6 else 0
    return json.dumps({"black": list(range(n // 2)), "white": list(range(n // 2, n))})


def digest(runs: list[tuple[int, str, str]]) -> str:
    """The SHA-256 of the exit codes and outputs of runs, in order."""
    h = hashlib.sha256()
    for code, out, err in runs:
        h.update(f"{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
    return h.hexdigest()


def digests(large: bool = False) -> list[tuple[str, str, str]]:
    """(command and format, input group, SHA-256) for every pair, in a
    fixed order: the small groups and gen, or else the n ~ 10^5 group."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        cli = Runner(tmp)
        for group, texts in (large_groups() if large else groups()).items():
            # bisect's JSON runs first, as verify reads its documents.
            bisected = [cli(["bisect", "-", "--format", "json"], text) for text in texts]
            colorings = []
            for i, (text, (code, out, _)) in enumerate(zip(texts, bisected)):
                docs = ([out] if code == 0 else []) + [half_coloring(text)]
                colorings.append([cli.file(f"{i}-{j}.json", doc) for j, doc in enumerate(docs)])
            for command, formats in GRAPH_COMMANDS:
                for fmt in formats:
                    fmt_args = ["--format", fmt] if fmt else []
                    if (command, fmt) == ("bisect", "json"):
                        runs = bisected
                    elif command == "verify":
                        runs = [
                            cli([command, "-", path, *fmt_args], text)
                            for text, paths in zip(texts, colorings)
                            for path in paths
                        ]
                    else:
                        runs = [cli([command, "-", *fmt_args], text) for text in texts]
                    rows.append((command + ("-" + fmt if fmt else ""), group, digest(runs)))
        if large:
            return rows
        gen = [["gen", str(r.k), str(r.t), str(r.p), "--seed", str(r.seed)] for r in corpus_recipes()]
        for fmt in ("text", "dot"):
            rows.append((f"gen-{fmt}", "corpus", digest([cli([*argv, "--format", fmt]) for argv in gen])))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true", help="digest the n ~ 10^5 group instead")
    args = parser.parse_args(argv or [])
    for name, group, digest in digests(args.large):
        print(f"{name:12} {group:18} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
