"""No input escapes the documented exit codes.

Each example takes the text of a curated fixture, or the document that
`cubisect bisect` writes for one, and applies one to four edits: at some
byte, cut up to two bytes and insert a token from a fixed alphabet of
troublesome ones (digits, a 20-digit int, -1, #, CR, LF, a BOM, NUL,
\\x0b, \\x1c, Unicode digits and spaces, _, 0x1). Every command then runs
on it in every format, through cli.main in process, each call under an
alarm. Exit 0, 1 or 2 is expected, with no "internal error" on stderr
(exit 3 is kept for bugs) and empty stdout unless the exit is 0, but for
the report that `check` prints before it exits 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubisect import curated_suite, format_graph
from cubisect.cli import main

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")

TOKENS = (
    "0", "1", "7", "12345678901234567890", "-1", "#", "\r", "\n", "\ufeff", "\x00",
    "\x0b", "\x1c", "\u0663", "\uff17", "\u2003", "\xa0", "_", "0x1", " ",
)  # fmt: skip
# Seconds one call may take; the fixtures run in milliseconds.
ALARM_S = 10
FUZZ = settings(max_examples=120, derandomize=True, database=None, deadline=None)

edits = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.integers(0, 2), st.sampled_from(TOKENS)),
    min_size=1,
    max_size=4,
)


def _edit(data: bytes, changes) -> bytes:
    for at, cut, token in changes:
        at %= len(data) + 1
        data = data[:at] + token.encode() + data[at + cut :]
    return data


def _header_n(data: bytes) -> int | None:
    """The vertex count the parser reads off data's header, if any."""
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
        line = next(ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#"))
        return int(line.split()[0])
    except (UnicodeDecodeError, StopIteration, ValueError):
        return None


class _Hang(BaseException):
    """Raised by the alarm; not an Exception, so cli.run lets it through."""


def _alarm(signum, frame):
    raise _Hang(f"a call ran past {ALARM_S} s")


def _run(argv: list[str], stdin: bytes = b"") -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `cubisect argv` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, saved_handler = sys.stdin, signal.signal(signal.SIGALRM, _alarm)
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved_handler)
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def _bisected(text: bytes) -> bytes | None:
    code, out, _ = _run(["bisect", "-"], text)
    return out.encode() if code == 0 else None


GRAPHS = [format_graph(g).encode() for _, g in curated_suite()]
# The document bisect writes for each in-class fixture, by its text.
DOCUMENTS = {text: doc for text in GRAPHS if (doc := _bisected(text))}


def _assert_clean(argv, stdin=b""):
    code, out, err = _run(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin, code, err)
    if argv[0] == "check" and code == 2 and out:
        # check reports an out-of-class graph on stdout, then exits 2.
        assert out.endswith("in-class: no\n") or json.loads(out)["is_cubic"] in (True, False), (argv, stdin, out)
    else:
        assert code == 0 or out == "", (argv, stdin, code, out)
    assert "internal error" not in err, (argv, stdin, err)


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(st.sampled_from(GRAPHS), edits)
def test_edited_graph_texts_exit_cleanly(tmp_dir, graph, changes):
    text = _edit(graph, changes)
    # Edits can split the 20-digit int into a header of any size. From
    # about 10**13 vertices no label list can be allocated, which exits 2.
    # Below that, a header whose m is more than the text can hold builds no
    # labels, but one whose m the text could hold fills n labels as it
    # reads the edge lines, whatever their count turns out to be: up to
    # gigabytes of memory, more than a test should take.
    n = _header_n(text)
    assume(n is None or n <= 10**6 or n >= 10**13)
    doc = tmp_dir / "doc.json"
    doc.write_bytes(DOCUMENTS.get(graph, b'{"black": [0], "white": [1]}'))
    for argv in (
        ["check", "-"],
        ["check", "-", "--format", "json"],
        ["partition", "-"],
        ["bisect", "-"],
        ["bisect", "-", "--format", "dot"],
        ["oracle", "-"],
        ["verify", "-", str(doc)],
        ["verify", "-", str(doc), "--format", "json"],
    ):
        _assert_clean(argv, text)


@FUZZ
@given(st.sampled_from(sorted(DOCUMENTS.items())), edits)
def test_edited_bisect_documents_exit_cleanly(tmp_dir, graph_and_doc, changes):
    graph, doc = graph_and_doc
    path = tmp_dir / "doc.json"
    path.write_bytes(_edit(doc, changes))
    for fmt in ("text", "json"):
        _assert_clean(["verify", "-", str(path), "--format", fmt], graph)


@settings(FUZZ, max_examples=30)
@given(st.lists(st.integers(-2, 9), min_size=3, max_size=3), st.integers(-1, 3))
def test_gen_exits_cleanly(counts, seed):
    for fmt in ("text", "dot"):
        _assert_clean(["gen", *map(str, counts), "--seed", str(seed), "--format", fmt])
