"""Tests for the timed loop's failure handling and the end-to-end metrics.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import signal
import sys
import time

import pytest

from loop import Spans, arm_deadlines, reference_seconds, run_op, run_phase
from run import end_to_end


@pytest.fixture
def alarm():
    previous = signal.getsignal(signal.SIGALRM)
    yield arm_deadlines
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def spin():
    while True:
        pass


def spin_main(argv):
    spin()


def recurse(depth):
    return recurse(depth + 1)


def recurse_main(argv):
    recurse(0)


OP = {"cmd": "bisect", "args": []}
DEADLINE_S = 0.05
CODES = {spin.__code__: "fake.spin", recurse.__code__: "fake.recurse", spin_main.__code__: "fake.main"}


def test_deadline_names_the_innermost_traced_function(alarm):
    alarm(CODES)
    latency, kind, span = run_op(spin_main, OP, "unused.json", CODES, DEADLINE_S)
    assert (kind, span) == ("deadline", "fake.spin")
    assert latency >= DEADLINE_S


def test_recursion_error_is_a_failure_in_the_innermost_traced_function(alarm):
    alarm(CODES)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        _, kind, span = run_op(recurse_main, OP, "unused.json", CODES, DEADLINE_S)
    finally:
        sys.setrecursionlimit(limit)
    assert (kind, span) == ("RecursionError", "fake.recurse")


def test_nonzero_exit_is_a_failure(alarm):
    alarm(CODES)
    assert run_op(lambda argv: 3, OP, "unused.json", CODES, DEADLINE_S)[1:] == ("exit 3", "cli")
    assert run_op(lambda argv: 0, OP, "unused.json", CODES, DEADLINE_S)[1:] == (None, None)


def test_spans_nest_and_close_what_an_alarm_left_open():
    spans = Spans()
    inner = spans.wrap(lambda: None)
    outer = spans.wrap(lambda: inner())
    spans.start_op(0)
    outer()
    spans.open("left.open")
    spans.end_op()
    # root, outer, inner, and the span an alarm would have left open
    assert [r[4] for r in spans.records] == [-1, 0, 1, 0]
    assert all(r[3] is not None and r[3] >= r[2] for r in spans.records)
    assert spans.stack == []


def test_median_over_passes_in_reference_units_and_failures_sort_last():
    ops = [
        {"rung": 10, "instance": {"n": 10}},
        {"rung": 20, "instance": {"n": 20}},
    ]
    records = [
        {"op": 0, "latency": 0.2, "deadline": 0.85, "ref": 0.01, "kind": None, "problems": []},
        {"op": 1, "latency": 0.9, "deadline": 0.85, "ref": 0.01, "kind": "deadline", "problems": []},
        {"op": 0, "latency": 0.1, "deadline": 0.85, "ref": 0.01, "kind": None, "problems": []},
        {"op": 1, "latency": 1.0, "deadline": 0.85, "ref": 0.01, "kind": "deadline", "problems": []},
        # A pass at half the speed: in reference loops, between the other two.
        {"op": 0, "latency": 0.3, "deadline": 1.7, "ref": 0.02, "kind": None, "problems": []},
        {"op": 1, "latency": 1.9, "deadline": 1.7, "ref": 0.02, "kind": "deadline", "problems": []},
        # A pass cut short counts for ok_share only.
        {"op": 0, "latency": 9.0, "deadline": 0.85, "ref": 0.01, "kind": None, "problems": []},
    ]
    m = end_to_end(ops, records, setup_s=0.5, rss=20.0)
    assert m["latency_p50_ref"][0] == pytest.approx(15.0)
    assert m["latency_p95_ref"][0] == pytest.approx(95.0)
    assert m["vertices_per_ref"][0] == pytest.approx(10 / (15.0 + 95.0))
    assert m["ok_share"][0] == pytest.approx(4 / 7)
    assert m["max_solved_n"][0] == 10


def test_checker_rejection_counts_as_failure():
    ops = [{"rung": 10, "instance": {"n": 10}}]
    records = [{"op": 0, "latency": 0.1, "deadline": 0.85, "ref": 0.01, "kind": None, "problems": ["wrong epsilon"]}]
    m = end_to_end(ops, records, setup_s=0.5, rss=20.0)
    assert m["ok_share"][0] == 0.0
    assert m["max_solved_n"][0] == 0


def test_reference_loop_time_is_measured_over_its_budget():
    assert reference_seconds(0.0) > 0
    t0 = time.perf_counter()
    reference_seconds(0.02)
    assert time.perf_counter() - t0 >= 0.02


def test_phase_sets_deadlines_in_reference_loops(alarm, tmp_path):
    alarm(CODES)
    ops = [{"cmd": "bisect", "args": [], "deadline": 20}]
    records = run_phase(spin_main, ops, "t", str(tmp_path), CODES, count=1)
    (rec,) = records
    assert rec["kind"] == "deadline"
    # 20 loops of the sample before it; the mean with the sample after
    # it is the same up to the machine's jitter.
    assert 5 < rec["latency"] / rec["ref"] < 80


def test_phase_charges_an_early_failure_its_deadline(alarm, tmp_path):
    alarm(CODES)
    ops = [{"cmd": "bisect", "args": [], "deadline": 20}]
    (rec,) = run_phase(lambda argv: 3, ops, "t", str(tmp_path), CODES, count=1)
    assert rec["kind"] == "exit 3"
    assert rec["latency"] >= rec["deadline"]
