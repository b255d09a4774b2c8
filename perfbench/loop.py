"""Timed phase of the benchmark, run in a fresh process so that its peak RSS
covers one workload and nothing else.

Usage: python3 perfbench/loop.py SRC OPS_JSON RESULT_JSON SECONDS TRACE

One caller runs `cubisect.cli.main` on the operations in a closed loop,
in whole passes over the list that end within SECONDS. Each call runs under
a deadline enforced in this process with `signal.setitimer`; the alarm
raises a BaseException subclass, so no handler in `cli.run` can swallow it.
With TRACE=1 the operations of an untraced first half are replayed with
spans recorded around the package's public functions, and the spans are
written next to RESULT_JSON at the end.

Between every two operations the loop times a fixed pure-Python reference
loop. On a virtual machine whose host shares its cores with other tenants,
a core's speed can move by half over tens of seconds; an operation's time
divided by the reference time measured around it stays put. Deadlines are
given in reference-loop units for the same reason, so an operation meets or
misses its deadline whatever the host's load.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import resource
import signal
import sys
import time

# Functions that get a span, by the name through which cubisect.cli or
# cubisect.construct calls them. A name a module no longer has is skipped,
# so deleting a function only loses its metric.
TRACED_NAMES = (
    "parse_graph",
    "validate",
    "find_blocks",
    "min_bisection",
    "desired_bisection_csp",
    "reduce_diamond",
    "lift",
    "is_desired",
    "is_2bisection",
    "mono_stats",
    "bisection_to_json",
    "bisection_from_json",
)
TRACED_MODULES = ("cubisect.cli", "cubisect.construct")
ROOT_SPAN = "cli"
# Keeps a run inside the benchmark's time limit even when every operation
# runs into its deadline.
PHASE_CAP_S = 60
# Reference time spent on each side of an operation, as a share of the
# longer of the two operations the sample sits between; at least one loop.
REF_SHARE = 0.05


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; carries the innermost span open when it fired."""

    def __init__(self, span: str):
        super().__init__(span)
        self.span = span


def span_name(fn) -> str:
    """`<layer>.<function>`, the layer being the defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Spans:
    """In-memory span recorder: [op, name, start, end, parent index]."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_start = 0

    def start_op(self, op: int) -> None:
        self.op, self.op_start = op, len(self.records)
        self.open(ROOT_SPAN)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.records.append([self.op, name, time.perf_counter(), None, parent])
        self.stack.append(len(self.records) - 1)
        return len(self.records) - 1

    def close(self, index: int) -> None:
        self.records[index][3] = time.perf_counter()
        self.stack.pop()

    def end_op(self) -> None:
        """Close the root span and any span an alarm left open."""
        now = time.perf_counter()
        for rec in self.records[self.op_start :]:
            if rec[3] is None:
                rec[3] = now
        self.stack.clear()

    def wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def traced_functions():
    """(module, name, function) for every traced name still bound."""
    for module_name in TRACED_MODULES:
        module = importlib.import_module(module_name)
        for name in TRACED_NAMES:
            fn = getattr(module, name, None)
            if callable(fn):
                yield module, name, fn


def install(spans: Spans) -> list[tuple[object, str, object]]:
    """Wrap every traced name at its binding; return what to restore."""
    undo = list(traced_functions())
    for module, name, fn in undo:
        setattr(module, name, spans.wrap(fn))
    return undo


def innermost_span(frame, traced_codes: dict) -> str:
    """Name of the innermost traced function on the interrupted stack: in a
    traced run, exactly the innermost open span."""
    while frame is not None:
        name = traced_codes.get(frame.f_code)
        if name is not None:
            return name
        frame = frame.f_back
    return ROOT_SPAN


def innermost_in_traceback(tb, traced_codes: dict) -> str:
    found = ROOT_SPAN
    while tb is not None:
        found = traced_codes.get(tb.tb_frame.f_code, found)
        tb = tb.tb_next
    return found


def peak_rss_mb() -> float:
    """High-water RSS of this process image. Linux carries the parent's peak
    over fork and exec into ru_maxrss, so read the image's own VmHWM."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_loop() -> int:
    """Fixed pure-Python work of the kind cubisect does: dict, list and set
    traffic in small loops, about 0.3-0.5 ms on a shared Xeon core. Its data
    stays in the core's own caches, so it times the core, not whatever the
    operation before it left in the shared ones."""
    acc = 0
    for _ in range(20):
        adj: dict[int, list[int]] = {}
        for v in range(64):
            adj.setdefault(v % 16, []).append(v)
        seen = set()
        for key, vs in adj.items():
            for v in vs:
                if v not in seen:
                    seen.add(v)
                    acc += len(vs) ^ key
        acc += sum(sorted(seen)[:8])
    return acc


def reference_seconds(budget: float) -> float:
    """Mean seconds per reference loop, over at least one loop and about
    `budget` seconds, with the collector off so that garbage the program
    left behind is not charged to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        loops = 0
        t0 = time.perf_counter()
        while True:
            reference_loop()
            loops += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                return elapsed / loops
    finally:
        if enabled:
            gc.enable()


def arm_deadlines(traced_codes: dict) -> None:
    """Make SIGALRM raise DeadlineExceeded naming the innermost traced
    function it interrupted."""

    def on_alarm(signum, frame):
        raise DeadlineExceeded(innermost_span(frame, traced_codes))

    signal.signal(signal.SIGALRM, on_alarm)


def run_op(main, op: dict, out: str, traced_codes: dict, deadline: float) -> tuple[float, str | None, str | None]:
    """Run one command under a deadline of `deadline` seconds; return
    (latency, failure kind, innermost span at the failure). A non-zero exit
    is a failure."""
    argv = [op["cmd"], *op["args"], "--output", out]
    kind = span = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            kind, span = f"exit {code}", ROOT_SPAN
    except DeadlineExceeded as exc:
        kind, span = "deadline", exc.span
    except SystemExit as exc:
        kind, span = f"exit {exc.code}", ROOT_SPAN
    except Exception as exc:  # every escape from cli.main is a recorded failure
        kind, span = type(exc).__name__, innermost_in_traceback(exc.__traceback__, traced_codes)
    latency = time.perf_counter() - t0
    if kind is None and latency > deadline:
        kind, span = "deadline", ROOT_SPAN
    return latency, kind, span


def run_phase(main, ops, phase, outdir, traced_codes, seconds=None, count=None, spans=None):
    """Closed loop with one caller over whole passes of `ops`: another pass
    starts while the last one's duration still fits in `seconds` (there is
    always one), or, when `count` is given, exactly `count` operations. A
    phase that runs past PHASE_CAP_S stops mid-pass.

    A reference sample sits between every two operations. A record's
    `deadline` is `op["deadline"]` loops of the sample before it, in seconds,
    and its `ref` is the mean seconds per loop of the samples on its two
    sides, or of the one before it if the operation failed."""
    records = []
    last = [0.0] * len(ops)  # each operation's latest latency
    ref = reference_seconds(0.0)
    t0 = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            if len(records) == count or time.perf_counter() - t0 > PHASE_CAP_S:
                break
            out = os.path.join(outdir, f"{phase}-{len(records)}.json")
            if spans is not None:
                spans.start_op(len(records))
            deadline = op["deadline"] * ref
            latency, kind, span = run_op(main, op, out, traced_codes, deadline)
            if spans is not None:
                spans.end_op()
            if kind is not None and latency < deadline:
                # A failure holds its caller until the deadline passes, as for
                # a client that learns of a failure by timing out, so every
                # failure costs its deadline however early the program gave up.
                t1 = time.perf_counter()
                time.sleep(deadline - latency)
                latency += time.perf_counter() - t1
            last[i] = latency
            after = reference_seconds(REF_SHARE * max(latency, last[(i + 1) % len(ops)]))
            # A failure took its deadline, set from the sample before it, so
            # it is measured in that sample's loops.
            unit = ref if kind is not None else (ref + after) / 2
            records.append(
                {"op": i, "out": out, "latency": latency, "deadline": deadline, "ref": unit, "kind": kind, "span": span}
            )
            ref = after
        now = time.perf_counter()
        if len(records) == count or now - t0 > PHASE_CAP_S:
            break
        if count is None and (now - t0) + (now - pass_start) > seconds:
            break
    return records


def main() -> int:
    src, ops_path, result_path, seconds, trace = sys.argv[1:6]
    sys.path.insert(0, src)
    import cubisect.cli

    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    outdir = os.path.join(os.path.dirname(result_path), "out")
    os.makedirs(outdir, exist_ok=True)
    seconds = float(seconds)

    traced_codes = {fn.__code__: span_name(fn) for _, _, fn in traced_functions()}
    arm_deadlines(traced_codes)
    result = {}
    if trace == "0":
        records = run_phase(cubisect.cli.main, ops, "run", outdir, traced_codes, seconds=seconds)
        result["phases"] = {"run": {"records": records}}
    else:
        plain = run_phase(cubisect.cli.main, ops, "plain", outdir, traced_codes, seconds=seconds / 2)
        spans = Spans()
        undo = install(spans)
        try:
            traced = run_phase(cubisect.cli.main, ops, "traced", outdir, traced_codes, count=len(plain), spans=spans)
        finally:
            for module, name, fn in undo:
                setattr(module, name, fn)
        spans_path = os.path.join(os.path.dirname(result_path), "spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for rec in spans.records:
                fh.write(json.dumps(rec) + "\n")
        result["phases"] = {
            "plain": {"records": plain},
            "traced": {"records": traced},
        }
        result["spans"] = spans_path
        result["traced_names"] = sorted(set(traced_codes.values()))
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
