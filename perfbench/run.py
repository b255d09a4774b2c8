#!/usr/bin/env python3
"""Layered benchmark for cubisect.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's inputs from the seed alone and writes them
under .perfbench-work/; it runs SETUP_REPEATS times and `setup_s` is the
median. A fresh child process (loop.py) then calls `cubisect.cli.main` on
them in a closed loop with one caller, each call under a per-operation
deadline. Afterwards every output is checked by check.py, which shares no
code with cubisect. The last line of stdout is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics from a traced run
(--trace 1). Workloads are listed in BENCHMARK.json and built in
workloads.py.

Times of operations and spans are given in reference-loop units (`ref`):
seconds divided by the seconds per loop of loop.reference_loop, timed on
both sides of the operation. On a shared host whose speed drifts, this ratio
holds still where seconds do not; the traced run also reports wall-clock
figures (`wall.*`) and the reference loop's own time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 160

# Per-layer metrics from the traced run: inclusive span time or span count
# per operation, summed over the named spans ("<module>.<function>").
SPAN_TIME = {
    "multigraph.parse_s": ["multigraph.parse_graph"],
    "multigraph.validate_s": ["multigraph.validate"],
    "structure.find_blocks_s": ["structure.find_blocks"],
    "construct.search_s": ["construct.desired_bisection_csp"],
    "construct.reduce_lift_s": ["construct.reduce_diamond", "construct.lift"],
    "bisection.is_desired_s": ["bisection.is_desired"],
    "bisection.is_2bisection_s": ["bisection.is_2bisection"],
    "bisection.mono_stats_s": ["bisection.mono_stats"],
    "bisection.json_s": ["bisection.bisection_to_json", "bisection.bisection_from_json"],
}
SPAN_CALLS = {
    "cli.calls": ["cli"],
    "multigraph.validate_calls": ["multigraph.validate"],
    "structure.find_blocks_calls": ["structure.find_blocks"],
}
SPAN_SELF = {"cli.self_s": "cli", "construct.self_s": "construct.min_bisection"}
LAYERS = ("cli", "multigraph", "structure", "construct", "bisection")


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def run_setup(workload: str, seed: int, inputs: str):
    """Set up SETUP_REPEATS times from scratch; keep the last inputs."""
    import workloads

    times, gen_times = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        ops, gen_s = workloads.setup(workload, seed, inputs)
        times.append(time.perf_counter() - t0)
        gen_times.append(gen_s)
    return ops, statistics.median(times), statistics.median(gen_times)


def check_outputs(ops: list[dict], records: list[dict]) -> None:
    """Set `problems` on every record whose command reported success."""
    import check

    graphs, colorings = {}, {}

    def graph(path):
        if path not in graphs:
            graphs[path] = check.read_graph(path)
        return graphs[path]

    for rec in records:
        rec["problems"] = []
        if rec["kind"] is not None:
            continue
        op = ops[rec["op"]]
        inst = op["instance"]
        try:
            with open(rec["out"], encoding="utf-8") as fh:
                out = json.load(fh)
        except (OSError, ValueError) as exc:
            rec["problems"] = [f"unreadable output: {exc}"]
            continue
        if op["cmd"] == "bisect":
            rec["problems"] = check.check_bisect(graph(op["args"][0]), inst, out)
        elif op["cmd"] == "partition":
            rec["problems"] = check.check_partition(graph(op["args"][0]), inst, out)
        elif op["cmd"] == "check":
            rec["problems"] = check.check_check(out)
        elif op["cmd"] == "verify":
            path = op["args"][1]
            if path not in colorings:
                with open(path, encoding="utf-8") as fh:
                    colorings[path] = set(json.load(fh)["black"])
            g = graph(op["args"][0])
            rec["problems"] = check.check_verify(g, colorings[path], out)
            if not inst["swapped"]:
                # The stored ring coloring must itself be a minimum 2-bisection.
                rc = check.recount(g, colorings[path])
                if not rc.is_2bisection or rc.epsilon != check.closed_form(g.n, inst["k"], inst["p"]):
                    rec["problems"].append("stored ring coloring is not a minimum 2-bisection")
        os.remove(rec["out"])


def failed(rec: dict) -> bool:
    return rec["kind"] is not None or bool(rec["problems"])


def percentile(values: list, q: float):
    return values[max(0, math.ceil(q * len(values)) - 1)]


def pass_metrics(ops, records, unit) -> tuple[float, float, float]:
    """Solved vertices per unit of time spent, and latency p50 and p95, of
    one pass, with times divided by unit(record). A failed operation misses
    every latency limit: it sorts after every success and enters at its
    latency, which the loop makes at least its deadline."""
    ordered = [latency for _, latency in sorted((failed(r), r["latency"] / unit(r)) for r in records)]
    solved = sum(ops[r["op"]]["instance"]["n"] for r in records if not failed(r))
    return solved / sum(ordered), percentile(ordered, 0.50), percentile(ordered, 0.95)


def latency_metrics(ops, records, unit) -> tuple[float, ...]:
    """pass_metrics of every whole pass over `ops`, each the median over the
    run's passes. Each pass is one sample of the same distribution, so the
    result does not drift with the number of passes a run has time for."""
    size = len(ops)
    passes = [records[i : i + size] for i in range(0, len(records), size)]
    whole = [p for p in passes if len(p) == size] or passes[:1]
    return tuple(statistics.median(col) for col in zip(*(pass_metrics(ops, p, unit) for p in whole)))


def in_refs(rec: dict) -> float:
    return rec["ref"]


def in_seconds(rec: dict) -> float:
    return 1.0


def end_to_end(ops, records, setup_s, rss) -> dict:
    """Latencies are in reference-loop units (see the module docstring)."""
    per_ref, p50, p95 = latency_metrics(ops, records, in_refs)
    rungs = defaultdict(list)
    for r in records:
        rungs[ops[r["op"]]["rung"]].append(not failed(r))
    return {
        "vertices_per_ref": (per_ref, "vertices/ref"),
        "latency_p50_ref": (p50, "ref"),
        "latency_p95_ref": (p95, "ref"),
        "ok_share": (sum(not failed(r) for r in records) / len(records), "ratio"),
        "max_solved_n": (max((rung for rung, oks in rungs.items() if all(oks)), default=0), "vertices"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(ops, result, gen_s) -> dict:
    traced = result["phases"]["traced"]
    plain = result["phases"]["plain"]
    count = len(traced["records"])
    with open(result["spans"], encoding="utf-8") as fh:
        spans = [json.loads(ln) for ln in fh]
    # Span times in reference-loop units of the operation they belong to.
    refs = [r["ref"] for r in traced["records"]]
    total, calls, child = defaultdict(float), defaultdict(int), defaultdict(float)
    for op, name, start, end, parent in spans:
        total[name] += (end - start) / refs[op]
        calls[name] += 1
        if parent >= 0:
            child[parent] += (end - start) / refs[op]
    self_time = defaultdict(float)
    for i, (op, name, start, end, _parent) in enumerate(spans):
        self_time[name] += (end - start) / refs[op] - child[i]
    present = set(result["traced_names"]) | {"cli"}

    metrics = {}
    for metric, names in SPAN_TIME.items():
        if present.intersection(names):
            metrics[metric] = (sum(total[n] for n in names) / count, "ref/op")
    for metric, names in SPAN_CALLS.items():
        if present.intersection(names):
            metrics[metric] = (sum(calls[n] for n in names) / count, "1/op")
    for metric, name in SPAN_SELF.items():
        if name in present:
            metrics[metric] = (self_time[name] / count, "ref/op")
    hits = defaultdict(int)
    for r in traced["records"]:
        if r["kind"] == "deadline":
            hits[r["span"].split(".")[0]] += 1
    for layer in LAYERS:
        metrics[f"{layer}.deadline_hits"] = (hits[layer], "count")
    metrics["generator.generate_s"] = (gen_s, "s")
    plain_refs = sum(r["latency"] / r["ref"] for r in plain["records"])
    traced_refs = sum(r["latency"] / r["ref"] for r in traced["records"])
    metrics["trace.overhead_share"] = ((traced_refs - plain_refs) / plain_refs, "ratio")
    metrics["trace.ops"] = (count, "count")
    # Wall-clock figures of the untraced half, and the reference they are
    # divided by everywhere else.
    per_s, p50, _ = latency_metrics(ops, plain["records"], in_seconds)
    metrics["wall.vertices_per_s"] = (per_s, "vertices/s")
    metrics["wall.latency_p50_ms"] = (1000 * p50, "ms")
    metrics["reference.loop_ms"] = (1000 * statistics.median(r["ref"] for r in plain["records"]), "ms")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cubisect", "__init__.py")):
        print(f"error: no cubisect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops, setup_s, gen_s = run_setup(args.workload, args.seed, os.path.join(work, "inputs"))
    ops_path = os.path.join(work, "ops.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)

    result_path = os.path.join(work, "result.json")
    child = [sys.executable, os.path.join(HERE, "loop.py"), SRC, ops_path, result_path, str(args.seconds), str(args.trace)]
    try:
        proc = subprocess.run(child, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: timed phase ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: timed phase exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    records = [r for phase in result["phases"].values() for r in phase["records"]]
    check_outputs(ops, records)
    failures = [
        {"instance": ops[r["op"]]["instance"], "cmd": ops[r["op"]]["cmd"], "kind": r["kind"] or "checker", "span": r["span"], "problems": r["problems"]}
        for r in records
        if failed(r)
    ]
    if args.trace:
        metrics = per_layer(ops, result, gen_s)
    else:
        run = result["phases"]["run"]
        metrics = end_to_end(ops, run["records"], setup_s, result["peak_rss_mb"])

    env = environment()
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "metrics": metrics, "failures": failures}, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# operations: {len(records)} attempted over {len(records) / len(ops):.3g} passes of {len(ops)}, {len(failures)} failed")
    for f in failures:
        print(f"# failure: {f['cmd']} {json.dumps(f['instance'])} {f['kind']} in {f['span']} {'; '.join(f['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not any(r["problems"] for r in records),
                "attempted": len(records),
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
