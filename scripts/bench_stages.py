#!/usr/bin/env python3
"""Time each stage of `cubisect bisect` on a fixed ladder of instances and
write the numbers to BENCH_stages.json.

Usage: python scripts/bench_stages.py

Each rung holds one instance per shape and per parity of the diamond
count k, built deterministically, so runs compare from commit to commit:

* mix -- a generated instance from a fixed recipe and seed, a quarter of
  the vertices in diamonds and an eighth in digons, in format_graph's
  order;
* shuffled -- the same graph relabelled by a seeded permutation, its edge
  lines shuffled, so that the parser's sort path runs;
* diamond-ring -- a ring of diamonds;
* digon-ring -- a ring of digons (with one diamond for odd k), which
  generate does not build at scale;
* triangle-tree -- a balanced tree of triangles with trumpet leaves, every
  edge between them a bridge (one of them through a diamond for odd k);
* triangles -- a generated instance of triangles alone (and one diamond
  for odd k), where the wiring makes a stray trumpet or two: about n/3
  nodes and every chain empty, the walk's densest input.

The rings have no triangle, so the walk colors them by propagation. The
stages are the ones `min_bisection` and the CLI run, in their order:
parse, find_blocks (the cover and the matching between its blocks, which
checks the class but for connectivity), validate (the class gate's
connectivity test, a search over the blocks along that matching), cover
(the block cover's JSON pieces, what `cubisect partition` writes, drained
into a sink that keeps none), construct (the Euler walk along the
matching), certify (mono_stats and is_2bisection), desired (is_desired on
the constructed coloring, what `cubisect verify` runs beyond certify,
reading the matching too) and serialize (the bisection's JSON pieces, as
`cubisect bisect` writes them, drained the same way).
Each rung also runs `cubisect check`, `cubisect partition` and `cubisect
bisect` as child processes.

Every rung's input is written once, then the whole ladder runs REPEAT
times, in reverse order on alternate rounds, so that a slow spell of the
host spreads over the rungs rather than moving whole rows. Each round
times every stage once and runs every child once. For each stage the file
records the best wall time across rounds and, from one more run under
tracemalloc, the peak of the traced Python heap while the stage runs;
results of earlier stages are live then, as in the CLI. For each child it
records the best wall time and the largest peak resident set (VmHWM,
Linux only; null elsewhere).
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import deque

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if __name__ == "__main__":
    # Run as a script, it times this checkout's package; imported, it
    # leaves sys.path to the importer.
    sys.path.insert(0, SRC)

from cubisect import (  # noqa: E402
    BlockRecipe,
    Multigraph,
    bisection_json_pieces,
    desired_bisection_csp,
    find_blocks,
    format_graph,
    generate,
    is_2bisection,
    is_desired,
    mono_stats,
    parse_graph,
)
from cubisect.construct import cover_is_connected  # noqa: E402

SIZES = (1000, 10_000, 100_000, 480_000)
SEED = 1
# Rounds over the ladder; the best time is kept.
REPEAT = 3
# Shares of the vertices in diamonds and in digons; triangles take the rest.
MIX = (0.25, 0.125)
SHAPES = ("mix", "shuffled", "diamond-ring", "digon-ring", "triangle-tree", "triangles")

# Runs the CLI in a child process and reports the child's own peak RSS.
CHILD = """
import json, sys
from cubisect.cli import main
code = main(sys.argv[1:])
hwm = None
try:
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(int(ln.split()[1]) / 1024 for ln in fh if ln.startswith("VmHWM"))
except (OSError, StopIteration):
    pass
print(json.dumps({"code": code, "vmhwm_mb": hwm}), file=sys.stderr)
"""


def recipe(n: int, parity: int) -> BlockRecipe:
    """About n vertices in the MIX shares, k of the given parity, t even."""
    k = max(1, round(MIX[0] * n / 4))
    k += (k - parity) % 2
    p = round(MIX[1] * n / 2)
    t = (n - 4 * k - 2 * p) // 3
    return BlockRecipe(k, t - t % 2, p, SEED)


def triangles_recipe(n: int, parity: int) -> BlockRecipe:
    """About n vertices in triangles, an even number of them, and k = parity."""
    t = (n - 4 * parity) // 3
    return BlockRecipe(parity, t + t % 2, 0, SEED)


def ring(diamonds: int, digons: int) -> Multigraph:
    """A ring of diamonds, then digons, each outer vertex joined to the next
    block's."""
    edges, ends, v = [], [], 0
    for _ in range(diamonds):
        a, b, c, d = range(v, v + 4)
        edges += [(a, b), (a, c), (b, c), (b, d), (c, d)]
        ends.append((a, d))
        v += 4
    for _ in range(digons):
        edges += [(v, v + 1), (v, v + 1)]
        ends.append((v, v + 1))
        v += 2
    edges += [(out, nxt) for (_, out), (nxt, _) in zip(ends, ends[1:] + ends[:1])]
    return Multigraph(v, edges)


def triangle_tree(n: int, parity: int) -> Multigraph:
    """A heap-shaped tree of an even number of nodes on vertices 3j..3j+2:
    node 0 a trumpet joined to node 1, node j >= 1 a triangle whose two
    free corners join nodes 2j and 2j+1, or a trumpet when it has no
    children. For odd parity a diamond sits on the edge from node 0."""
    nodes = (n - 4 * parity) // 3
    nodes -= nodes % 2
    edges = []
    for j in range(nodes):
        w, x, y = 3 * j, 3 * j + 1, 3 * j + 2
        edges += [(w, x), (w, y), (x, y)]
        if j == 0 or 2 * j >= nodes:
            edges.append((x, y))
        if j >= 2:
            edges.append((3 * (j // 2) + 1 + j % 2, w))
    if parity:
        a, b, c, d = range(3 * nodes, 3 * nodes + 4)
        edges += [(0, a), (a, b), (a, c), (b, c), (b, d), (c, d), (d, 3)]
    else:
        edges.append((0, 3))
    return Multigraph(3 * nodes + 4 * parity, edges)


def shape_text(shape: str, n: int, parity: int) -> str:
    """The graph text of one shape with about n vertices and k of the given
    parity."""
    if shape == "mix":
        return format_graph(generate(recipe(n, parity)))
    if shape == "shuffled":
        g = generate(recipe(n, parity))
        rng = random.Random(SEED)
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edge_list()]
        rng.shuffle(edges)
        return f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    if shape == "diamond-ring":
        count = n // 4
        return format_graph(ring(count + (count - parity) % 2, 0))
    if shape == "digon-ring":
        return format_graph(ring(parity, (n - 4 * parity) // 2))
    if shape == "triangle-tree":
        return format_graph(triangle_tree(n, parity))
    if shape == "triangles":
        return format_graph(generate(triangles_recipe(n, parity)))
    raise ValueError(f"unknown shape {shape!r}")


def drain(pieces) -> None:
    """Write pieces of output into a sink that keeps none of them."""
    deque(pieces, maxlen=0)


def pipeline(text: str):
    """The stages in order, each a (name, function of the previous results)."""
    state = {}

    def parse():
        state["g"] = parse_graph(text)

    def blocks():
        state["part"] = find_blocks(state["g"])

    def check():
        cover_is_connected(state["part"])

    def cover():
        drain(state["part"].json_pieces())

    def construct():
        state["bis"] = desired_bisection_csp(state["g"], state["part"])

    def certify():
        g, bis = state["g"], state["bis"]
        state["stats"] = mono_stats(g, bis)
        is_2bisection(g, bis)

    def desired():
        is_desired(state["g"], state["part"], state["bis"])

    def serialize():
        drain(bisection_json_pieces(state["bis"], state["stats"]))

    return [
        ("parse", parse),
        ("find_blocks", blocks),
        ("validate", check),
        ("cover", cover),
        ("construct", construct),
        ("certify", certify),
        ("desired", desired),
        ("serialize", serialize),
    ]


def time_stages(text: str) -> dict[str, float]:
    """Each stage's wall time in one run of the pipeline."""
    times = {}
    for name, stage in pipeline(text):
        t0 = time.perf_counter()
        stage()
        times[name] = time.perf_counter() - t0
    return times


def peak_stages(text: str) -> dict[str, float]:
    """Each stage's peak traced heap in MB, in one run of the pipeline."""
    peaks = {}
    tracemalloc.start()
    try:
        for name, stage in pipeline(text):
            tracemalloc.reset_peak()
            stage()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return peaks


def run_cli(command: str, path: str, out: str) -> tuple[float, float | None]:
    """The wall time of one `cubisect command path` child and its VmHWM in MB."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, command, path, "--output", out],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    wall = time.perf_counter() - t0
    child = json.loads(proc.stderr.strip().splitlines()[-1])
    if child["code"] != 0:
        raise RuntimeError(f"cubisect {command} {path} exited {child['code']}: {proc.stderr}")
    return wall, child["vmhwm_mb"]


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def main() -> int:
    commands = ("check", "partition", "bisect")
    with tempfile.TemporaryDirectory() as tmp:
        rungs = []
        for size in SIZES:
            for shape in SHAPES:
                for parity in (0, 1):
                    path = os.path.join(tmp, f"{shape}-{size}-{parity}.txt")
                    text = shape_text(shape, size, parity)
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    rungs.append((shape, size, int(text.split(None, 1)[0]), parity, path))
        times = {path: {} for *_, path in rungs}
        runs = {path: {cmd: [] for cmd in commands} for *_, path in rungs}
        for i in range(REPEAT):
            for *_, path in rungs if i % 2 == 0 else rungs[::-1]:
                for name, s in time_stages(read(path)).items():
                    times[path][name] = min(times[path].get(name, float("inf")), s)
                for cmd in commands:
                    runs[path][cmd].append(run_cli(cmd, path, os.path.join(tmp, "out")))
            print(f"round {i + 1} of {REPEAT} done", flush=True)
        rows = []
        for shape, size, n, parity, path in rungs:
            peaks = peak_stages(read(path))
            cli = {}
            for cmd, results in runs[path].items():
                walls, hwms = zip(*results)
                cli[cmd] = {"s": round(min(walls), 4), "vmhwm_mb": None if None in hwms else round(max(hwms), 1)}
            row = {"shape": shape, "n": n}
            if shape in ("mix", "shuffled", "triangles"):
                r = triangles_recipe(size, parity) if shape == "triangles" else recipe(size, parity)
                row["recipe"] = [r.k, r.t, r.p, r.seed]
            row |= {
                "parity": "odd" if parity else "even",
                "stages": {name: {"s": round(s, 5), "peak_mb": round(peaks[name], 2)} for name, s in times[path].items()},
                "cli": cli,
            }
            rows.append(row)
            stages = " ".join(f"{k}={v['s']:.3f}s/{v['peak_mb']:.1f}MB" for k, v in row["stages"].items())
            cli_text = " ".join(f"{k}={v['s']:.2f}s/{v['vmhwm_mb']}MB" for k, v in row["cli"].items())
            print(f"{shape} n={n} {row['parity']}: {stages} | cli {cli_text}", flush=True)

    environment = {"python": platform.python_version(), "cpus": os.cpu_count(), "cpu": cpu_model()}
    with open(os.path.join(ROOT, "BENCH_stages.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "repeat": REPEAT, "instances": rows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
