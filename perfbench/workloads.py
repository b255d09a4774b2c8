"""The four workloads: inputs generated from the seed and written as files,
plus the operations one pass of the closed loop runs over them.

An operation is a dict the loop and the checker both read: `cmd` and `args`
form the `cubisect` command line (the loop adds `--output`), `deadline` is
its limit in reference loops (loop.reference_loop, 0.3-0.5 ms on a shared
Xeon core, so 2000 loops are 0.6-1 s), `rung` groups operations for
`max_solved_n`, and `instance` names the input so a failure can be
reproduced.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time

from cubisect.generator import BlockRecipe, generate, ring_of_diamonds
from cubisect.multigraph import format_graph

from check import ring_coloring

# Share of the vertices in diamonds and in digons (triangles take the rest)
# for the large instances of bisect-ladder and partition-large.
BLOCK_MIX = (0.40, 0.15)

# bisect-ladder: rungs from 10^2 to 10^5 vertices with ratio sqrt(10), one
# instance per parity of k on each rung, and fixed recipe seeds: the ladder
# compares the same instances from run to run, whatever --seed is.
LADDER_RUNGS = (100, 316, 1000, 3162, 10000, 31623, 100000)

# A linear-time bisect on this input format should need well under 0.16
# reference loops (50-80 us) per vertex; the constant covers interpreter and
# file overhead on small n.
LINEAR_DEADLINE = (2000, 0.16)

SMALL_WIRINGS = 6  # per recipe: 248 recipes, so 1488 instances
SMALL_DEADLINE = 2000
LARGE_N = 100_000
RING_COUNT = 4
RING_DIAMONDS = (250, 1250)  # n from 10^3 to 5*10^3
RING_DEADLINE = 60_000  # generous: verify is quadratic in n today
# Rings whose coloring gets a swapped pair: one of each parity of k. Fixed
# positions, because the reject path costs more than the accept path, and
# a seed-drawn choice would move latency_p50_ref from seed to seed.
RING_SWAPPED = (1, 2)


def _linear_deadline(n: int) -> float:
    base, per_vertex = LINEAR_DEADLINE
    return base + per_vertex * n


def _recipe_near(n: int, parity: int, mix: tuple[float, float], seed: int) -> BlockRecipe:
    """Recipe with about n vertices, shares `mix` of them in diamonds and in
    digons, k of the given parity and t even (the generator needs an even
    stub count)."""
    k = max(1, round(mix[0] * n / 4))
    if k % 2 != parity:
        k += 1
    p = round(mix[1] * n / 2)
    t = (n - 4 * k - 2 * p) // 3
    return BlockRecipe(k, t - t % 2, p, seed)


class _Writer:
    """Generates, formats and writes inputs, timing the generator calls."""

    def __init__(self, directory: str):
        self.directory = directory
        self.gen_s = 0.0
        os.makedirs(directory, exist_ok=True)

    def generate(self, make, *args):
        t0 = time.perf_counter()
        g = make(*args)
        self.gen_s += time.perf_counter() - t0
        return g

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def recipe_instance(self, recipe: BlockRecipe) -> tuple[str, dict]:
        g = self.generate(generate, recipe)
        path = self.write(f"g{recipe.k}-{recipe.t}-{recipe.p}-{recipe.seed}.txt", format_graph(g))
        instance = {
            "recipe": [recipe.k, recipe.t, recipe.p, recipe.seed],
            "n": g.n,
            "k": recipe.k,
            "t": recipe.t,
            "p": recipe.p,
            "parity": "odd" if recipe.k % 2 else "even",
        }
        return path, instance


def _bisect_op(path: str, instance: dict, deadline: float, rung: int) -> dict:
    return {"cmd": "bisect", "args": [path], "deadline": deadline, "rung": rung, "instance": instance}


def _small(w: _Writer, rng: random.Random) -> list[dict]:
    """Every recipe with k, p <= 6, even t <= 10 and 8 <= n <= 48, each wired
    SMALL_WIRINGS ways: the seed picks wirings, not the recipe mix, so the
    latency tail depends less on the seed."""
    ops = []
    for k, t, p in itertools.product(range(7), range(0, 12, 2), range(7)):
        if not 8 <= 4 * k + 3 * t + 2 * p <= 48:
            continue
        for _ in range(SMALL_WIRINGS):
            path, inst = w.recipe_instance(BlockRecipe(k, t, p, rng.randrange(2**31)))
            ops.append(_bisect_op(path, inst, SMALL_DEADLINE, inst["n"]))
    return ops


def _ladder(w: _Writer, rng: random.Random) -> list[dict]:
    ops = []
    for rung in LADDER_RUNGS:
        for parity in (0, 1):
            path, inst = w.recipe_instance(_recipe_near(rung, parity, BLOCK_MIX, seed=0))
            ops.append(_bisect_op(path, inst, _linear_deadline(inst["n"]), rung))
    return ops


def _large(w: _Writer, rng: random.Random) -> list[dict]:
    ops = []
    for parity in (0, 1):
        recipe = _recipe_near(LARGE_N, parity, BLOCK_MIX, rng.randrange(2**31))
        path, inst = w.recipe_instance(recipe)
        deadline = _linear_deadline(inst["n"])
        for cmd, extra in (("partition", []), ("check", ["--format", "json"])):
            ops.append({"cmd": cmd, "args": [path, *extra], "deadline": deadline, "rung": inst["n"], "instance": inst})
    return ops


def _rings(w: _Writer, rng: random.Random) -> list[dict]:
    lo, hi = RING_DIAMONDS
    ops = []
    for i in range(RING_COUNT):
        count = lo + (hi - lo) * i // (RING_COUNT - 1) + rng.randrange(-8, 9)
        count += (count - i) % 2  # alternate the parity of k
        g = w.generate(ring_of_diamonds, count)
        graph = w.write(f"ring{count}.txt", format_graph(g))
        black = ring_coloring(count)
        if i in RING_SWAPPED:
            # One black/white pair traded: still balanced, no longer the pattern.
            white = sorted(set(range(g.n)) - set(black))
            b, v = rng.randrange(len(black)), rng.choice(white)
            black[b] = v
        white = sorted(set(range(g.n)) - set(black))
        coloring = w.write(f"ring{count}-{i}.json", json.dumps({"black": sorted(black), "white": white}))
        instance = {"ring": count, "n": g.n, "k": count, "t": 0, "p": 0, "parity": "odd" if count % 2 else "even", "swapped": i in RING_SWAPPED}
        ops.append(
            {
                "cmd": "verify",
                "args": [graph, coloring, "--format", "json"],
                "deadline": RING_DEADLINE,
                "rung": g.n,
                "instance": instance,
            }
        )
    return ops


WORKLOADS = {
    "bisect-small": _small,
    "bisect-ladder": _ladder,
    "partition-large": _large,
    "verify-rings": _rings,
}


def setup(workload: str, seed: int, directory: str) -> tuple[list[dict], float]:
    """Write the workload's inputs under `directory`; return the operations
    of one pass and the seconds spent inside the generator."""
    w = _Writer(directory)
    ops = WORKLOADS[workload](w, random.Random(f"{workload}:{seed}"))
    return ops, w.gen_s
