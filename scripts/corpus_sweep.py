#!/usr/bin/env python3
"""Sweep a grid of block recipes, solving each generated instance three
ways (constructor, closed form, exhaustive search) and printing a table.

Usage: python scripts/corpus_sweep.py
"""

from __future__ import annotations

import sys
import time
from itertools import product

from cubisect import BlockRecipe, formula_minimum, generate, min_bisection, oracle_min

# Largest instance size, instances per recipe, and the oracle's vertex budget.
MAX_N = 16
SEEDS = 8
LIMIT = 16


def main() -> int:
    recipes = [
        (k, t, p)
        for k, t, p in product(range(4), (0, 2, 4), range(4))
        if 0 < 4 * k + 3 * t + 2 * p <= MAX_N and (k, t, p) != (1, 0, 0)
    ]

    print(f"{'k':>2} {'t':>2} {'p':>2} {'n':>3} {'eps':>4} {'oracle':>7} {'optima':>7} {'desired':>8}")
    start = time.perf_counter()
    rows = mismatches = 0
    for k, t, p in recipes:
        for seed in range(SEEDS):
            g = generate(BlockRecipe(k, t, p, seed=seed))
            _, cert = min_bisection(g)
            want = formula_minimum(g.n, k, p)
            if g.n <= LIMIT:
                res = oracle_min(g, limit=LIMIT)
                agree = res.min_epsilon == cert.epsilon == want
                if seed == 0:
                    print(
                        f"{k:>2} {t:>2} {p:>2} {g.n:>3} {cert.epsilon:>4} "
                        f"{res.min_epsilon:>7} {res.optima_count:>7} {str(res.desired_exists):>8}"
                    )
            else:
                agree = cert.epsilon == want
                if seed == 0:
                    print(f"{k:>2} {t:>2} {p:>2} {g.n:>3} {cert.epsilon:>4} {'skip':>7} {'':>7} {'':>8}")
            mismatches += 0 if agree else 1
            rows += 1
    elapsed = time.perf_counter() - start
    print(f"\n{rows} instances, {mismatches} mismatches, {elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
