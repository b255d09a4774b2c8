#!/usr/bin/env python3
"""Print the curated fixtures with their validation status, block counts,
and minimum monochromatic edge counts (exhaustive where small enough)."""

from __future__ import annotations

import sys

from cubisect import (
    TooLarge,
    curated_suite,
    find_blocks,
    min_bisection,
    oracle_min,
    validate,
)


def main() -> int:
    print(f"{'name':14} {'n':>3} {'class':>5} {'k':>2} {'t':>2} {'p':>2} {'eps':>4} {'oracle':>7}")
    for name, g in curated_suite():
        in_class = validate(g).in_class
        if in_class:
            part = find_blocks(g)
            ktp = (str(part.k), str(part.t), str(part.p))
            _, cert = min_bisection(g)
            eps = str(cert.epsilon)
        else:
            ktp = ("-", "-", "-")
            eps = "-"
        try:
            oracle = str(oracle_min(g).min_epsilon)
        except (TooLarge, ValueError):
            oracle = "skip"
        print(
            f"{name:14} {g.n:>3} {'yes' if in_class else 'no':>5} "
            f"{ktp[0]:>2} {ktp[1]:>2} {ktp[2]:>2} {eps:>4} {oracle:>7}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
