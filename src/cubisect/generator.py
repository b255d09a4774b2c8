"""Build connected claw-free cubic multigraphs with prescribed block counts.

Blocks are laid out on disjoint vertex ranges, each exposing the stubs its
vertices still need (diamond: the two outer vertices; triangle: all three;
doubled pair: both), and the stubs are joined by a random perfect matching.
Matching two stubs of one triangle doubles a side, turning it into a
triangle-with-doubled-side; find_blocks reclassifies it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import Unsatisfiable
from .multigraph import Multigraph, is_connected

MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class BlockRecipe:
    """Requested block counts: k diamonds, t triangles (possibly becoming
    trumpets when wired), p doubled pairs."""

    k: int
    t: int
    p: int
    seed: int = 0

    @property
    def n(self) -> int:
        return 4 * self.k + 3 * self.t + 2 * self.p


def generate(recipe: BlockRecipe) -> Multigraph:
    """Assemble a random instance matching the recipe.

    Stub pairings within one diamond are rejected (they close the diamond
    into the complete graph on four vertices); pairings within one doubled
    pair are rejected unless it is the only block, where they produce the
    two-vertex triple-edge graph. Each vertex has one stub and lies in a
    triangle or on a parallel pair, so every draw is cubic, claw-free and
    not K4, and only connectivity is tested: disconnected draws are
    resampled; after 100 failures the recipe is treated as unrealizable.
    """
    if recipe.k < 0 or recipe.t < 0 or recipe.p < 0:
        raise ValueError("block counts must be nonnegative")
    if recipe.k + recipe.t + recipe.p == 0:
        raise ValueError("recipe must request at least one block")
    if recipe.t % 2 == 1:
        raise ValueError("stub total 2k + 3t + 2p must be even, so t must be even")

    base_edges: list[tuple[int, int]] = []
    stubs: list[tuple[int, str, int]] = []  # (vertex, block kind, block id)
    nxt = 0
    block_id = 0

    for _ in range(recipe.k):
        a, b, c, d = range(nxt, nxt + 4)
        base_edges += [(a, b), (a, c), (b, c), (b, d), (c, d)]
        stubs += [(a, "diamond", block_id), (d, "diamond", block_id)]
        nxt += 4
        block_id += 1
    for _ in range(recipe.t):
        u, v, w = range(nxt, nxt + 3)
        base_edges += [(u, v), (u, w), (v, w)]
        stubs += [(u, "triangle", block_id), (v, "triangle", block_id), (w, "triangle", block_id)]
        nxt += 3
        block_id += 1
    for _ in range(recipe.p):
        u, v = nxt, nxt + 1
        base_edges += [(u, v), (u, v)]
        stubs += [(u, "digon", block_id), (v, "digon", block_id)]
        nxt += 2
        block_id += 1

    sole_block = block_id == 1
    rng = random.Random(recipe.seed)

    for _ in range(MAX_ATTEMPTS):
        order = stubs[:]
        rng.shuffle(order)
        cross: list[tuple[int, int]] = []
        ok = True
        for i in range(0, len(order), 2):
            (u, ukind, ublock), (v, vkind, vblock) = order[i], order[i + 1]
            if ublock == vblock:
                if ukind == "diamond":
                    ok = False
                    break
                if ukind == "digon" and not sole_block:
                    ok = False
                    break
            cross.append((u, v))
        if not ok:
            continue
        g = Multigraph(recipe.n, base_edges + cross)
        if is_connected(g):
            return g

    raise Unsatisfiable(
        f"no connected wiring found for k={recipe.k} t={recipe.t} p={recipe.p} "
        f"after {MAX_ATTEMPTS} draws"
    )


def ring_of_diamonds(count: int) -> Multigraph:
    """Cycle of diamonds, each outer vertex joined to the next diamond."""
    if count < 2:
        raise ValueError("a ring needs at least two diamonds")
    edges = []
    for i in range(count):
        a, b, c, d = range(4 * i, 4 * i + 4)
        edges += [(a, b), (a, c), (b, c), (b, d), (c, d)]
        edges.append((d, 4 * ((i + 1) % count)))
    return Multigraph(4 * count, edges)


def curated_suite() -> list[tuple[str, Multigraph]]:
    """Fixed fixtures: a few in-class graphs with known minimums plus two
    out-of-class controls (the complete graph on four vertices and the
    cube graph, which has claws)."""
    k4 = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    triple = Multigraph(2, [(0, 1)] * 3)
    prism = Multigraph(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    )
    diamond_digon = Multigraph(
        6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (4, 5), (4, 5), (0, 4), (3, 5)]
    )
    q3 = Multigraph(
        8, [(u, u ^ (1 << i)) for u in range(8) for i in range(3) if u < u ^ (1 << i)]
    )
    return [
        ("k4", k4),
        ("triple_edge", triple),
        ("prism", prism),
        ("ring2", ring_of_diamonds(2)),
        ("ring3", ring_of_diamonds(3)),
        ("diamond_digon", diamond_digon),
        ("big40", generate(BlockRecipe(k=3, t=8, p=2, seed=0))),
        ("q3", q3),
    ]
