"""Output checker for the benchmark, independent of the code under test.

Nothing here imports cubisect: the graph is read from the benchmark's own
input file, and every claim a command makes is recounted from scratch and
compared with the closed form for the recipe that generated the input.
Each check returns a list of problems; an empty list accepts the output.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Edge-list graph as the checker sees it: multiplicity per vertex pair
    and the distinct neighbours of every vertex."""

    n: int
    mult: dict[tuple[int, int], int]
    nbrs: tuple[frozenset[int], ...]


def graph_from_edges(n: int, edges) -> Graph:
    mult: dict[tuple[int, int], int] = {}
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        pair = (u, v) if u < v else (v, u)
        mult[pair] = mult.get(pair, 0) + 1
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, mult, tuple(frozenset(s) for s in nbrs))


def read_graph(path: str) -> Graph:
    """Read the edge-list text format: header `n m`, then m lines `u v`."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        raise ValueError(f"{path}: header promises {m} edges, file has {len(rows) - 1}")
    return graph_from_edges(n, ((int(u), int(v)) for u, v in rows[1:]))


def closed_form(n: int, k: int, p: int) -> int:
    """Minimum monochromatic edge count of a 2-bisection (PAPER.md)."""
    return (n - k - 2 * p) // 3 + k % 2


@dataclass(frozen=True)
class Recount:
    """What the checker itself finds for a coloring."""

    is_2bisection: bool
    epsilon: int
    epsilon_black: int
    epsilon_white: int


def recount(g: Graph, black: set[int]) -> Recount:
    """Recount a coloring given by its black class; every other vertex is white."""
    is_black = [v in black for v in range(g.n)]
    eb = ew = 0
    for (u, v), m in g.mult.items():
        if is_black[u] == is_black[v]:
            if is_black[u]:
                eb += m
            else:
                ew += m
    two = all(sum(1 for u in g.nbrs[v] if is_black[u] == is_black[v]) <= 1 for v in range(g.n))
    return Recount(two, eb + ew, eb, ew)


def _classes(g: Graph, bis: dict) -> tuple[set[int], list[str]]:
    black, white = bis["black"], bis["white"]
    problems = []
    if len(black) != len(white):
        problems.append(f"unbalanced: {len(black)} black vs {len(white)} white")
    if sorted(black + white) != list(range(g.n)):
        problems.append(f"colour classes do not cover 0..{g.n - 1} exactly once")
    return set(black), problems


def check_bisect(g: Graph, recipe: dict, out: dict) -> list[str]:
    """`bisect` output: a balanced 2-bisection whose epsilon, recounted with
    multiplicity, is the closed form for the recipe, and a certificate that
    agrees with both."""
    try:
        black, problems = _classes(g, out["bisection"])
        if problems:
            return problems
        rc = recount(g, black)
        want = closed_form(recipe["n"], recipe["k"], recipe["p"])
        if not rc.is_2bisection:
            problems.append("a vertex has two same-coloured distinct neighbours")
        if rc.epsilon != want:
            problems.append(f"epsilon recounts to {rc.epsilon}, closed form is {want}")
        bis, cert = out["bisection"], out["certificate"]
        claimed = (bis["epsilon"], bis["epsilon_black"], bis["epsilon_white"])
        if claimed != (rc.epsilon, rc.epsilon_black, rc.epsilon_white):
            problems.append(f"epsilon fields {claimed} disagree with the recount")
        expected_cert = {
            "n": g.n,
            "k": recipe["k"],
            "p": recipe["p"],
            "epsilon": rc.epsilon,
            "formula": want,
            "parity": "odd" if recipe["k"] % 2 else "even",
            "valid": True,
        }
        for key, value in expected_cert.items():
            if cert.get(key) != value:
                problems.append(f"certificate {key}={cert.get(key)!r}, expected {value!r}")
        return problems
    except (KeyError, TypeError) as exc:
        return [f"malformed bisect output: {exc!r}"]


def check_partition(g: Graph, recipe: dict, out: dict) -> list[str]:
    """`partition` output: counts (k, t, p) of the recipe, and every vertex
    in exactly one block."""
    try:
        problems = []
        got = (out["k"], out["t"], out["p"])
        want = (recipe["k"], recipe["t"], recipe["p"])
        if got != want:
            problems.append(f"(k, t, p) = {got}, recipe has {want}")
        covered = sorted(v for block in out["blocks"] for v in block["vertices"])
        if covered != list(range(g.n)):
            problems.append("blocks do not cover every vertex exactly once")
        return problems
    except (KeyError, TypeError) as exc:
        return [f"malformed partition output: {exc!r}"]


def check_check(out: dict) -> list[str]:
    """`check --format json` output: the graph is reported in-class."""
    want = {"is_cubic": True, "is_connected": True, "is_claw_free": True, "is_k4": False}
    return [f"{key}={out.get(key)!r}, expected {value!r}" for key, value in want.items() if out.get(key) is not value]


def check_verify(g: Graph, black: set[int], out: dict) -> list[str]:
    """`verify --format json` output: `is_2bisection` and the epsilon fields
    equal the checker's own recount of the stored coloring."""
    rc = recount(g, black)
    want = {
        "is_2bisection": rc.is_2bisection,
        "epsilon": rc.epsilon,
        "epsilon_black": rc.epsilon_black,
        "epsilon_white": rc.epsilon_white,
    }
    return [f"{key}={out.get(key)!r}, recount says {value!r}" for key, value in want.items() if out.get(key) != value]


# -- diamond rings ----------------------------------------------------------
#
# Diamond i of a ring of L diamonds has vertices a, b, c, d = 4i .. 4i+3, with
# edges ab ac bc bd cd and d joined to the a of diamond i+1 (mod L).


def ring_edges(count: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(count):
        a, b, c, d = range(4 * i, 4 * i + 4)
        edges += [(a, b), (a, c), (b, c), (b, d), (c, d), (d, 4 * ((i + 1) % count))]
    return edges


def ring_coloring(count: int) -> list[int]:
    """Black class of a minimum 2-bisection of a ring of `count` diamonds,
    from the closed-form pattern rather than from any solver.

    Diamonds alternate between "b, c black" and "a, d black", so every ring
    edge d-a is bichromatic and each diamond has one monochromatic edge, bc.
    With an odd count the last diamond is flipped: b and d black, a and c
    white, which costs its two edges ac and bd and closes the ring.
    """
    black = []
    for i in range(count):
        a, b, c, d = range(4 * i, 4 * i + 4)
        if count % 2 and i == count - 1:
            black += [b, d]
        elif i % 2 == 0:
            black += [b, c]
        else:
            black += [a, d]
    return black
