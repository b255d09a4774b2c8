"""Command line front end.

Subcommands: check, partition, bisect, oracle, gen, verify. Graphs are
read from a file path or stdin ("-") in the edge-list text format. Exit
codes: 0 success, 1 parse or I/O trouble, 2 precondition failure (graph
out of class, instance too large, unrealizable recipe), 3 internal error
(an invariant breach or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .bisection import BLACK, bisection_from_json, bisection_to_json, is_2bisection, is_desired, mono_stats
from .construct import min_bisection
from .errors import (
    GraphFormatError,
    InternalInvariantError,
    NotApplicable,
    PartitionError,
    TooLarge,
    Unsatisfiable,
)
from .generator import BlockRecipe, generate
from .multigraph import Multigraph, format_graph, parse_graph, validate
from .oracle import DEFAULT_LIMIT, HARD_CAP, oracle_min
from .structure import find_blocks


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully determined (no hidden entropy)."""

    command: str
    graph_path: str | None = None
    bisection_path: str | None = None
    recipe: BlockRecipe | None = None
    fmt: str = "json"
    oracle_limit: int = DEFAULT_LIMIT
    output: str | None = None


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # precondition failures here, so usage trouble becomes exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Multigraph:
    return parse_graph(_read_text(path))


def _dot_graph(g: Multigraph, colors: tuple[int, ...] | None = None) -> str:
    lines = ["graph {"]
    if colors is None:
        lines.extend(f"  {v};" for v in range(g.n))
    else:
        lines.append("  node [style=filled];")
        for v in range(g.n):
            fill, font = ("black", "white") if colors[v] == BLACK else ("white", "black")
            lines.append(f"  {v} [fillcolor={fill}, fontcolor={font}];")
    for u, v, m in g.edge_pairs():
        lines.extend(f"  {u} -- {v};" for _ in range(m))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _in_class(report) -> bool:
    return (
        report.is_cubic
        and report.is_connected
        and report.is_claw_free
        and not report.is_k4
    )


def _cmd_check(cfg: RunConfig) -> tuple[int, str]:
    g = _load_graph(cfg.graph_path)
    report = validate(g)
    if cfg.fmt == "json":
        text = _json_text(report.to_json())
    else:
        lines = [
            f"cubic: {_yesno(report.is_cubic)}",
            f"connected: {_yesno(report.is_connected)}",
            f"claw-free: {_yesno(report.is_claw_free)}",
            f"k4: {_yesno(report.is_k4)}",
        ]
        if report.claw_witness is not None:
            lines.append("claw witness: " + " ".join(map(str, report.claw_witness)))
        lines.append(f"in-class: {_yesno(_in_class(report))}")
        text = "\n".join(lines) + "\n"
    return (0 if _in_class(report) else 2), text


def _cmd_partition(cfg: RunConfig) -> tuple[int, str]:
    g = _load_graph(cfg.graph_path)
    return 0, _json_text(find_blocks(g).to_json())


def _cmd_bisect(cfg: RunConfig) -> tuple[int, str]:
    g = _load_graph(cfg.graph_path)
    bis, cert = min_bisection(g)
    if cfg.fmt == "dot":
        return 0, _dot_graph(g, bis.colors)
    payload = {"bisection": bisection_to_json(g, bis), "certificate": cert.to_json()}
    return 0, _json_text(payload)


def _cmd_oracle(cfg: RunConfig) -> tuple[int, str]:
    g = _load_graph(cfg.graph_path)
    return 0, _json_text(oracle_min(g, limit=cfg.oracle_limit).to_json())


def _cmd_gen(cfg: RunConfig) -> tuple[int, str]:
    g = generate(cfg.recipe)
    return 0, _dot_graph(g) if cfg.fmt == "dot" else format_graph(g)


def _cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    g = _load_graph(cfg.graph_path)
    try:
        obj = json.loads(_read_text(cfg.bisection_path))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"bad bisection JSON: {exc}") from exc
    b = bisection_from_json(obj, g.n)
    stats = mono_stats(g, b)
    two = is_2bisection(g, b)
    desired: bool | None = None
    violations: list = []
    if _in_class(validate(g)):
        desired, raw = is_desired(g, find_blocks(g), b)
        violations = [[name, list(verts)] for name, verts in raw]
    if cfg.fmt == "json":
        text = _json_text(
            {
                "is_2bisection": two,
                "is_desired": desired,
                "violations": violations,
                "epsilon": stats.epsilon,
                "epsilon_black": stats.epsilon_black,
                "epsilon_white": stats.epsilon_white,
            }
        )
    else:
        lines = [
            f"2-bisection: {_yesno(two)}",
            f"desired: {'n/a' if desired is None else _yesno(desired)}",
        ]
        lines.extend(
            f"  violated {name}: " + " ".join(map(str, verts)) for name, verts in violations
        )
        lines.append(
            f"epsilon: {stats.epsilon} (black {stats.epsilon_black}, white {stats.epsilon_white})"
        )
        text = "\n".join(lines) + "\n"
    return 0, text


_HANDLERS = {
    "check": _cmd_check,
    "partition": _cmd_partition,
    "bisect": _cmd_bisect,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="cubisect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_arg(p):
        p.add_argument("graph", help="graph file in edge-list format, or - for stdin")

    def output_arg(p):
        p.add_argument("--output", help="write the result here instead of stdout")

    p = sub.add_parser("check", help="validate a graph against the covered class")
    graph_arg(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    output_arg(p)

    p = sub.add_parser("partition", help="print the block cover as JSON")
    graph_arg(p)
    p.add_argument("--format", choices=("json",), default="json")
    output_arg(p)

    p = sub.add_parser("bisect", help="construct a minimum 2-bisection")
    graph_arg(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    output_arg(p)

    p = sub.add_parser("oracle", help="exhaustive minimum for small graphs")
    graph_arg(p)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=DEFAULT_LIMIT,
        metavar="N",
        help=f"vertex budget, at most {HARD_CAP} (default {DEFAULT_LIMIT})",
    )
    output_arg(p)

    p = sub.add_parser("gen", help="generate an instance from block counts")
    p.add_argument("k", type=int, help="diamonds")
    p.add_argument("t", type=int, help="triangles (trumpets form during wiring)")
    p.add_argument("p", type=int, help="doubled pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "dot"), default="text")
    output_arg(p)

    p = sub.add_parser("verify", help="check a bisection JSON against a graph")
    graph_arg(p)
    p.add_argument("bisection", help="bisection JSON file, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    output_arg(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "gen":
        return RunConfig(
            command="gen",
            recipe=BlockRecipe(k=args.k, t=args.t, p=args.p, seed=args.seed),
            fmt=args.format,
            output=args.output,
        )
    return RunConfig(
        command=args.command,
        graph_path=args.graph,
        bisection_path=getattr(args, "bisection", None),
        fmt=args.format,
        oracle_limit=getattr(args, "oracle_limit", DEFAULT_LIMIT),
        output=args.output,
    )


def _input_of(cfg: RunConfig) -> str:
    """The input a command ran on, for error reports."""
    if cfg.recipe is not None:
        r = cfg.recipe
        return f"recipe k={r.k} t={r.t} p={r.p} seed={r.seed}"
    return " ".join(path for path in (cfg.graph_path, cfg.bisection_path) if path)


def run(cfg: RunConfig) -> int:
    """Execute one configured command, writing results to stdout or the
    configured output path; returns the process exit code."""
    try:
        code, text = _HANDLERS[cfg.command](cfg)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        print(f"input: {_input_of(cfg)}", file=sys.stderr)
        return 3
    except NotApplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_json_text(exc.report.to_json()), end="", file=sys.stderr)
        return 2
    except (TooLarge, Unsatisfiable, PartitionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Any other escape is a bug. Exception, not BaseException, so that
        # KeyboardInterrupt and SystemExit still propagate.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"input: {_input_of(cfg)}", file=sys.stderr)
        return 3
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return run(_config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
