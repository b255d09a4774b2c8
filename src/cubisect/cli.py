"""Command line front end.

Subcommands: check, partition, bisect, oracle, gen, verify. Graphs are
read from a file path or stdin ("-") in the edge-list text format. Exit
codes: 0 success, 1 parse or I/O trouble (including a failed --output
write), 2 precondition failure (graph out of class, instance too large,
unrealizable recipe), 3 internal error (an invariant breach or any other
unexpected exception, reported as "internal error: <type>: <message>"
with the input it ran on).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bisection import BLACK, bisection_from_json, bisection_to_json, is_2bisection, is_desired, mono_stats
from .construct import min_bisection
from .errors import GraphFormatError, NotApplicable, PartitionError, TooLarge, Unsatisfiable
from .generator import BlockRecipe, generate
from .multigraph import Multigraph, format_graph, parse_graph, validate
from .oracle import DEFAULT_LIMIT, HARD_CAP, oracle_min
from .structure import find_blocks


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


def _cmd_check(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args.graph)
    report = validate(g)
    if args.format == "json":
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
        lines.append(f"in-class: {_yesno(report.in_class)}")
        text = "\n".join(lines) + "\n"
    return (0 if report.in_class else 2), text


def _cmd_partition(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args.graph)
    return 0, _json_text(find_blocks(g).to_json())


def _cmd_bisect(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args.graph)
    bis, cert = min_bisection(g)
    if args.format == "dot":
        return 0, _dot_graph(g, bis.colors)
    payload = {"bisection": bisection_to_json(g, bis), "certificate": cert.to_json()}
    return 0, _json_text(payload)


def _cmd_oracle(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args.graph)
    return 0, _json_text(oracle_min(g, limit=args.oracle_limit).to_json())


def _cmd_gen(args: argparse.Namespace) -> tuple[int, str]:
    g = generate(BlockRecipe(k=args.k, t=args.t, p=args.p, seed=args.seed))
    return 0, _dot_graph(g) if args.format == "dot" else format_graph(g)


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args.graph)
    try:
        obj = json.loads(_read_text(args.bisection))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"bad bisection JSON: {exc}") from exc
    b = bisection_from_json(obj, g.n)
    stats = mono_stats(g, b)
    two = is_2bisection(g, b)
    desired: bool | None = None
    violations: list = []
    if validate(g).in_class:
        desired, raw = is_desired(g, find_blocks(g), b)
        violations = [[name, list(verts)] for name, verts in raw]
    if args.format == "json":
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="cubisect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_arg(p):
        p.add_argument("graph", help="graph file in edge-list format, or - for stdin")

    def output_arg(p):
        p.add_argument("--output", help="write the result here instead of stdout")

    p = sub.add_parser("check", help="validate a graph against the covered class")
    p.set_defaults(handler=_cmd_check)
    graph_arg(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    output_arg(p)

    p = sub.add_parser("partition", help="print the block cover as JSON")
    p.set_defaults(handler=_cmd_partition)
    graph_arg(p)
    output_arg(p)

    p = sub.add_parser("bisect", help="construct a minimum 2-bisection")
    p.set_defaults(handler=_cmd_bisect)
    graph_arg(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    output_arg(p)

    p = sub.add_parser("oracle", help="exhaustive minimum for small graphs")
    p.set_defaults(handler=_cmd_oracle)
    graph_arg(p)
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=DEFAULT_LIMIT,
        metavar="N",
        help=f"vertex budget, at most {HARD_CAP} (default {DEFAULT_LIMIT})",
    )
    output_arg(p)

    p = sub.add_parser("gen", help="generate an instance from block counts")
    p.set_defaults(handler=_cmd_gen)
    p.add_argument("k", type=int, help="diamonds")
    p.add_argument("t", type=int, help="triangles (trumpets form during wiring)")
    p.add_argument("p", type=int, help="doubled pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "dot"), default="text")
    output_arg(p)

    p = sub.add_parser("verify", help="check a bisection JSON against a graph")
    p.set_defaults(handler=_cmd_verify)
    graph_arg(p)
    p.add_argument("bisection", help="bisection JSON file, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    output_arg(p)

    return parser


def _input_of(args: argparse.Namespace) -> str:
    """The input a command ran on, for error reports."""
    if args.command == "gen":
        return f"recipe k={args.k} t={args.t} p={args.p} seed={args.seed}"
    return " ".join(path for path in (args.graph, getattr(args, "bisection", None)) if path)


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command, writing its result to stdout or the
    --output path; returns the process exit code."""
    try:
        code, text = args.handler(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotApplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_json_text(exc.report.to_json()), end="", file=sys.stderr)
        return 2
    except (TooLarge, Unsatisfiable, PartitionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Any other escape is a bug, internal invariant breaches included.
        # Exception, not BaseException, so that KeyboardInterrupt and
        # SystemExit still propagate.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"input: {_input_of(args)}", file=sys.stderr)
        return 3
    return code


def main(argv: list[str] | None = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
