"""Command-line interface.

Subcommands: run, compare, paper-table, normalize, dom, bind. All output
is deterministic byte-for-byte given identical inputs; the env var
EXISTS_LAB_SEED fixes the fresh-counter start used by `normalize` and
`bind` so their serialized output is reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import SolutionMapping, canonical_order
from .binding import bind
from .errors import ParseError, UnsupportedFeatureError
from .evaluate import Evaluator, results_document, results_tsv
from .fixtures import FIXTURES, dataset, fixture
from .normalize import Semantics, normalize
from .parser import parse_query, parse_term
from .scope import expand_all_stars, in_domain
from .serialize import serialize
from .syntax import Variable
from .terms import Dataset, Triple
from .turtle import parse_data, term_text


def _fresh_start() -> int:
    raw = os.environ.get("EXISTS_LAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"EXISTS_LAB_SEED must be an integer, got {raw!r}") from None


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _active_graph(ds: Dataset, graph: str | None) -> frozenset[Triple] | None:
    if graph is None:
        return None
    return ds.graph(graph) or frozenset()


def _format_solution(mu: SolutionMapping) -> str:
    inner = ", ".join(f"?{k.name}={term_text(v)}" for k, v in mu.items())
    return "{" + inner + "}"


def _format_solutions(solutions: frozenset) -> str:
    if not solutions:
        return "{}"
    return " ".join(_format_solution(mu) for mu in canonical_order(solutions))


def _parse_mapping(text: str) -> SolutionMapping:
    bindings: dict[Variable, object] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        name, sep, value = part.partition("=")
        if not sep or not name.startswith("?") or len(name) < 2:
            raise ValueError(f"bad mapping entry {part!r}, expected ?var=term")
        bindings[Variable(name[1:])] = parse_term(value.strip())
    return SolutionMapping.of(bindings)


def cmd_run(args: argparse.Namespace) -> int:
    ds = parse_data(_read(args.data))
    query = expand_all_stars(parse_query(_read(args.query)))
    semantics = Semantics.parse(args.semantics)
    evaluator = Evaluator(ds, semantics)
    solutions = evaluator.solutions(query, _active_graph(ds, args.graph))
    variables = list(query.projection or ())
    if args.format == "tsv":
        sys.stdout.write(results_tsv(solutions, variables))
    else:
        print(json.dumps(results_document(solutions, variables), indent=2))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    ds = parse_data(_read(args.data))
    query = expand_all_stars(parse_query(_read(args.query)))
    active = _active_graph(ds, args.graph)
    for semantics in Semantics:
        solutions = Evaluator(ds, semantics).solutions(query, active)
        print(f"{semantics.value}\t{_format_solutions(solutions)}")
    return 0


def cmd_paper_table(args: argparse.Namespace) -> int:
    rows = FIXTURES if args.only is None else (fixture(args.only),)
    mismatches: list[str] = []
    print("#\tS1\tS2\tS3")
    for f in rows:
        ds = dataset(f.dataset_id)
        query = expand_all_stars(parse_query(f.query))
        cells = []
        for semantics in Semantics:
            evaluator = Evaluator(
                ds, semantics, s3_subselect_links=not args.no_s3_subselect_links
            )
            got = evaluator.solutions(query)
            cells.append(_format_solutions(got))
            if got != f.expected[semantics]:
                mismatches.append(
                    f"row {f.number} {semantics.value}: expected "
                    f"{_format_solutions(f.expected[semantics])}, got {_format_solutions(got)}"
                )
        print(f"{f.number}\t" + "\t".join(cells))
    total = 3 * len(rows)
    if mismatches:
        print(f"{total - len(mismatches)}/{total} cells match")
        for line in mismatches:
            print(f"MISMATCH {line}")
        return 3
    print(f"{total}/{total} cells match")
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    query = parse_query(_read(args.query))
    n = normalize(query, Semantics.parse(args.semantics), fresh_start=_fresh_start())
    print(serialize(n.node))
    for label, mapping in (("d", n.d), ("g", n.g)):
        print(f"{label}:")
        for key in sorted(mapping, key=lambda v: v.name):
            print(f"  ?{key.name} <- ?{mapping[key].name}")
    return 0


def cmd_dom(args: argparse.Namespace) -> int:
    query = parse_query(_read(args.query))
    for v in sorted(in_domain(query), key=lambda v: v.name):
        print(v.name)
    return 0


def cmd_bind(args: argparse.Namespace) -> int:
    query = parse_query(_read(args.query))
    mu = _parse_mapping(args.mapping)
    bound = bind(
        query, mu, Semantics.parse(args.semantics), fresh_start=_fresh_start()
    )
    print(serialize(bound))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exists-lab",
        description="Evaluate a SPARQL fragment under three semantics for "
        "correlated EXISTS, and reproduce the bundled ten-query comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, semantics: bool) -> None:
        p.add_argument("--data", required=True, help="Turtle-lite data file")
        p.add_argument("--query", required=True, help="query file")
        if semantics:
            p.add_argument("--semantics", required=True, choices=["s1", "s2", "s3"])
        p.add_argument("--graph", help="IRI of the initial active graph")

    run = sub.add_parser("run", help="evaluate one query, print results")
    add_io(run, semantics=True)
    run.add_argument("--format", choices=["json", "tsv"], default="json")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="evaluate under all three semantics")
    add_io(compare, semantics=False)
    compare.set_defaults(func=cmd_compare)

    table = sub.add_parser(
        "paper-table", help="reproduce the embedded ten-query comparison table"
    )
    table.add_argument("--only", type=int, help="single fixture number (1-10)")
    table.add_argument(
        "--no-s3-subselect-links",
        action="store_true",
        help="debug: evaluate S3 with its sub-select rule downgraded to S2",
    )
    table.set_defaults(func=cmd_paper_table)

    norm = sub.add_parser("normalize", help="print a query's normalization")
    norm.add_argument("--query", required=True)
    norm.add_argument("--semantics", required=True, choices=["s1", "s2", "s3"])
    norm.set_defaults(func=cmd_normalize)

    dom = sub.add_parser("dom", help="print a query's in-domain variables")
    dom.add_argument("--query", required=True)
    dom.set_defaults(func=cmd_dom)

    bind_cmd = sub.add_parser("bind", help="print a query bound to a solution mapping")
    bind_cmd.add_argument("--query", required=True)
    bind_cmd.add_argument("--semantics", required=True, choices=["s1", "s2", "s3"])
    bind_cmd.add_argument(
        "--mapping", default="", help="solution mapping, e.g. '?x=:a,?y=1'"
    )
    bind_cmd.set_defaults(func=cmd_bind)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnsupportedFeatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: query nested too deeply to process", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
