"""Command-line surface: check, classify, graphs, reduce, gen, oracle.

Exit codes: 0 = pass/classified/reduced, 1 = principled failure (a check
fails, data not in the classification, search depth exhausted), 2 =
usage, parse or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constraints, core, rewrite, sweep
from .classify import classify, figure1_taggable
from .generators import GENERATORS
from .multigraph import (
    GraphCapError,
    NoMatchingError,
    enumerate_admissible,
    match_figure1,
    serialize_graph,
)
from .rewrite import ReductionFailure, collection_from_data, reduce_to_empty
from .series import check_order, signature_series

PASS_EXIT, FAIL_EXIT, ERROR_EXIT = 0, 1, 2


def _read_input(path: str) -> core.FixedPointData:
    text = sys.stdin.read() if path == "-" else open(path).read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return core.from_json(text)
    return core.parse(text)


def _emit(obj, args) -> None:
    if getattr(args, "quiet", False):
        return
    print(obj)


def cmd_check(args) -> int:
    if args.order is not None:
        check_order(args.order)  # refused whatever the data, before any output
    d = _read_input(args.input)
    weights = set(args.pair_weights) if args.pair_weights else None
    reports = constraints.run_all(d, weights_to_pair=weights)
    series = None
    if args.order is not None and d.points:
        series = [str(c) for c in signature_series(d, args.order).coeffs]
    if args.json:
        payload = [
            {"name": r.name, "status": r.status, "witness": r.witness}
            for r in reports
        ]
        _emit(json.dumps(payload), args)
    else:
        for r in reports:
            _emit(str(r), args)
    if series is not None:
        if args.json:
            _emit(json.dumps({"signature_series": series}), args)
        else:
            _emit(f"signature series to order {args.order}: {' '.join(series)}", args)
    ok = constraints.overall_verdict(reports)
    _emit(f"overall: {'PASS' if ok else 'FAIL'}", args)
    return PASS_EXIT if ok else FAIL_EXIT


def cmd_classify(args) -> int:
    verdict = classify(_read_input(args.input), effective=args.effective)
    _emit(verdict.to_json(), args)
    return PASS_EXIT if verdict.classified else FAIL_EXIT


def cmd_graphs(args) -> int:
    d = _read_input(args.input)
    try:
        graphs = enumerate_admissible(d)
    except NoMatchingError as exc:
        print(f"weight parity fails: {exc}", file=sys.stderr)
        return FAIL_EXIT
    except GraphCapError as exc:
        print(exc, file=sys.stderr)
        return FAIL_EXIT
    taggable = figure1_taggable(d)
    if args.json and graphs:
        # enumerate_admissible gives every graph the same vertices, and the
        # graphs share most of their edges, so the vertex list and each
        # distinct edge are rendered once per call and each line is
        # assembled from them; the result is what json.dumps prints for the
        # graph's dict.
        vertex_items = json.dumps([list(v) for v in graphs[0].vertices])
        edge_items: dict = {}
    for i, g in enumerate(graphs):
        tag = None
        if taggable:
            case = match_figure1(g)
            tag = case.tag if case else None
        if args.json:
            edges = ", ".join(
                [
                    edge_items.get(e) or edge_items.setdefault(e, "[%d, %d, %d]" % e)
                    for e in g.edges
                ]
            )
            figure1 = "null" if tag is None else f'"{tag}"'
            _emit(
                f'{{"graph": {i}, "vertices": {vertex_items}, '
                f'"edges": [{edges}], "figure1": {figure1}}}',
                args,
            )
        else:
            _emit(f"# graph {i} figure1={tag or 'none'}", args)
            _emit(serialize_graph(g).rstrip("\n"), args)
    if args.emit:
        with open(args.emit, "w") as fh:
            for g in graphs:
                fh.write(serialize_graph(g))
                fh.write("\n")
    return PASS_EXIT


def cmd_reduce(args) -> int:
    if args.max_depth < 0:
        print(f"error: --max-depth must be at least 0, got {args.max_depth}", file=sys.stderr)
        return ERROR_EXIT
    d = _read_input(args.input)
    if d.points and d.arity != 3:
        print(f"error: reduction needs arity-3 data, got {d.arity}", file=sys.stderr)
        return ERROR_EXIT
    coll = collection_from_data(d)
    result = reduce_to_empty(coll, max_depth=args.max_depth)
    if isinstance(result, ReductionFailure):
        _emit(json.dumps(result.to_dict()), args)
        return FAIL_EXIT
    for move in result.moves:
        _emit(str(move) if not args.json else json.dumps(move.to_dict()), args)
    if args.emit_trace:
        with open(args.emit_trace, "w") as fh:
            fh.write(result.to_json_lines())
    _emit(f"reduced to empty in {len(result.moves)} moves", args)
    return PASS_EXIT


def cmd_gen(args) -> int:
    # argparse's choices refuse an unknown family with exit 2
    fn, n_params = GENERATORS[args.family]
    if len(args.params) != n_params:
        print(
            f"error: family {args.family} takes {n_params} parameters, "
            f"got {len(args.params)}",
            file=sys.stderr,
        )
        return ERROR_EXIT
    try:
        d = fn(*args.params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT
    out = core.to_json(d) if args.json else core.serialize(d)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return PASS_EXIT


def cmd_oracle(args) -> int:
    for flag, value, least in (
        ("--points", args.points, 0),
        ("--arity", args.arity, 1),
        ("--max-weight", args.max_weight, 1),
    ):
        if value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return ERROR_EXIT
    if args.max_weight > args.cap:
        print(
            f"error: max-weight {args.max_weight} exceeds cap {args.cap}",
            file=sys.stderr,
        )
        return ERROR_EXIT
    rows = sweep.sweep(points=args.points, arity=args.arity, max_weight=args.max_weight)
    sys.stdout.write(sweep.to_csv(rows))
    bad = [
        r
        for r in sweep.survivors(rows)
        if "NotInClassification" in r.classification
    ]
    if bad:
        print(f"{len(bad)} unclassified survivors", file=sys.stderr)
        return FAIL_EXIT
    return PASS_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleact",
        description="Verify, classify, and rewrite fixed-point data of "
        "circle actions on compact oriented manifolds.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--quiet", action="store_true", help="suppress normal output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the necessary-condition suite")
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("--order", type=int, default=None, help="series truncation order")
    p.add_argument(
        "--pair-weights",
        type=int,
        nargs="*",
        default=None,
        help="weights for the congruence-pairing check (default: all)",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="classify the fixed-point data")
    p.add_argument("input")
    p.add_argument(
        "--effective",
        action="store_true",
        help="require gcd of all weights to be 1 (dimension-4 grammar)",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("graphs", help="enumerate admissible multigraphs")
    p.add_argument("input")
    p.add_argument("--emit", default=None, help="write graphs to this path")
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser("reduce", help="reduce arity-3 data to the empty collection")
    p.add_argument("input")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--emit-trace", default=None, help="write JSON-lines trace here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="emit a generator family instance")
    p.add_argument("family", choices=sorted(GENERATORS))
    p.add_argument("--params", type=int, nargs="+", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="desk-scale enumeration sweep (CSV)")
    p.add_argument("--points", type=int, default=4)
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=3)
    p.add_argument("--cap", type=int, default=4, help="largest allowed max-weight")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (core.ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
