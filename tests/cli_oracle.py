"""The former ``graphs`` emitter, for tests only.

In JSON mode ``circleact.cli.cmd_graphs`` renders the vertex list once per
call and assembles every graph's line around it.  This module keeps the
emitter it replaced, which builds a dict per graph for ``json.dumps``.
Tests require both to write the same bytes to stdout, stderr and the
``--emit`` file, with the same exit code, in JSON and text mode.
"""

from __future__ import annotations

import json
import sys

from circleact.classify import figure1_taggable
from circleact.cli import FAIL_EXIT, PASS_EXIT, _emit, _read_input
from circleact.multigraph import (
    GraphCapError,
    NoMatchingError,
    enumerate_admissible,
    match_figure1,
    serialize_graph,
)


def cmd_graphs_by_dumps(args) -> int:
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
    for i, g in enumerate(graphs):
        tag = None
        if taggable:
            case = match_figure1(g)
            tag = case.tag if case else None
        if args.json:
            _emit(
                json.dumps(
                    {
                        "graph": i,
                        "vertices": [list(v) for v in g.vertices],
                        "edges": [list(e) for e in g.edges],
                        "figure1": tag,
                    }
                ),
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
