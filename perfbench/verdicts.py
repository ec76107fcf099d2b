"""Expected results of benchmark requests, derived from how each input was made.

Nothing here calls the package under test.  Each expectation knows the
input points (in the order the request presents them) and what the
generating construction implies about them:

* generator data pass ``check``; a one-weight perturbation leaves two weight
  values with odd multiplicity and a single sign flip makes the signature
  sum non-constant, so both must fail it;
* ``classify`` reports the generating parameters (``Case2`` for the
  projective-space and blow-up families, ``Case1`` for a pair of sphere
  rotations, ``TwoPointRotation`` for one) or a dimension-4 grammar trace
  that an independent replay turns back into the input;
* ``graphs`` lists graphs that describe the input, and on four-point
  dimension-6 generator data at least one of them has a Figure-1 shape;
* ``reduce`` prints moves that an independent multiset replay takes to the
  empty collection;
* ``oracle`` prints the recorded number of rows, the recorded CSV digest and
  no unclassified survivor.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional


class VerdictError(AssertionError):
    """A request's exit code or output disagrees with its expectation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerdictError(message)


def multiset(points) -> Counter:
    return Counter((p[0],) + tuple(sorted(p[1:])) for p in points)


def class_label(sign: int, weights) -> str:
    """The printed form of a canonical signed class, e.g. ``[+,1,2,3]``."""
    return "[%s,%s]" % ("+" if sign == 1 else "-", ",".join(map(str, sorted(weights))))


def perfect_matchings(points) -> int:
    """Occurrence-level perfect matchings: the product over weight values of
    (m-1)!!, where m is the value's multiplicity over all points."""
    total = 1
    for m in Counter(w for p in points for w in p[1:]).values():
        if m % 2:
            return 0
        total *= math.prod(range(m - 1, 0, -2))
    return total


def replay_4d(trace) -> Counter:
    """Replay a dimension-4 grammar trace from the empty collection."""
    points: Counter = Counter()
    for step in trace:
        op, params = step["op"], tuple(step["params"])
        if op == "add_pair":
            a, b = sorted(params)
            _require(math.gcd(a, b) == 1, f"add_pair{params} is not coprime")
            points[(1, a, b)] += 1
            points[(-1, a, b)] += 1
        elif op in ("split_plus", "split_minus"):
            sign = 1 if op == "split_plus" else -1
            c, d = sorted(params)
            source = (sign, c, d)
            _require(points[source] > 0, f"{op}{params} has no source point")
            points[source] -= 1
            points[(sign,) + tuple(sorted((c, c + d)))] += 1
            points[(sign,) + tuple(sorted((d, c + d)))] += 1
        elif op == "normalize_gcd":
            (g,) = params
            points = Counter(
                {(p[0],) + tuple(w * g for w in p[1:]): n for p, n in points.items()}
            )
        else:
            raise VerdictError(f"unknown grammar step {op!r}")
    return +points


@dataclass(frozen=True)
class Check:
    points: tuple
    passes: bool
    order: Optional[int] = None  # --order given: the series must vanish
    units = 1

    def verify(self, rc: int, out: str) -> None:
        lines = out.splitlines()
        _require(rc == (0 if self.passes else 1), f"check exit {rc}")
        statuses = [r["status"] for r in json.loads(lines[0])]
        _require(lines[-1] == f"overall: {'PASS' if self.passes else 'FAIL'}", lines[-1])
        _require(("fail" not in statuses) == self.passes, f"check statuses {statuses}")
        if self.order is not None and self.passes:
            coeffs = json.loads(lines[1])["signature_series"]
            _require(len(coeffs) == self.order + 1, "series length")
            _require(all(c == "0" for c in coeffs), f"series {coeffs} is not 0")


@dataclass(frozen=True)
class Classify:
    points: tuple
    verdict: str  # a verdict name, e.g. "Case2" or "NotInClassification"
    params: Optional[dict] = None
    units = 1

    def verify(self, rc: int, out: str) -> None:
        matches = json.loads(out.splitlines()[-1])
        verdicts = [m["verdict"] for m in matches]
        if self.verdict == "NotInClassification":
            _require(rc == 1, f"classify exit {rc}")
            _require("NotInClassification" in verdicts, f"verdicts {verdicts}")
            return
        _require(rc == 0, f"classify exit {rc}")
        _require("NotInClassification" not in verdicts, f"verdicts {verdicts}")
        _require(any(self._matches(m) for m in matches), f"no {self.verdict} {self.params} in {matches}")

    def _matches(self, m: dict) -> bool:
        if m["verdict"] != self.verdict:
            return False
        if self.verdict == "FourDimReachable":
            return replay_4d(m["trace"]) == multiset(self.points)
        if self.verdict == "Case1":
            return sorted(m["params"]["pairs"]) == sorted(self.params["pairs"])
        return m["params"] == self.params


@dataclass(frozen=True)
class Graphs:
    points: tuple
    passes: bool
    figure1: bool = False  # at least one graph must have a Figure-1 shape
    sample: int = 64  # graphs checked per request, spread over the output
    units = 1

    def verify(self, rc: int, out: str) -> None:
        _require(rc == (0 if self.passes else 1), f"graphs exit {rc}")
        if not self.passes:
            return
        lines = out.splitlines()
        _require(not self.figure1 or any('"figure1": null' not in line for line in lines),
                 "no graph has a Figure-1 shape")
        step = max(1, len(lines) // self.sample)
        signs = [[i, p[0]] for i, p in enumerate(self.points)]
        for line in lines[::step]:
            g = json.loads(line)
            _require(g["vertices"] == signs, "graph vertices differ from the input")
            incident = [Counter() for _ in self.points]
            for u, v, label in g["edges"]:
                _require(u != v, "self-loop")
                incident[u][label] += 1
                incident[v][label] += 1
            _require(all(incident[i] == Counter(p[1:]) for i, p in enumerate(self.points)),
                     "graph does not describe the input")


@dataclass(frozen=True)
class Reduce:
    points: tuple
    units = 1

    def verify(self, rc: int, out: str) -> None:
        _require(rc == 0, f"reduce exit {rc}")
        *moves, last = out.splitlines()
        state = Counter(class_label(p[0], p[1:]) for p in self.points)
        for line in moves:
            move = json.loads(line)
            removed = Counter(move["removed"])
            _require(all(state[c] >= n for c, n in removed.items()), f"stale move {move}")
            state = state - removed + Counter(move["added"])
        _require(not +state, f"reduction ends at {dict(+state)}")
        _require(last == f"reduced to empty in {len(moves)} moves", last)


@dataclass(frozen=True)
class Oracle:
    rows: int
    digest: str

    @property
    def units(self) -> int:
        return self.rows  # throughput is counted in candidates

    def verify(self, rc: int, out: str) -> None:
        _require(rc == 0, f"oracle exit {rc}")
        lines = out.splitlines()[1:]
        _require(len(lines) == self.rows, f"{len(lines)} rows")
        _require(hashlib.sha256(out.encode()).hexdigest() == self.digest, "CSV digest differs")
        for line in lines:
            _, fields = line.rsplit('",', 1)
            passed, _, tags, label = fields.split(",")
            _require(not (passed == "1" and tags and "NotInClassification" in label),
                     f"unclassified survivor {line}")
