"""Seeded request streams for the benchmark workloads.

A workload is a list of rounds.  Every round has the same make-up (the same
commands on the same rungs of each scaling ladder), drawn afresh from the
workload seed, and is shuffled, so a run that stops part-way through a round
still sees a representative mix.  Inputs are made with the package's own
generators during set-up; the expected result of each request comes from
``verdicts`` and depends only on how the input was made.

Why each workload (see README.md for the full table):

* ``oracle`` -- the exhaustive, highly repetitive sweep: ``sweep``'s own
  enumeration, ``series.signature_exact`` and the cheap checks dominate.
* ``classify_ladder`` -- single-datum queries dominated by the Case-2 search
  (cubic in the largest weight) and by ``membership_4d`` (super-linear in the
  length of a split chain); the only workload that queries one datum with
  several commands, and the one that runs ``series`` on four points with
  large weights.
* ``unions`` -- many-point arity-3 data: ``signature_exact`` grows with the
  number of points, ``reduce`` falls back to iterative deepening and
  ``enumerate_admissible`` grows with per-weight multiplicity; ``classify``
  is never called.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass

import verdicts

ORACLE_ARGS = {"--points": "4", "--arity": "3", "--max-weight": "4"}
ORACLE_ROWS = 123410
ORACLE_DIGEST = "be9869c2bb4d3a188176f581211463a1b8bb11137aea3ceb5075252d708d752d"

# classify_ladder: largest weight of the dimension-6 data, and split-chain lengths.
WEIGHT_RUNGS = (6, 12, 18, 24, 32, 40)
CHAIN_STEPS = (25, 50, 100, 200)
TRACE_STEPS = (2, 4, 6, 8, 10)
PERTURBED_TRACE_STEPS = (2, 4, 6)
SMALL_4D_POINTS = 8  # dimension-4 data up to this size also go through check

# unions: number of points of each request's input, per command.  The round
# has 30 requests: 13 cheap ones, then 8 checks at 8 points (the median falls
# among them), 6 at 10-12 points, and 3 at 14-16 points (p95 falls among
# them), so neither percentile sits on a gap between clusters.
UNION_CHECK = (6, 6, 8, 8, 8, 8, 8, 8, 8, 10, 10, 12, 14, 16)
UNION_ORDER = (6, 10, 14)
UNION_FLIP = (6, 8, 12)
# reduce: at most one 4-point instance.  Iterative deepening on two or more
# can take from 0.1 s to over 5 s on inputs of the same size.
UNION_REDUCE = (6, 6, 8, 8, 8)
# graphs: (points, least and most graph candidates).  A graphs request costs
# some 30 us per candidate plus some 4 us per occurrence pairing, so the
# pairings are capped and the candidates banded.
UNION_GRAPHS = ((6, 1, 500), (6, 1, 500), (8, 500, 2500), (8, 500, 2500), (10, 8000, 16000))
MAX_PAIRINGS = 5000
# Weight sums of each component are fixed, so the cost of a request depends
# on its number of points rather than on the draw; all weights stay <= 6.
CP3_WEIGHT_SUM = 6
S6_WEIGHT_SUM = 9
JSON_SHARE = 0.25  # share of requests whose input is JSON rather than text


@dataclass(frozen=True)
class Request:
    argv: tuple
    stdin: str
    expect: object  # a verdicts expectation

    @property
    def command(self) -> str:
        return next(a for a in self.argv if not a.startswith("-"))


def points_of(d) -> tuple:
    return tuple((p.sign,) + tuple(p.weights) for p in d.points)


def render(points, as_json: bool) -> str:
    if as_json:
        return json.dumps(
            {"points": [{"sign": p[0], "weights": list(p[1:])} for p in points]}
        )
    return "".join(
        "%s %s\n" % ("+" if p[0] == 1 else "-", " ".join(map(str, p[1:])))
        for p in points
    )


class RoundMaker:
    """Collects the requests of one round; presents every input in a
    seed-chosen point order and format."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.requests: list[Request] = []

    def present(self, points) -> tuple:
        points = list(points)
        self.rng.shuffle(points)
        return tuple(points)

    def add(self, argv, points, expect) -> None:
        text = render(points, self.rng.random() < JSON_SHARE)
        self.requests.append(Request(("--json",) + tuple(argv) + ("-",), text, expect))

    def finish(self) -> list[Request]:
        self.rng.shuffle(self.requests)
        return self.requests


def composition(rng: random.Random, total: int) -> tuple[int, int, int]:
    """(a, b, c), positive, with a + b + c == total."""
    i, j = sorted(rng.sample(range(1, total), 2))
    return i, j - i, total - j


def perturb(rng: random.Random, points) -> tuple:
    """Raise one weight of one point by 1."""
    points = list(points)
    i = rng.randrange(len(points))
    weights = list(points[i][1:])
    weights[rng.randrange(len(weights))] += 1
    points[i] = (points[i][0],) + tuple(weights)
    return tuple(points)


def flip_sign(rng: random.Random, points) -> tuple:
    points = list(points)
    i = rng.randrange(len(points))
    points[i] = (-points[i][0],) + points[i][1:]
    return tuple(points)


def coprime_pair(rng: random.Random, top: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(1, top), rng.randint(1, top)
        if math.gcd(a, b) == 1:
            return tuple(sorted((a, b)))


def forward_trace(rng: random.Random, steps: int) -> list[dict]:
    """A random dimension-4 grammar trace: coprime rotation pairs and splits."""
    first = coprime_pair(rng, 5)
    trace = [{"op": "add_pair", "params": first}]
    live = [(1,) + first, (-1,) + first]
    for _ in range(steps):
        if rng.random() < 0.3:
            pair = coprime_pair(rng, 5)
            trace.append({"op": "add_pair", "params": pair})
            live += [(1,) + pair, (-1,) + pair]
        else:
            sign, c, d = live.pop(rng.randrange(len(live)))
            trace.append({"op": "split_plus" if sign == 1 else "split_minus", "params": (c, d)})
            live += [(sign,) + tuple(sorted((c, c + d))), (sign,) + tuple(sorted((d, c + d)))]
    return trace


def split_chain(steps: int) -> list[dict]:
    """add_pair(1, 1), then split (1, k) for k = 1..steps."""
    return [{"op": "add_pair", "params": (1, 1)}] + [
        {"op": "split_plus", "params": (1, k)} for k in range(1, steps + 1)
    ]


def trace_points(trace) -> tuple:
    return tuple(verdicts.replay_4d(trace).elements())


# --- classify_ladder ---------------------------------------------------------

def _inspect_6d(b: RoundMaker, points, verdict: str, params: dict) -> None:
    """check, classify, graphs and reduce on one datum, as a user inspecting it."""
    points = b.present(points)
    b.add(["check"], points, verdicts.Check(points, True))
    b.add(["classify"], points, verdicts.Classify(points, verdict, params))
    b.add(["graphs"], points, verdicts.Graphs(points, True, figure1=True))
    b.add(["reduce"], points, verdicts.Reduce(points))


def _inspect_4d(b: RoundMaker, points, reachable: bool) -> None:
    points = b.present(points)
    verdict = "FourDimReachable" if reachable else "NotInClassification"
    b.add(["classify"], points, verdicts.Classify(points, verdict))
    if len(points) <= SMALL_4D_POINTS:
        b.add(["check"], points, verdicts.Check(points, reachable))


def classify_ladder_round(pkg, rng: random.Random) -> list[Request]:
    b = RoundMaker(rng)
    for rung, top in enumerate(WEIGHT_RUNGS):
        made = []
        for gen in (pkg.gen_cp3, pkg.gen_blowup):
            a, b_, c = composition(rng, top)
            made.append(points_of(gen(a, b_, c)))
            _inspect_6d(b, made[-1], "Case2", {"a": a, "b": b_, "c": c})
        x = sorted([top, rng.randint(1, top), rng.randint(1, top)])
        y = sorted(rng.randint(1, top) for _ in range(3))
        made.append(points_of(pkg.gen_s6_pair(*x, *y)))
        _inspect_6d(b, made[-1], "Case1", {"pairs": [x, y]})
        bad = b.present(perturb(rng, made[rung % len(made)]))
        b.add(["check"], bad, verdicts.Check(bad, False))
        b.add(["classify"], bad, verdicts.Classify(bad, "NotInClassification"))
        b.add(["graphs"], bad, verdicts.Graphs(bad, False))
    for top in (WEIGHT_RUNGS[0], WEIGHT_RUNGS[-1]):
        weights = sorted([top, rng.randint(1, top), rng.randint(1, top)])
        points = b.present(points_of(pkg.gen_s6(*weights)))
        b.add(["check"], points, verdicts.Check(points, True))
        b.add(["classify"], points, verdicts.Classify(points, "TwoPointRotation", {"weights": weights}))
    for _ in range(3):
        _inspect_4d(b, points_of(pkg.gen_cp2(rng.randint(1, 12), rng.randint(1, 12))), True)
    for steps in TRACE_STEPS:
        _inspect_4d(b, trace_points(forward_trace(rng, steps)), True)
    for steps in PERTURBED_TRACE_STEPS:
        _inspect_4d(b, perturb(rng, trace_points(forward_trace(rng, steps))), False)
    for steps in CHAIN_STEPS:
        _inspect_4d(b, trace_points(split_chain(steps)), True)
    return b.finish()


# --- unions ------------------------------------------------------------------

def union(pkg, rng: random.Random, n_points: int, most_4pt: int = 4) -> tuple:
    """Disjoint union of 2-4 small-weight generator instances with n_points
    points: sphere rotations (2 points) and at most most_4pt projective-space
    or blow-up data (4 points)."""
    shapes = [
        (q, r) for q in range(most_4pt + 1) for r in range(5)
        if 4 * q + 2 * r == n_points and 2 <= q + r <= 4
    ]
    q, r = rng.choice(shapes)
    points = []
    for _ in range(q):
        gen = rng.choice((pkg.gen_cp3, pkg.gen_blowup))
        points += points_of(gen(*composition(rng, CP3_WEIGHT_SUM)))
    for _ in range(r):
        weights = composition(rng, S6_WEIGHT_SUM)
        while max(weights) > 6:
            weights = composition(rng, S6_WEIGHT_SUM)
        points += points_of(pkg.gen_s6(*weights))
    return tuple(points)


def _splits(n: int, caps: tuple):
    """Every way to write n as x_1 + ... + x_k with 0 <= x_j <= caps[j]."""
    if not caps:
        if n == 0:
            yield ()
        return
    for x in range(min(n, caps[0]) + 1):
        for rest in _splits(n - x, caps[1:]):
            yield (x,) + rest


def _loopless_multigraphs(degrees: tuple, memo: dict) -> int:
    """Loop-free multigraphs with the given degree sequence."""
    degrees = tuple(sorted(d for d in degrees if d))
    if not degrees:
        return 1
    if degrees not in memo:
        first, rest = degrees[0], degrees[1:]
        memo[degrees] = sum(
            _loopless_multigraphs(tuple(r - x for r, x in zip(rest, xs)), memo)
            for xs in _splits(first, rest)
        )
    return memo[degrees]


def occurrence_pairings(points) -> int:
    """Sum over weight values of (m-1)!!: the pairings ``graphs`` lists one
    by one before it drops loops and duplicates."""
    counts = Counter(w for p in points for w in p[1:])
    return sum(math.prod(range(m - 1, 0, -2)) for m in counts.values())


def graph_candidates(points) -> int:
    """Product over weight values of the distinct loop-free ways to pair the
    points carrying that value: the graphs ``graphs`` builds before its
    opposite-sign filter and deduplication."""
    per_value: dict[int, list[int]] = {}
    for p in points:
        for w, n in Counter(p[1:]).items():
            per_value.setdefault(w, []).append(n)
    memo: dict = {}
    return math.prod(_loopless_multigraphs(tuple(d), memo) for d in per_value.values())


def unions_round(pkg, rng: random.Random) -> list[Request]:
    b = RoundMaker(rng)
    for n in UNION_CHECK:
        points = b.present(union(pkg, rng, n))
        b.add(["check"], points, verdicts.Check(points, True))
    for n in UNION_ORDER:
        points = b.present(union(pkg, rng, n))
        order = rng.randint(8, 24)
        b.add(["check", "--order", str(order)], points, verdicts.Check(points, True, order))
    for n in UNION_FLIP:
        points = b.present(flip_sign(rng, union(pkg, rng, n)))
        b.add(["check"], points, verdicts.Check(points, False))
    for n, least, most in UNION_GRAPHS:
        points = union(pkg, rng, n)
        while (occurrence_pairings(points) > MAX_PAIRINGS
               or not least <= graph_candidates(points) <= most):
            points = union(pkg, rng, n)
        points = b.present(points)
        b.add(["graphs"], points, verdicts.Graphs(points, True))
    for n in UNION_REDUCE:
        points = b.present(union(pkg, rng, n, most_4pt=1))
        b.add(["reduce"], points, verdicts.Reduce(points))
    return b.finish()


# --- oracle ------------------------------------------------------------------

def oracle_round(pkg, rng: random.Random) -> list[Request]:
    """One exhaustive sweep; the seed only orders the flags."""
    flags = list(ORACLE_ARGS.items())
    rng.shuffle(flags)
    argv = ("oracle",) + tuple(x for pair in flags for x in pair)
    return [Request(argv, "", verdicts.Oracle(ORACLE_ROWS, ORACLE_DIGEST))]


WORKLOADS = {
    "oracle": (oracle_round, 1),
    "classify_ladder": (classify_ladder_round, 48),
    "unions": (unions_round, 48),
}


def build(pkg, workload: str, seed: int) -> list[list[Request]]:
    """All rounds of a workload for one seed."""
    make_round, n_rounds = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make_round(pkg, rng) for _ in range(n_rounds)]
