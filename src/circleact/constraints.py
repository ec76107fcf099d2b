"""Necessary conditions on realizable fixed-point data.

Each check returns a three-valued CheckReport (pass / fail / inapplicable)
with a human-readable witness, so the aggregated suite never silently skips
a condition.  Passing all checks is necessary, not sufficient, for the data
to come from an actual manifold.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .core import FixedPointData
from .series import signature_exact, signature_value

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class CheckReport:
    name: str
    status: str
    witness: str
    detail: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def __str__(self) -> str:
        return f"{self.name}: {self.status.upper()} ({self.witness})"


def abbv_integral_one(d: FixedPointData) -> Fraction:
    """sum_p eps(p) / prod_i w_pi, exactly.

    Localization applied to the class 1; vanishes for any action on a
    positive-dimensional manifold.
    """
    if not d.points:
        raise ValueError("needs non-empty data")
    prods = [math.prod(p.weights) for p in d.points]
    common = math.lcm(*prods)
    return Fraction(
        sum(p.sign * (common // prod) for p, prod in zip(d.points, prods)), common
    )


def check_abbv(d: FixedPointData) -> CheckReport:
    if not d.points:
        return CheckReport("abbv_integral_one", INAPPLICABLE, "empty data")
    value = abbv_integral_one(d)
    if value == 0:
        return CheckReport("abbv_integral_one", PASS, "localization sum is 0")
    return CheckReport(
        "abbv_integral_one",
        FAIL,
        f"localization sum is {value}, expected 0",
        {"value": value},
    )


def check_weight_parity(d: FixedPointData) -> CheckReport:
    """Every weight value must occur an even number of times overall."""
    counts = Counter(w for p in d.points for w in p.weights)
    odd = sorted(w for w, c in counts.items() if c % 2)
    if odd:
        return CheckReport(
            "weight_parity",
            FAIL,
            f"weights with odd multiplicity: {odd}",
            {"odd_weights": odd, "counts": dict(counts)},
        )
    return CheckReport(
        "weight_parity", PASS, "all weight multiplicities even", {"counts": dict(counts)}
    )


def check_parity_dimension(d: FixedPointData) -> CheckReport:
    """An odd number of fixed points forces dimension divisible by 4."""
    k = len(d.points)
    if k % 2 == 0:
        return CheckReport("parity_dimension", PASS, f"{k} fixed points (even)")
    n = d.arity
    if n % 2 == 0:
        return CheckReport(
            "parity_dimension", PASS, f"{k} points, dimension {2 * n} divisible by 4"
        )
    return CheckReport(
        "parity_dimension",
        FAIL,
        f"{k} points (odd) but dimension {2 * n} is not divisible by 4",
        {"points": k, "dimension": 2 * n},
    )


def signed_weight_lists(d: FixedPointData) -> tuple[list[int], list[int]]:
    """Sorted weight multisets over the +1-sign and -1-sign points."""
    plus = sorted(w for p in d.points if p.sign == 1 for w in p.weights)
    minus = sorted(w for p in d.points if p.sign == -1 for w in p.weights)
    return plus, minus


def check_smallest_weights(d: FixedPointData) -> CheckReport:
    """The two smallest weights of each sign class must agree, and the
    positions carrying the second-smallest value must match index-wise."""
    plus, minus = signed_weight_lists(d)
    if len(plus) < 2 or len(minus) < 2:
        return CheckReport(
            "smallest_weights",
            INAPPLICABLE,
            f"need >= 2 weights per sign class (have {len(plus)} and {len(minus)})",
        )
    if plus[0] != minus[0]:
        return CheckReport(
            "smallest_weights",
            FAIL,
            f"smallest weights differ: a1={plus[0]} vs b1={minus[0]}",
            {"a1": plus[0], "b1": minus[0]},
        )
    if plus[1] != minus[1]:
        return CheckReport(
            "smallest_weights",
            FAIL,
            f"second-smallest weights differ: a2={plus[1]} vs b2={minus[1]}",
            {"a2": plus[1], "b2": minus[1]},
        )
    a2 = plus[1]
    idx_plus = {i for i, w in enumerate(plus) if w == a2}
    idx_minus = {i for i, w in enumerate(minus) if w == a2}
    if idx_plus != idx_minus:
        return CheckReport(
            "smallest_weights",
            FAIL,
            f"positions of value {a2} differ between sign classes: "
            f"{sorted(idx_plus)} vs {sorted(idx_minus)}",
            {"a2": a2},
        )
    return CheckReport(
        "smallest_weights", PASS, f"a1=b1={plus[0]}, a2=b2={a2}, multiplicity clause holds"
    )


def check_uniform_weight_balance(d: FixedPointData) -> CheckReport:
    """If every weight equals one value, the two sign counts must be equal."""
    values = {w for p in d.points for w in p.weights}
    if len(values) != 1:
        return CheckReport(
            "uniform_weight_balance",
            INAPPLICABLE,
            f"weights not uniform (values {sorted(values)})" if values else "empty data",
        )
    plus = sum(1 for p in d.points if p.sign == 1)
    minus = len(d.points) - plus
    if plus == minus:
        return CheckReport(
            "uniform_weight_balance", PASS, f"{plus} points of each sign"
        )
    return CheckReport(
        "uniform_weight_balance",
        FAIL,
        f"uniform weight {values.pop()} but {plus} positive vs {minus} negative points",
        {"plus": plus, "minus": minus},
    )


def _pair_witness(p, q, w: int):
    """Search for (sigma, nu) making the residue and sign relations hold.

    Both points carry the weight w exactly once; the remaining weights are
    compared modulo w under a bijection sigma and sign map nu, with
    eps(p) = eps(q) * (-1)**(nu_minus + 1).
    """
    rest_p = list(p.weights)
    rest_p.remove(w)
    rest_q = list(q.weights)
    rest_q.remove(w)
    m = len(rest_p)
    for sigma in itertools.permutations(range(m)):
        for nu in itertools.product((1, -1), repeat=m):
            if any((rest_p[i] - nu[i] * rest_q[sigma[i]]) % w for i in range(m)):
                continue
            nu_minus = sum(1 for v in nu if v == -1)
            if p.sign != q.sign * (-1) ** (nu_minus + 1):
                continue
            return {"sigma": sigma, "nu": nu, "nu_minus": nu_minus}
    return None


def check_congruence_pairing(d: FixedPointData, w: int) -> CheckReport:
    """Pair the points carrying weight w so that residues and signs match.

    Applicable only when no proper multiple of w occurs as a weight and no
    point carries w with multiplicity above 1; otherwise the hypothesis
    about the w-isotropy submanifold is ambiguous at data level.

    The search pairs the first unpaired carrier with each later one in turn
    and recurses, skipping pairs without a witness; each pair's witness is
    computed at most once.  Pairings are tried in the order that lists all
    perfect pairings lexicographically, so the pairing reported is the
    first one in that order whose pairs all have witnesses.

    Whether the remaining carriers can be paired depends only on the
    multiset of their (sign, weights), so a sub-search that fails is
    recorded under that multiset and never repeated.  Only failing
    subtrees are cut, so the pairing found is unchanged, and the search
    visits at most one failing sub-search per sub-multiset of the carriers.
    """
    if w < 1:
        raise ValueError("w must be positive")
    name = f"congruence_pairing(w={w})"
    all_weights = [x for p in d.points for x in p.weights]
    multiples = sorted({x for x in all_weights if x != w and x % w == 0})
    if multiples:
        return CheckReport(
            name, INAPPLICABLE, f"proper multiples of {w} occur as weights: {multiples}"
        )
    heavy = [p for p in d.points if list(p.weights).count(w) > 1]
    if heavy:
        return CheckReport(
            name,
            INAPPLICABLE,
            f"a point carries weight {w} with multiplicity > 1: {heavy[0]}",
        )
    carriers = [i for i, p in enumerate(d.points) if w in p.weights]
    if not carriers:
        return CheckReport(name, PASS, f"no point carries weight {w}")
    if len(carriers) % 2:
        return CheckReport(
            name, FAIL, f"odd number of points carry weight {w}: {len(carriers)}"
        )
    witnesses: dict[tuple[int, int], Optional[dict]] = {}

    def witness(i: int, j: int) -> Optional[dict]:
        if (i, j) not in witnesses:
            witnesses[(i, j)] = _pair_witness(d.points[i], d.points[j], w)
        return witnesses[(i, j)]

    dead: set[tuple] = set()

    def kinds(rest: list[int]) -> tuple:
        return tuple(sorted((d.points[i].sign, d.points[i].weights) for i in rest))

    def first_pairing(rest: list[int]) -> Optional[list[dict]]:
        """The first pairing of rest, in the order that pairs rest[0] with
        each later point in turn, whose pairs all have witnesses."""
        if not rest:
            return []
        if dead and kinds(rest) in dead:
            return None
        first = rest[0]
        for k in range(1, len(rest)):
            found = witness(first, rest[k])
            if found is None:
                continue
            tail = first_pairing(rest[1:k] + rest[k + 1 :])
            if tail is not None:
                return [{"pair": (first, rest[k]), **found}] + tail
        dead.add(kinds(rest))
        return None

    assignments = first_pairing(carriers)
    if assignments is not None:
        return CheckReport(
            name,
            PASS,
            f"pairing found: {[a['pair'] for a in assignments]}",
            {"pairing": assignments},
        )
    return CheckReport(
        name,
        FAIL,
        f"no perfect pairing of points {carriers} satisfies the mod-{w} "
        "congruences and sign relation",
        {"carriers": carriers},
    )


def check_signature_constant(d: FixedPointData) -> CheckReport:
    """The signature sum must be constant in t and equal sum_p eps(p);
    in dimension 6 (indeed whenever 4 does not divide the dimension) the
    constant must additionally vanish."""
    if not d.points:
        return CheckReport("signature_constant", INAPPLICABLE, "empty data")
    result = signature_exact(d)
    if not result.is_constant:
        return CheckReport(
            "signature_constant",
            FAIL,
            f"signature sum is not constant; first deviation at degree "
            f"{result.witness_degree}",
            {"witness_degree": result.witness_degree},
        )
    expected = signature_value(d)
    if result.constant != expected:
        return CheckReport(
            "signature_constant",
            FAIL,
            f"constant {result.constant} != sum of signs {expected}",
            {"constant": result.constant},
        )
    if d.arity % 2 == 1 and result.constant != 0:
        return CheckReport(
            "signature_constant",
            FAIL,
            f"dimension {d.dimension} not divisible by 4 forces signature 0, "
            f"got {result.constant}",
            {"constant": result.constant},
        )
    return CheckReport(
        "signature_constant", PASS, f"constant {result.constant}",
        {"constant": result.constant},
    )


def run_all(
    d: FixedPointData, weights_to_pair: Optional[Iterable[int]] = None
) -> list[CheckReport]:
    """Run the full suite; by default every distinct weight value is tried
    for the congruence-pairing check."""
    reports = [
        check_weight_parity(d),
        check_parity_dimension(d) if d.points else CheckReport(
            "parity_dimension", PASS, "empty data"
        ),
        check_smallest_weights(d),
        check_uniform_weight_balance(d),
        check_abbv(d),
        check_signature_constant(d),
    ]
    if weights_to_pair is None:
        weights_to_pair = sorted({w for p in d.points for w in p.weights})
    for w in sorted(set(weights_to_pair)):
        reports.append(check_congruence_pairing(d, w))
    return reports


def overall_verdict(reports: Iterable[CheckReport]) -> bool:
    """True iff no applicable check failed."""
    return not any(r.failed for r in reports)
