"""Necessary conditions on realizable fixed-point data.

Each check returns a three-valued CheckReport (pass / fail / inapplicable)
with a human-readable witness, so the aggregated suite never silently skips
a condition.  Passing all checks is necessary, not sufficient, for the data
to come from an actual manifold.  Congruence-pairing witnesses are built
directly, in time quadratic in the arity, and tried at most once per pair.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import FixedPointData, FixedPointDatum
from .series import signature_exact

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


def abbv_terms(points: Sequence[FixedPointDatum]) -> tuple[int, list[int]]:
    """The lcm L of the points' weight products and each point's term
    sign * L / product, so that the localization sum is sum(terms) / L."""
    prods = [math.prod(p.weights) for p in points]
    common = math.lcm(*prods)
    return common, [p.sign * (common // prod) for p, prod in zip(points, prods)]


def abbv_integral_one(d: FixedPointData) -> Fraction:
    """sum_p eps(p) / prod_i w_pi, exactly.

    Localization applied to the class 1; vanishes for any action on a
    positive-dimensional manifold.
    """
    if not d.points:
        raise ValueError("needs non-empty data")
    common, terms = abbv_terms(d.points)
    return Fraction(sum(terms), common)


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


def smallest_weights_clause(plus: list[int], minus: list[int]) -> Optional[str]:
    """The first clause of the smallest-weights condition that the sorted
    weight lists of the +1 and -1 points violate: "a1" (smallest weights
    differ), "a2" (second-smallest differ) or "positions" (the positions
    carrying a2 differ).  None when every clause holds or a list has fewer
    than two weights.

    In each sorted list the value a2 fills a run of positions that starts
    at 0 if a1 = a2 and at 1 otherwise; once a1 and a2 agree, the runs
    start at the same index, so the positions agree exactly when a2 occurs
    equally often in both lists."""
    if len(plus) < 2 or len(minus) < 2:
        return None
    if plus[0] != minus[0]:
        return "a1"
    if plus[1] != minus[1]:
        return "a2"
    if plus.count(plus[1]) != minus.count(plus[1]):
        return "positions"
    return None


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
    clause = smallest_weights_clause(plus, minus)
    if clause == "a1":
        return CheckReport(
            "smallest_weights",
            FAIL,
            f"smallest weights differ: a1={plus[0]} vs b1={minus[0]}",
            {"a1": plus[0], "b1": minus[0]},
        )
    if clause == "a2":
        return CheckReport(
            "smallest_weights",
            FAIL,
            f"second-smallest weights differ: a2={plus[1]} vs b2={minus[1]}",
            {"a2": plus[1], "b2": minus[1]},
        )
    a2 = plus[1]
    if clause == "positions":
        idx_plus = [i for i, w in enumerate(plus) if w == a2]
        idx_minus = [i for i, w in enumerate(minus) if w == a2]
        return CheckReport(
            "smallest_weights",
            FAIL,
            f"positions of value {a2} differ between sign classes: "
            f"{idx_plus} vs {idx_minus}",
            {"a2": a2},
        )
    return CheckReport(
        "smallest_weights", PASS, f"a1=b1={plus[0]}, a2=b2={a2}, multiplicity clause holds"
    )


def uniform_weight_balance_fails(plus: list[int], minus: list[int]) -> bool:
    """Every weight has one value, yet the weight lists of the +1 and -1
    points differ in length, that is (all points having one arity) the two
    signs count different numbers of points."""
    return len({*plus, *minus}) == 1 and len(plus) != len(minus)


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
    if not uniform_weight_balance_fails(*signed_weight_lists(d)):
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
    """The first (sigma, nu), with sigma lexicographic and then nu with +1
    before -1, such that x_i = nu_i * y_sigma(i) (mod w) for the weights x
    of p and y of q other than w (each carries w once), and
    eps(p) = eps(q) * (-1)**(nu_minus + 1).  It is built directly:

    * Residues match only within a class {r, -r}, so any choice inside a
      class leaves a completable remainder: taking for each x the least
      unused y of its class gives the first sigma.
    * Within a class with r != -r, nu is forced and the parity of its -1's
      is the same under every sigma.  So only a free position, where both
      signs hold (residue 0 or w/2), can change the parity of nu_minus; the
      first nu flips the last free position when the signs need it.
    """
    rest_p = list(p.weights)
    rest_p.remove(w)
    rest_q = list(q.weights)
    rest_q.remove(w)
    unused = list(range(len(rest_q)))
    sigma, nu, free = [], [], None
    for i, x in enumerate(rest_p):
        for j in unused:
            plus, minus = (x - rest_q[j]) % w == 0, (x + rest_q[j]) % w == 0
            if plus or minus:
                break
        else:
            return None
        unused.remove(j)
        sigma.append(j)
        nu.append(1 if plus else -1)
        if plus and minus:
            free = i
    nu_minus = nu.count(-1)
    if p.sign != q.sign * (-1) ** (nu_minus + 1):
        if free is None:
            return None
        nu[free] = -1
        nu_minus += 1
    return {"sigma": tuple(sigma), "nu": tuple(nu), "nu_minus": nu_minus}


def check_congruence_pairing(d: FixedPointData, w: int) -> CheckReport:
    """Pair the points carrying weight w so that residues and signs match.

    Applicable only when no proper multiple of w occurs as a weight and no
    point carries w with multiplicity above 1; otherwise the hypothesis
    about the w-isotropy submanifold is ambiguous at data level.

    Whether two carriers have a witness depends only on each one's key,
    the multiset of its other weights' residues mod w taken up to sign, and
    on t = sign * (-1)**(number of those residues above w/2): the keys must
    be equal, and the t's opposite unless the key holds w/2 (whose sign is
    free).  So the carriers can be paired exactly when, for each key, the
    two values of t are equally frequent (or, for a key holding w/2, the
    key occurs an even number of times), and removing a witnessed pair
    keeps that so.  The search therefore pairs the first unpaired carrier
    with its first witnessed partner and never backtracks: if the carriers
    left cannot be paired, none can.  The pairing found is the first, in
    the order that lists all perfect pairings lexicographically, whose
    pairs all have witnesses.
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
    assignments = []
    rest = list(carriers)
    while rest:
        first = rest.pop(0)
        for k, partner in enumerate(rest):
            found = _pair_witness(d.points[first], d.points[partner], w)
            if found is not None:
                break
        else:
            return CheckReport(
                name,
                FAIL,
                f"no perfect pairing of points {carriers} satisfies the mod-{w} "
                "congruences and sign relation",
                {"carriers": carriers},
            )
        del rest[k]
        assignments.append({"pair": (first, partner), **found})
    return CheckReport(
        name,
        PASS,
        f"pairing found: {[a['pair'] for a in assignments]}",
        {"pairing": assignments},
    )


def check_signature_constant(d: FixedPointData) -> CheckReport:
    """The signature sum must be constant in t; in dimension 6 (indeed
    whenever 4 does not divide the dimension) the constant must vanish.
    Every factor (1+t^w)/(1-t^w) is 1 at t=0, so a constant sum equals
    sum_p eps(p) by construction."""
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
