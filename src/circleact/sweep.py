"""Desk-scale enumeration oracle.

Enumerates every canonical fixed-point data of a given shape (number of
points, arity, weight bound) up to point permutation, runs the constraint
suite with cheap checks first, tests for an admissible 4-vertex multigraph
matching one of the five shapes, and cross-tabulates the survivors against
the classification.

The cheap checks are decided per point kind.  Each of the
2·C(W+arity−1, arity) kinds gets, before the walk, its printed form, a
weight-parity mask (bit w set iff w occurs an odd number of times in the
kind) and its abbv term sign·L/Π weights, L the lcm of every kind's weight
product.  A candidate is a nondecreasing tuple of kind indices, and the walk
carries each prefix's text, mask XOR and term sum down to the candidates
that extend it:

* a candidate fails weight parity exactly when its mask is nonzero (106,624
  of 123,410 at four points, arity 3, W = 4);
* a zero-mask candidate has an even number of weights, so it passes
  parity_dimension, and uniform_weight_balance and smallest_weights are
  decided by the predicates of ``constraints`` on its sorted per-sign weight
  lists;
* abbv_integral_one fails exactly when the term sum is nonzero.

A candidate that fails one of these gets its row without being built as a
``FixedPointData``.  Only the rest (250 at W = 4) are built and run through
the signature check, the congruence pairing, the graph tagging and the
classification.

The walk visits the kinds of each level in the order of their printed
forms, so the rows come out sorted by text with no sort afterwards (the
argument is in ``_Walk``), and ``to_csv`` formats each distinct tail of
the four other fields once.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .core import FixedPointData, FixedPointDatum
from . import constraints
from .classify import NotInClassification, UnsupportedShape, classify, figure1_taggable
from .multigraph import enumerate_admissible, match_figure1


def point_kinds(arity: int, max_weight: int) -> list[FixedPointDatum]:
    """Every point of the given arity with weights <= max_weight, sorted by
    (sign, weights)."""
    weight_tuples = list(
        itertools.combinations_with_replacement(range(1, max_weight + 1), arity)
    )
    return [FixedPointDatum(sign, ws) for sign in (-1, 1) for ws in weight_tuples]


def parity_mask(p: FixedPointDatum) -> int:
    """Bit w is set iff the weight w occurs an odd number of times in p."""
    mask = 0
    for w in p.weights:
        mask ^= 1 << w
    return mask


def enumerate_candidates(
    points: int, arity: int, max_weight: int
) -> Iterator[FixedPointData]:
    """All data with the given shape and weights <= max_weight, canonical
    up to permutation of the point list."""
    for combo in itertools.combinations_with_replacement(
        point_kinds(arity, max_weight), points
    ):
        yield FixedPointData(combo)


class SweepRow(NamedTuple):
    serialized: str
    checks_passed: bool
    failed_checks: tuple[str, ...]
    figure1_tags: tuple[str, ...]
    classification: str


def _signature_then_pairing(d: FixedPointData) -> tuple[bool, tuple[str, ...]]:
    """The checks left once the walk has passed a candidate through the
    cheap ones: the signature identity, then congruence pairing for every
    weight value."""
    r = constraints.check_signature_constant(d)
    if r.failed:
        return False, (r.name,)
    failed = []
    for w in sorted({x for p in d.points for x in p.weights}):
        r = constraints.check_congruence_pairing(d, w)
        if r.failed:
            failed.append(r.name)
    return not failed, tuple(failed)


def classify_label(d: FixedPointData) -> str:
    try:
        verdict = classify(d)
    except UnsupportedShape:
        return ""
    labels = []
    for m in verdict.matches:
        if isinstance(m, NotInClassification):
            labels.append("NotInClassification")
        else:
            labels.append(type(m).__name__.replace("Match", ""))
    return "+".join(sorted(set(labels)))


def _checked_row(d: FixedPointData, serialized: str) -> SweepRow:
    """The row of a candidate that passes every cheap check."""
    ok, failed = _signature_then_pairing(d)
    tags: tuple[str, ...] = ()
    classification = ""
    if ok:
        if figure1_taggable(d):
            found = []
            for g in enumerate_admissible(d):
                case = match_figure1(g)
                if case is not None:
                    found.append(case.tag)
            tags = tuple(sorted(set(found)))
        classification = classify_label(d)
    return SweepRow(serialized, ok, failed, tags, classification)


_PARITY_FAILED = ("weight_parity",)


class _Walk:
    """The per-sweep tables of the point kinds and the rows written so far.

    A candidate is a nondecreasing tuple of kind indices, and its row's text
    joins the kinds' texts in that order with ``; ``.  ``descend`` carries
    each prefix's text (with a trailing separator), XOR of parity masks and
    abbv numerator, and at every level visits the indices >= start in the
    order of the kinds' texts (``after[start]``), so the rows come out
    sorted by text.

    Why: every kind text ends with ``}`` and has no other ``}``, so no kind
    text is a prefix of another, and two row texts first differ inside the
    first pair of kind texts that differ.  The order of the row texts is
    therefore the lexicographic order of their tuples of kind texts, which
    is the order of the walk.  That holds whatever the kinds' own order:
    with two-digit weights the text order ``{+,1,10}`` < ``{+,1,2}`` is not
    the numeric one, and ``+`` sorts before ``-``."""

    def __init__(self, arity: int, max_weight: int):
        self.kinds = point_kinds(arity, max_weight)
        self.texts = [str(p) for p in self.kinds]
        self.masks = [parity_mask(p) for p in self.kinds]
        self.terms = constraints.abbv_terms(self.kinds)[1]
        self.half = len(self.kinds) // 2  # kinds below it have sign -1
        by_text = sorted(range(len(self.texts)), key=self.texts.__getitem__)
        # after[len(kinds)] is empty: a weight bound below 1 leaves no kinds
        self.after = [
            [i for i in by_text if i >= start] for start in range(len(by_text) + 1)
        ]
        self.rows: list[SweepRow] = []

    def descend(
        self, start: int, left: int, text: str, mask: int, num: int, combo: tuple
    ) -> None:
        """Write, in text order, the rows of every candidate that extends the
        prefix combo by left more indices, each at least start."""
        texts, masks, terms = self.texts, self.masks, self.terms
        if left > 1:
            for i in self.after[start]:
                self.descend(
                    i, left - 1, text + texts[i] + "; ", mask ^ masks[i],
                    num + terms[i], combo + (i,),
                )
            return
        append = self.rows.append
        for i in self.after[start]:
            if mask ^ masks[i]:
                append(SweepRow(text + texts[i], False, _PARITY_FAILED, (), ""))
            else:
                append(self.zero_mask_row(combo + (i,), text + texts[i], num + terms[i]))

    def zero_mask_row(self, combo: tuple, text: str, num: int) -> SweepRow:
        """The row of a candidate that passes weight parity: the first cheap
        check it fails, decided from its kinds, or else the checked row.

        Such a candidate has an even number of weights, points * arity, so
        it always passes parity_dimension."""
        kinds, half = self.kinds, self.half
        minus = sorted([w for i in combo if i < half for w in kinds[i].weights])
        plus = sorted([w for i in combo if i >= half for w in kinds[i].weights])
        if constraints.uniform_weight_balance_fails(plus, minus):
            failed = "uniform_weight_balance"
        elif constraints.smallest_weights_clause(plus, minus):
            failed = "smallest_weights"
        elif num:
            failed = "abbv_integral_one"
        else:
            return _checked_row(FixedPointData(tuple(kinds[i] for i in combo)), text)
        return SweepRow(text, False, (failed,), (), "")


def sweep(points: int = 4, arity: int = 3, max_weight: int = 3) -> list[SweepRow]:
    """Full oracle run: a row for every candidate, sorted by text."""
    walk = _Walk(arity, max_weight)
    if points:
        walk.descend(0, points, "", 0, 0, ())
    else:
        walk.rows.append(walk.zero_mask_row((), "", 0))
    return walk.rows


def survivors(rows: list[SweepRow]) -> list[SweepRow]:
    """Rows passing every check and possessing a tagged admissible graph."""
    return [r for r in rows if r.checks_passed and r.figure1_tags]


def to_csv(rows: list[SweepRow]) -> str:
    """The rows as CSV.  A line is ``"`` + the row's text + its tail, the
    other four fields; the tail is formatted once per distinct value (at
    four points, arity 3, W = 4, one tail serves the 106,624 parity rows)."""
    tails: dict[tuple, str] = {}
    lines = ["data,checks_passed,failed_checks,figure1_tags,classification"]
    append = lines.append
    for r in rows:
        key = r[1:]
        tail = tails.get(key)
        if tail is None:
            ok, failed, tags, classification = key
            tail = tails[key] = '",{},{},{},{}'.format(
                int(ok), "|".join(failed), "|".join(tags), classification
            )
        append('"' + r[0] + tail)
    return "\n".join(lines) + "\n"
