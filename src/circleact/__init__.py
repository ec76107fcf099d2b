"""Fixed-point data of circle actions on compact oriented manifolds.

Exact verification (localization and signature identities), multigraph
admissibility, classification of the small cases, and the rewriting system
that reduces realizable data to the empty collection.
"""

from .core import (
    FixedPointData,
    FixedPointDatum,
    data,
    disjoint_union,
    from_complex_weights,
    parse,
    reverse_orientation,
    serialize,
)
from .series import (
    TruncatedSeries,
    signature_exact,
    signature_series,
    signature_value,
)
from .constraints import abbv_integral_one, run_all, overall_verdict
from .multigraph import (
    LabeledMultigraph,
    describes,
    enumerate_admissible,
    match_figure1,
    parse_graph,
    serialize_graph,
)
from .classify import (
    classify_6d4fp,
    classify_two_fixed_points,
    membership_4d,
    replay_4d_trace,
)
from .rewrite import applicable_moves, apply_move, collection_from_data, reduce_to_empty
from .generators import gen_blowup, gen_cp2, gen_cp3, gen_s6, gen_s6_pair

__version__ = "0.1.0"

__all__ = [
    "FixedPointData",
    "FixedPointDatum",
    "LabeledMultigraph",
    "TruncatedSeries",
    "abbv_integral_one",
    "applicable_moves",
    "apply_move",
    "classify_6d4fp",
    "classify_two_fixed_points",
    "collection_from_data",
    "data",
    "describes",
    "disjoint_union",
    "enumerate_admissible",
    "from_complex_weights",
    "gen_blowup",
    "gen_cp2",
    "gen_cp3",
    "gen_s6",
    "gen_s6_pair",
    "match_figure1",
    "membership_4d",
    "overall_verdict",
    "parse",
    "parse_graph",
    "reduce_to_empty",
    "replay_4d_trace",
    "reverse_orientation",
    "run_all",
    "serialize",
    "serialize_graph",
    "signature_exact",
    "signature_series",
    "signature_value",
]
