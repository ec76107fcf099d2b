# Necessary conditions on fixed-point data
#
# A circle action on a compact oriented manifold with isolated fixed points
# leaves a small combinatorial residue: at each fixed point, a sign and a
# multiset of positive integer weights.  Not every such assignment comes
# from an actual manifold.  This script runs the data-level obstructions
# on a few inputs and shows the signature series that powers the strongest
# of them.

from fractions import Fraction

from circleact import (
    data,
    run_all,
    overall_verdict,
    abbv_integral_one,
    signature_series,
    signature_exact,
)

# The Petrie-type example: four fixed points, two opposite-sign pairs.
petrie = data((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))

print("== Petrie-type data ==")
for report in run_all(petrie):
    print(" ", report)
print("overall:", "PASS" if overall_verdict(run_all(petrie)) else "FAIL")

# The localization sum is an exact rational number; for realizable data
# it must vanish.
print("\nlocalization sum:", abbv_integral_one(petrie))

# A cooked-up counterexample.  Weight multiplicities are all even and the
# smallest weights agree, so the cheap checks pass; the localization sum
# catches it anyway.
fake = data((1, 1, 2, 4), (1, 1, 2, 3), (-1, 2, 3, 4), (-1, 1, 1, 2))
print("\n== non-realizable data ==")
for report in run_all(fake):
    print(" ", report)
assert abbv_integral_one(fake) == Fraction(-1, 4)

# The signature check works with the rational function
#   sum_p eps(p) * prod_i (1 + t^{w_i}) / (1 - t^{w_i})
# which must be a constant in t.  Its power series, computed with integer
# arithmetic, makes the failure visible degree by degree.  Over the common
# denominator prod (1 - t^w), of degree S = the sum of all weights, the sum
# is constant exactly when the series vanishes in degrees 1..S, so S + 1
# coefficients decide the question and the first nonzero one is the witness.
print("\nsignature series of the fake data (orders 0..6):")
print(" ", [str(c) for c in signature_series(fake, 6).coeffs])

res = signature_exact(fake)
print("constant?", res.is_constant, "- first deviation at degree", res.witness_degree)

res = signature_exact(petrie)
print("Petrie data is constant:", res.is_constant, "with value", res.constant)
