"""Exact desingularized values at non-positive integers.

The desingularized multiple zeta-function is entire, so its values at tuples
of non-positive integers are honest finite numbers, and they turn out to be
rational.  Depth 1 reproduces the Bernoulli numbers; depth 2 and 3 values
come from a sum over triangular arrays of indices, cross-checked here
against an independent generating-function oracle.
"""

from fractions import Fraction

from deszeta import desing_value_exact, desing_value_oracle
from deszeta.exact import format_rational

print("Depth 1: value at -k equals (-1)^k B_(k+1).")
for k in range(7):
    v = desing_value_exact((k,), (Fraction(1),))
    print("  k=%d: %s" % (k, format_rational(v)))
print()

print("Depth 2 table at unit weights (rows k1, columns k2):")
for k1 in range(4):
    row = []
    for k2 in range(4):
        row.append(format_rational(desing_value_exact((k1, k2), (Fraction(1), Fraction(1)))))
    print("  " + "  ".join("%-8s" % x for x in row))
print()
print("The (0, 2) entry is 1/18; renormalization schemes built on other")
print("regularizations assign different constants to this point, so the")
print("value is a good fingerprint of the desingularized definition.")
print()

print("Weights matter: the same index with gamma = (1/2, 3):")
v = desing_value_exact((0, 2), (Fraction(1, 2), Fraction(3)))
print("  value:", format_rational(v))
print()

print("Cross-check against the generating-function oracle at depth 3:")
gammas = (Fraction(2), Fraction(1, 3), Fraction(1, 5))
for k in ((0, 0, 0), (1, 0, 2), (2, 2, 1)):
    a = desing_value_exact(k, gammas)
    b = desing_value_oracle(k, gammas)
    print("  k=%s: %s  (%s)" % (k, format_rational(a), "ok" if a == b else "MISMATCH"))
