"""Numeric evaluation of the desingularized double zeta.

Each double zeta is a Hurwitz head plus the Bernoulli expansion of its
tail.  The three shifted terms of the combination keep s1 + s2, so their
tail expansions combine order by order into one sum after one head, with
every pole cancelled: the singular hyperplanes of the individual terms,
such as s2 = 1, need no other route.  On the line s2 = -l that expansion
is exact for every term of the outer sum, so it needs no head, and the
sum is finite: at l <= 1 too, where a shifted term is singular, and on
the singular hyperplanes s1 + s2 = -k - l.  Where the error estimate
misses the tolerance, the sum is tried once more with another head
length, and a point whose estimate still misses it is refused.  The
script compares against closed-form targets and against the exact
rational values at non-positive integers.
"""

from deszeta import desing2, desing_value_r2_closed, riemann_zeta

z = lambda s: riemann_zeta(s).value.real

print("Sample values against closed forms in single zetas:")
targets = [
    ((-1, 1), 1 / 8, "1/8"),
    ((1, 1), 1 / 2, "1/2"),
    ((2, 1), -z(2) + 2 * z(3), "-zeta(2) + 2 zeta(3)"),
    ((3, -3), 3 / 4 - z(3) / 15, "3/4 - zeta(3)/15"),
    ((-1, 4), z(3) - z(4), "zeta(3) - zeta(4)"),
]
for (s1, s2), want, label in targets:
    r = desing2(s1, s2)
    print("  (%g, %g): %+.12f  vs %s  (dev %.1e, %s)"
          % (s1, s2, r.value.real, label, abs(r.value - want), r.method))
print()

print("The non-positive integer grid: the continued value must land on the")
print("exact rational from the convolution formula.  On s2 = -l the three terms")
print("combine into one finite sum of single zetas, summed exactly, also at")
print("l <= 1, where a shifted term is singular.")
for k in range(4):
    for l in range(4):
        exact = desing_value_r2_closed(k, l, 1, 1)
        r = desing2(-k, -l)
        dev = abs(r.value - float(exact))
        print("  (-%d, -%d): %+.10f  exact %-10s dev %.1e  %s"
              % (k, l, r.value.real, exact, dev, r.method))
print()

print("Error estimates travel with every result:")
for label, point in (("regular point", (3, 4)), ("exact grid", (-2, -1)),
                     ("on s2 = 1", (-2, 1))):
    r = desing2(*point)
    print("  %-13s %-9s value %+.14f, err %.1e, %s"
          % (label, "(%d, %d):" % point, r.value.real, r.err_estimate, r.method))
print()

print("Within 1e-6 of s1 + s2 = -8 at tol 1e-6, where head and tail cancel: a")
print("point whose estimate misses tol at both head lengths is refused.")
for (s1, s2), weights in (
        ((-4.503994571372557 - 0.3199782561410334j, -3.496005428806521 + 0.3199782527400359j),
         (1, 1)),
        ((-8.562091872273625 + 0.43501478512610176j, 0.5620921904798539 - 0.4350149100354832j),
         (0.5, 2))):
    r = desing2(s1, s2, *weights, tol=1e-6)
    print("  weights %-8s err %.1e, %-15s %s"
          % ("(%g, %g)" % weights, r.err_estimate, r.method,
             "meets tol" if r.err_estimate <= 1e-6 else "misses tol: `eval` exits 3"))
