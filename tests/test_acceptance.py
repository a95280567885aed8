"""Acceptance gate: the twelve primary criteria, one pass/fail line each.

Criterion NN is the NN-th check of ``verify.SUITES["exact"] +
verify.SUITES["numeric"]``, the same checks ``deszeta verify`` runs.  Each
test prints "criterion NN: PASS" (or FAIL) on stderr and asserts the
criterion's runtime gate where it carries one.  Criterion 06 also compares
the nu-matrix route with the per-index oracle, which stays out of
``verify`` because the benchmark times ``verify --suite exact``.
"""

import math
import sys
import time
from itertools import product

import pytest

from deszeta import verify
from deszeta.values import desing_value_exact, desing_value_oracle

CHECKS = verify.SUITES["exact"] + verify.SUITES["numeric"]
# runtime gate in seconds, by criterion number
LIMITS = {1: 1.0, 2: 10.0, 3: 5.0, 9: 60.0}


def nu_matrices_match_oracle():
    return all(
        desing_value_exact(k, gammas) == desing_value_oracle(k, gammas)
        for r, samples in verify.DESING_SAMPLES.items()
        for gammas in samples
        for k in product(range(5), repeat=r)
    )


def test_gate_runs_the_twelve_checks():
    assert [cid for cid, _ in CHECKS] == [
        "exact-01-frozen-tables", "exact-02-two-constructions",
        "exact-03-root-sum", "exact-04-double-convolution",
        "exact-05-root-pair-sum", "exact-06-desing-routes",
        "exact-07-integer-values", "numeric-01-hurwitz-kernel",
        "numeric-02-value-table", "numeric-03-cross-engine",
        "numeric-04-regular-point", "numeric-05-across-the-planes",
    ]


@pytest.mark.parametrize("number, cid, check", [
    pytest.param(n, cid, check, id="%02d-%s" % (n, cid))
    for n, (cid, check) in enumerate(CHECKS, 1)
])
def test_criterion(number, cid, check):
    start = time.perf_counter()
    worst, passed = check()
    seconds = time.perf_counter() - start
    if cid == "exact-06-desing-routes":
        passed = passed and nu_matrices_match_oracle()
    limit = LIMITS.get(number, math.inf)
    ok = passed and seconds < limit
    print("criterion %02d: %s" % (number, "PASS" if ok else "FAIL"), file=sys.stderr)
    assert ok, "criterion %02d (%s): worst %.3e, %.2f s, limit %g s" % (
        number, cid, worst, seconds, limit)
