"""Metric arithmetic of the benchmark, kept free of process and I/O code so
that it can be tested on its own (see test_metrics.py)."""

import math

# outcomes of one item; every outcome other than OK counts as failed
OK = "ok"
RAISED = "raised"  # an exception other than a refusal
REFUSED = "refused"  # ToleranceError, or err_estimate above the tolerance
WRONG = "wrong"  # accepted, but the true error is above the tolerance
MISMATCH = "mismatch"  # exact output differs from the recorded seed output
OUTCOMES = (OK, RAISED, REFUSED, WRONG, MISMATCH)

MIN_BEYOND = 10  # a percentile is reported only with this many samples beyond it

# error of a double result that no estimate can be blamed for
ROUNDING = 2.0 ** -52


def percentile(samples, q):
    """The q-th percentile (0 < q < 100) by the nearest-rank rule, or None
    when fewer than MIN_BEYOND samples lie above it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def best_item_sum(passes):
    """Time of the item list: each item's fastest time over the passes,
    summed.  The minimum (as timeit takes it) discards the slow periods of a
    shared machine, which would otherwise swing the result by 20%."""
    return sum(min(p["results"][i]["time"] for p in passes)
               for i in range(len(passes[0]["results"])))


def classify_numeric(result, tol, reference):
    """Outcome of one numeric point, given the child's result record
    ({"status": "ok"|"refused"|"raised", "value": [re, im], "err": float})
    and the point's reference value."""
    if result["status"] != OK:
        return result["status"]
    if result["err"] > tol:
        return REFUSED
    if abs(complex(*result["value"]) - reference) > tol:
        return WRONG
    return OK


def classify_exact(result, digest):
    if result["status"] != OK:
        return RAISED
    if result["rc"] != 0 or result["sha256"] != digest:
        return MISMATCH
    return OK


def fail_frac(outcomes):
    return sum(o != OK for o in outcomes) / len(outcomes)


def error_ratio(true_err, estimate, reference):
    """True error over the estimate, both floored at double rounding of the
    reference, so that two rounding-level numbers do not make a large ratio."""
    floor = ROUNDING * max(1.0, abs(reference))
    return max(true_err, floor) / max(estimate, floor)


def numeric_accuracy(results, references, tol):
    """(max_abs_err, err_ratio_max, outcomes) over one workload's points,
    given one reference value per point; errors are taken over accepted
    points."""
    max_err = 0.0
    max_ratio = 0.0
    outcomes = []
    for result, reference in zip(results, references, strict=True):
        outcome = classify_numeric(result, tol, reference)
        outcomes.append(outcome)
        if outcome in (RAISED, REFUSED):
            continue
        err = abs(complex(*result["value"]) - reference)
        max_err = max(max_err, err)
        max_ratio = max(max_ratio, error_ratio(err, result["err"], reference))
    return max_err, max_ratio, outcomes


def layer_metrics(calls, self_s, counts, results, outcomes):
    """The per-layer metrics of one traced pass.

    ``calls``/``self_s`` map span names to call counts and summed self
    times; ``counts`` holds the count-only counters; ``results`` and
    ``outcomes`` are the numeric points of the pass (empty for exact-tables).
    """
    def layer_self(layer):
        return sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    n_points = len(results)
    built = counts.get("series.terms_built", 0)
    read = counts.get("series.terms_read", 0)
    return {
        "cyclotomic.mul_calls": counts.get("cyclotomic.mul_calls", 0),
        "cyclotomic.inverse_calls": counts.get("cyclotomic.inverse_calls", 0),
        "cyclotomic.phi_lookups": counts.get("cyclotomic.phi_lookups", 0),
        "cyclotomic.twisted_bernoulli_calls": calls.get("cyclotomic.twisted_bernoulli", 0),
        "cyclotomic.self_s": layer_self("cyclotomic"),
        "series.products": counts.get("series.products", 0),
        "series.terms_built": built,
        "series.terms_read": read,
        "series.useful_ratio": read / built if built else 0.0,
        "series.self_s": layer_self("series"),
        "values.calls": layer_calls("values"),
        "values.self_s": layer_self("values"),
        "exact.bernoulli_calls": counts.get("exact.bernoulli_calls", 0),
        "exact.self_s": layer_self("exact"),
        "coeffs.table_terms": counts.get("coeffs.table_terms", 0),
        "coeffs.self_s": layer_self("coeffs"),
        "verify.self_s": layer_self("verify"),
        "cli.self_s": layer_self("cli"),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "numeric.hurwitz_calls": calls.get("numeric.hurwitz_zeta", 0),
        "numeric.hurwitz_calls_per_point":
            calls.get("numeric.hurwitz_zeta", 0) / n_points if n_points else 0.0,
        "numeric.hurwitz_self_s": self_s.get("numeric.hurwitz_zeta", 0.0),
        "numeric.double_zeta_calls": calls.get("numeric.double_zeta", 0),
        "numeric.double_zeta_self_s": self_s.get("numeric.double_zeta", 0.0),
        "numeric.desing2_self_s": self_s.get("numeric.desing2", 0.0),
        "numeric.points_direct": sum(
            1 for r in results if r["status"] == OK and r["method"] != "extrapolated"),
        "numeric.points_extrapolated": sum(
            1 for r in results if r["status"] == OK and r["method"] == "extrapolated"),
        "numeric.refused": sum(1 for o in outcomes if o == REFUSED),
        "numeric.silent_wrong": sum(1 for o in outcomes if o == WRONG),
    }


def line_counts(paths):
    """Physical line count per module name."""
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            out[path.rsplit("/", 1)[-1][:-3]] = sum(1 for _ in f)
    return out
