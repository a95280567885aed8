"""Self-tests of the benchmark's own metric, tracing and reference code.

    python3 -m pytest -q perfbench/test_metrics.py
"""

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics as M  # noqa: E402
import reference as R  # noqa: E402
import tracing  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    assert M.percentile(list(range(19)), 50) is None
    assert M.percentile(list(range(20)), 50) == 9  # rank 10, ten samples above
    assert M.percentile(list(range(199)), 95) is None
    assert M.percentile(list(range(200)), 95) == 189
    assert M.percentile([], 50) is None


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 3.0, 0),
        _span("c", 2.0, 4.0, 0),  # overlaps b: covered once
        _span("d", 1.5, 2.5, 1),  # grandchild: only b loses it
        _span("e", 6.0, 7.0, 0),
        _span("f", 9.5, 11.0, 0),  # clipped to the parent's end
    ]
    own = tracing.self_times(spans)
    assert own == [10.0 - 3.0 - 1.0 - 0.5, 1.0, 2.0, 1.0, 1.0, 1.5]


def test_tracer_nests_spans_and_counts():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.count("leaf", lambda x: x + 1)
    inner = tracer.span("layer.inner", lambda x: leaf(x))
    outer = tracer.span("layer.outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner", "layer.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counts["leaf"] == 2
    calls, self_s = tracing.summarize(tracer)
    assert calls["layer.inner"] == 2
    assert self_s["layer.outer"] == (5 - 0) - (2 - 1) - (4 - 3)


def test_fail_frac_counts_every_kind_of_failure():
    tol = 1e-6
    ok = {"status": "ok", "value": [1.0, 0.0], "err": 1e-9}
    raised = {"status": "raised"}
    refused_by_error = {"status": "refused"}
    refused_by_estimate = {"status": "ok", "value": [1.0, 0.0], "err": 1e-3}
    outcomes = [
        M.classify_numeric(ok, tol, 1.0),
        M.classify_numeric(raised, tol, 1.0),
        M.classify_numeric(refused_by_error, tol, 1.0),
        M.classify_numeric(refused_by_estimate, tol, 1.0),
        M.classify_numeric(ok, tol, 1.0 + 1e-5),  # accepted, silently wrong
        M.classify_exact({"status": "ok", "rc": 0, "sha256": "x"}, "x"),
        M.classify_exact({"status": "ok", "rc": 0, "sha256": "x"}, "y"),
        M.classify_exact({"status": "ok", "rc": 2, "sha256": "x"}, "x"),
        M.classify_exact({"status": "raised"}, "x"),
    ]
    assert outcomes == [M.OK, M.RAISED, M.REFUSED, M.REFUSED, M.WRONG,
                        M.OK, M.MISMATCH, M.MISMATCH, M.RAISED]
    assert M.fail_frac(outcomes) == 7 / 9


def test_accuracy_grades_every_accepted_point():
    results = [
        {"status": "ok", "value": [1.0, 0.0], "err": 1e-8},
        {"status": "ok", "value": [2.0, 0.0], "err": 1e-2},  # refused: not graded
        {"status": "ok", "value": [3.0, 0.0], "err": 1e-8},  # silently wrong
        {"status": "refused"},
    ]
    max_err, ratio, outcomes = M.numeric_accuracy(
        results, [1.0 + 4e-7, 0.0, 3.0 + 2e-6, 5.0], 1e-6)
    assert abs(max_err - 2e-6) < 1e-12
    assert abs(ratio - 200.0) < 1e-3
    assert outcomes == [M.OK, M.REFUSED, M.WRONG, M.REFUSED]
    assert M.error_ratio(0.0, 0.0, 1.0) == 1.0


def test_every_drawable_point_has_a_recorded_reference():
    import run
    import workloads as W

    points = W.recorded_points()
    assert len(run.numeric_references(points)) == len(points)
    for workload in ("numeric-regular", "numeric-continuation"):
        items = W.items(workload, 7)
        assert len(run.numeric_references(items)) == len(items)
    moved = dict(points[0], s1=[points[0]["s1"][0] + 1e-12, points[0]["s1"][1]])
    with pytest.raises(run.BenchmarkError):
        run.numeric_references([moved])


def test_grid_reference_matches_known_values():
    assert R.grid_value(0, 2, 1, 1) == Fraction(1, 18)
    assert R.grid_value(0, 0, 1, 1) == Fraction(1, 4)  # B_1^2
    assert R.grid_value(1, 0, Fraction(1, 2), 3) == -R.bernoulli(2) * R.bernoulli(1) / 2


def test_mpmath_reference_against_nsum_and_grid():
    for s1, s2, g1, g2 in ((3.5, 2.5, 1, 1), (3 + 0.5j, 2.5 + 0.3j, Fraction(1, 2), 2)):
        value, trunc = R.double_zeta_reference(s1, s2, g1, g2)
        assert trunc < 1e-20
        assert abs(value - R.double_zeta_nsum(s1, s2, g1, g2)) < 1e-13
    # the combination is entire: 1e-9 off the grid point it matches the closed form
    near = R.desing2_mp(-3 + 1e-9, -3 + 0.6e-9, Fraction(1, 2), Fraction(3, 2), extra_digits=12)
    exact = float(R.grid_value(3, 3, Fraction(1, 2), Fraction(3, 2)))
    assert abs(near - exact) < 1e-8


def test_tracer_refuses_names_the_package_lacks():
    import types

    with pytest.raises(LookupError):
        tracing._lookup(types.ModuleType("deszeta.gone"), "hurwitz_zeta")
    with pytest.raises(LookupError):
        tracing._method(type("Series", (), {}), "__mul__")


def test_tracer_reaches_internal_calls():
    import deszeta

    tracer = tracing.Tracer()
    tracing.install(tracer, deszeta)  # stays installed; no other test uses the package
    deszeta.desing2(-3, -3)
    calls, _ = tracing.summarize(tracer)
    assert calls["numeric.desing2"] == 1
    assert calls["numeric.hurwitz_zeta"] == 945


def test_wall_sums_each_items_fastest_pass():
    passes = [{"results": [{"time": 1.0}, {"time": 5.0}]},
              {"results": [{"time": 2.0}, {"time": 3.0}]}]
    assert M.best_item_sum(passes) == 4.0
