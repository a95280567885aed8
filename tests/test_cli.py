"""Command-line interface: output formats and the exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deszeta import cli, verify
from deszeta.cli import main
from deszeta.exact import bernoulli_number, format_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bernoulli_csv(capsys):
    code, out, _ = run(capsys, "bernoulli", "--max", "2")
    assert code == 0
    assert out.splitlines() == ["1", "-1/2", "1/6"]


def test_bernoulli_single(capsys):
    code, out, _ = run(capsys, "bernoulli", "--max", "0")
    assert code == 0
    assert out.strip() == "1"


def test_bernoulli_json(capsys):
    code, out, _ = run(capsys, "bernoulli", "--max", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == ["1", "-1/2", "1/6", "0", "-1/30"]


def test_bernoulli_negative_max(capsys):
    code, _, err = run(capsys, "bernoulli", "--max", "-1")
    assert code == 2
    assert "error" in err


def test_bernoulli_refuses_max_past_the_print_limit(capsys, monkeypatch):
    # refused before any Bernoulli number is computed
    def refuse(n):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cli, "bernoulli_number", refuse)
    code, out, err = run(capsys, "bernoulli", "--max", str(cli.MAX_BERNOULLI + 1))
    assert code == 2 and out == ""
    assert "--max" in err and "4300 digits" in err


def test_bernoulli_cap_is_the_print_limit():
    # B_2062, the last nonzero value under the cap, prints with a numerator
    # of exactly 4300 digits; B_2064's numerator has more, and does not print
    assert cli.MAX_BERNOULLI == 2063
    assert abs(bernoulli_number(2064).numerator) >= 10 ** 4300  # grows the table once
    assert len(format_rational(bernoulli_number(2062)).split("/")[0]) == 4300


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bernoulli", "--max", "2", "--bogus"])
    assert exc.value.code == 2


def test_twisted_bernoulli_json_round_trip(capsys):
    from deszeta.cyclotomic import CycloElement, RootOfUnity, twisted_bernoulli

    code, out, _ = run(
        capsys, "twisted-bernoulli", "--c", "3", "--a", "1", "--max", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    xi = RootOfUnity(3, 1)
    for row in data["values"]:
        el = CycloElement.from_json(row["element"])
        assert el == twisted_bernoulli(row["n"], xi)


def test_twisted_bernoulli_trivial_root(capsys):
    code, _, err = run(capsys, "twisted-bernoulli", "--c", "3", "--a", "3", "--max", "1")
    assert code == 2


def test_multi_bernoulli_table(capsys):
    code, out, _ = run(
        capsys, "multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "1,2",
        "--gamma", "1,1/2", "--max", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 4


def test_multi_bernoulli_length_mismatch(capsys):
    code, _, _ = run(
        capsys, "multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "1",
        "--max", "1",
    )
    assert code == 2


def test_multi_bernoulli_zero_weight(capsys):
    code, out, err = run(
        capsys, "multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "1,2",
        "--gamma", "0,1", "--max", "1",
    )
    assert code == 2
    assert out == ""
    assert "error: weights must be nonzero" in err


def test_desing_values_contains_known_value(capsys):
    code, out, _ = run(
        capsys, "desing-values", "--r", "2", "--kmax", "2", "--gamma", "1,1"
    )
    assert code == 0
    assert "0,2,1/18" in out.splitlines()


def test_desing_values_guards(capsys):
    assert run(capsys, "desing-values", "--r", "5", "--kmax", "2")[0] == 2
    assert run(capsys, "desing-values", "--r", "2", "--kmax", "9")[0] == 2


def test_coeffs_json_round_trip(capsys):
    from deszeta.coeffs import CoeffTable, expand_G

    for r in ("1", "2", "3"):
        code, out, _ = run(capsys, "coeffs", "--r", r, "--format", "json")
        assert code == 0
        assert CoeffTable.from_json(json.loads(out)) == expand_G(int(r))


def test_coeffs_tex(capsys):
    code, out, _ = run(capsys, "coeffs", "--r", "2", "--format", "tex")
    assert code == 0
    assert "zeta_2" in out and out.count("\\left(") == 3


@pytest.mark.parametrize("argv, sha256", [
    # the same digest as coeffs-r6 in perfbench/digests.json
    (("coeffs", "--r", "6"),
     "76424ded0a35245594a505c3840d64ff3b756f50014698783cdadeeae3e2850e"),
    (("coeffs", "--r", "6", "--format", "tex"),
     "79c5bef251b48cf118d0e719978acb5cee67237c419ebe3ed1ffa29bedd8b4e2"),
], ids=["json", "tex"])
def test_coeffs_r6_matches_pinned_digest(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_coeffs_out_of_range(capsys):
    assert run(capsys, "coeffs", "--r", "7")[0] == 2


def test_eval_pair(capsys):
    code, out, _ = run(capsys, "eval", "--s", "-1,1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"]["re"] - 0.125) < 1e-6


def test_eval_single(capsys):
    code, out, _ = run(capsys, "eval", "--s", "1")
    assert code == 0
    assert json.loads(out)["value"]["re"] == -1.0


def test_eval_single_weighted(capsys):
    # (1 - s) gamma^{-s} zeta(s) at s = -1, gamma = 3 is 2 * 3 * (-1/12)
    code, out, _ = run(capsys, "eval", "--s", "-1", "--gamma", "3")
    assert code == 0
    assert abs(json.loads(out)["value"]["re"] + 0.5) < 1e-14


def test_eval_bad_input(capsys):
    assert run(capsys, "eval", "--s", "nonsense")[0] == 2
    assert run(capsys, "eval", "--s", "1,2,3")[0] == 2


@pytest.mark.parametrize("argv", [
    ("--s", "1,2", "--gamma", "1/0,1"),
    ("--s", "inf,3"),
    ("--s", "nan,1"),
])
def test_eval_rejected_input(capsys, argv):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_eval_tiny_weight_ratio_refused(capsys):
    code, out, err = run(capsys, "eval", "--s", "3,4", "--gamma", "1e-300,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "head longer" in err


def test_eval_weight_power_underflow_refused(capsys):
    code, out, err = run(capsys, "eval", "--s", "3,4", "--gamma", "1e300,1e-300")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot reach s=(3+0j, 4+0j): a weight power underflows")
    assert "weight ratio" in err


@pytest.mark.parametrize("s, gamma", [("3.5", "1e-200"), ("-400", "1e10"), ("3", "1e-200")],
                         ids=["overflow", "negative-s-overflow", "integer-s-underflow"])
def test_eval_single_weight_power_refused(capsys, s, gamma):
    # gamma^-s beyond double precision: a refusal naming the weight, not a
    # traceback (OverflowError) or a bare ZeroDivisionError message
    code, out, err = run(capsys, "eval", "--s", s, "--gamma", gamma)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: cannot reach s=(%s+0j): the weight power" % s)
    assert "|gamma|=%g" % float(gamma) in err


def test_eval_polynomial_route_meets_tol(capsys):
    # s2 = -3: a finite sum of single zetas, summed within tol 1e-6; the
    # literal is the combination summed by mpmath at 30 digits
    code, out, _ = run(capsys, "eval", "--s", "2.5,-3", "--tol", "1e-6")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"]["re"] - 0.453928933072866768747516347509) < 1e-12
    assert data["err_estimate"] < 1e-6


def test_eval_small_weight_ratio_meets_tol(capsys):
    # weight ratio 1/20: heads of about 110 terms and a tail whose omitted
    # orders are bounded over every m beyond the head; the literal is the
    # combination summed by mpmath at 30 digits
    code, out, _ = run(capsys, "eval", "--s", "3,4", "--gamma", "1/20,1", "--tol", "1e-6")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"]["re"] - 52491.22860295592) <= data["err_estimate"] <= 1e-6


def test_eval_beyond_the_tail_s2_bound(capsys):
    # Re(s1+s2) = -10.5 is within reach, Re s2 = -25.5 is not: the tail's
    # last order has no remainder bound there
    code, out, err = run(capsys, "eval", "--s", "15,-25.5")
    assert code == 3
    assert out == ""
    assert "Re s2=-25.5 beyond continuation reach" in err and "Re s2 > -21" in err


def test_eval_tolerance_exit(capsys):
    code, _, err = run(capsys, "eval", "--s", "-1,1", "--tol", "1e-30")
    assert code == 3
    assert "tolerance" in err


def test_eval_tolerance_exit_names_the_route(capsys):
    # near/15/0 of perfbench/references.json, 1e-9..1e-6 from s1 + s2 = -8:
    # the one sum's estimate misses tol at both head lengths it tries, so the
    # point is refused with that route and the smaller estimate
    code, out, err = run(capsys, "eval", "--s=-8.562091872273625+0.43501478512610176j,"
                         "0.5620921904798539-0.4350149100354832j", "--gamma", "1/2,2",
                         "--tol", "1e-6")
    assert code == 3 and out == ""
    assert err.startswith("error: tolerance not met (method euler_maclaurin, err_estimate 0.000254")
    assert err.rstrip().endswith("tol 1e-06)")


def test_verify_exact_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "exact")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == len(verify.SUITES["exact"])
    assert all("PASS" in l for l in lines)
    # deterministic ordering by check id
    assert lines == sorted(lines)


def _break_frozen_table(monkeypatch):
    monkeypatch.setitem(verify.FROZEN_GROUPS, 1, {(0,): {(0,): 1, (1,): 1}})


def _shift_desing2(monkeypatch):
    real = verify.desing2

    def shifted(*args, **kwargs):
        result = real(*args, **kwargs)
        # off by 1e-5 at right angles to the real targets, so the checks'
        # own rounding error cannot cancel part of the shift
        return result._replace(value=result.value + 1e-5j)

    monkeypatch.setattr(verify, "desing2", shifted)


@pytest.mark.parametrize("suite, breakage, failing, least", [
    ("exact", _break_frozen_table, ["exact-01-frozen-tables"], 1.0),
    ("numeric", _shift_desing2, ["numeric-02-value-table", "numeric-03-cross-engine",
                                 "numeric-04-regular-point", "numeric-05-across-the-planes"],
     1e-5),
], ids=["exact", "numeric"])
def test_verify_reports_a_broken_check(capsys, monkeypatch, suite, breakage, failing, least):
    breakage(monkeypatch)
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 1
    rows = [line.split() for line in out.splitlines()]
    assert [cid for cid, status, _ in rows if status == "FAIL"] == failing
    worst = {cid: float(w[len("worst="):]) for cid, _, w in rows}
    assert all(worst[cid] >= least for cid in failing)


def test_verify_bad_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_desing_values_table_matches_enumeration(capsys):
    from fractions import Fraction

    from deszeta.values import desing_value_exact

    gammas = (Fraction(1, 2), Fraction(3), Fraction(2, 3))
    code, out, _ = run(
        capsys, "desing-values", "--r", "3", "--kmax", "3", "--gamma", "1/2,3,2/3"
    )
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 64
    for row in rows:
        *k, value = row.split(",")
        k = tuple(int(x) for x in k)
        assert Fraction(value) == desing_value_exact(k, gammas)


def test_multi_bernoulli_matches_closed_form(capsys):
    from fractions import Fraction

    from deszeta.cyclotomic import CycloElement, RootOfUnity
    from deszeta.values import double_twisted_closed

    code, out, _ = run(
        capsys, "multi-bernoulli", "--r", "2", "--c", "5", "--a-list", "1,3",
        "--gamma", "2/3,3/2", "--max", "3", "--format", "json",
    )
    assert code == 0
    values = json.loads(out)["values"]
    assert [tuple(row["n"]) for row in values] == [(k, l) for k in range(4) for l in range(4)]
    xi1, xi2 = RootOfUnity(5, 1), RootOfUnity(5, 3)
    gammas = (Fraction(2, 3), Fraction(3, 2))
    for row in values:
        k, l = row["n"]
        want = double_twisted_closed(k, l, xi1, xi2, gammas)
        assert CycloElement.from_json(row["element"]) == want


def test_multi_bernoulli_zero_entries(capsys):
    # 1/(1 + e^t) has a vanishing t^2 coefficient; the row still prints
    code, out, _ = run(
        capsys, "multi-bernoulli", "--r", "1", "--c", "2", "--a-list", "1", "--max", "3"
    )
    assert code == 0
    assert out.splitlines() == ["0,1/2", "1,-1/4", "2,0", "3,1/8"]


@pytest.mark.parametrize("argv", [
    ("--s", "3,4", "--tol", "0"),
    ("--s", "3,4", "--tol", "nan"),
    ("--s", "-6,-6", "--tol", "nan"),
    ("--s", "3,4", "--tol", "-1"),
])
def test_eval_rejected_tolerance(capsys, argv):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_eval_nan_estimate_fails_gate(capsys, monkeypatch):
    from deszeta import cli
    from deszeta.numeric import EvalResult

    def nan_estimate(*args, **kwargs):
        return EvalResult(0.5 + 0j, float("nan"), "euler_maclaurin")

    monkeypatch.setattr(cli, "desing2", nan_estimate)
    code, out, err = run(capsys, "eval", "--s", "3,4")
    assert code == 3
    assert out == ""
    assert "tolerance" in err


@pytest.mark.parametrize("argv", [
    ("twisted-bernoulli", "--c", "1", "--a", "1", "--max", "2"),
    ("twisted-bernoulli", "--c", "3", "--a", "3", "--max", "2"),
    ("multi-bernoulli", "--r", "1", "--c", "1", "--a-list", "1", "--max", "1"),
    ("multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "3,1", "--max", "1"),
    ("multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "1,2", "--gamma", "1,x",
     "--max", "1"),
    ("desing-values", "--r", "2", "--kmax", "2", "--gamma", "1,x"),
    ("desing-values", "--r", "2", "--kmax", "2", "--gamma", "0,1"),
    ("desing-values", "--r", "2", "--kmax", "2", "--gamma", "1/0,1"),
    ("eval", "--s", "1,2", "--gamma", "0,1"),
    ("eval", "--s", "3,1600", "--gamma", "1,4"),
    ("eval", "--s", "-171.5"),
])
def test_library_refusal_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, shown", [
    (("eval", "--s", "1/0"), "--s: cannot parse '1/0'"),
    (("eval", "--s", "3,x"), "--s: cannot parse 'x'"),
    (("eval", "--s", "3,4", "--gamma", "1/0,1"), "--gamma: cannot parse '1/0'"),
    (("desing-values", "--r", "2", "--kmax", "2", "--gamma", "1/0,1"),
     "--gamma: cannot parse '1/0'"),
    (("multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "1,x", "--max", "1"),
     "--a-list: cannot parse 'x'"),
], ids=["eval-s-zero-denominator", "eval-s-word", "eval-gamma", "desing-values-gamma",
        "multi-bernoulli-a-list"])
def test_parse_error_names_the_flag(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % shown


@pytest.mark.parametrize("argv", [
    ("multi-bernoulli", "--r", "0", "--c", "3", "--a-list", "", "--max", "1"),
    ("multi-bernoulli", "--r", "5", "--c", "3", "--a-list", "1,1,1,1,1", "--max", "1"),
    ("multi-bernoulli", "--r", "6", "--c", "3", "--a-list", "1,1,1,1,1,1", "--max", "1"),
    ("multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "1,2", "--max", "9"),
    ("multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "1,2", "--max", "-1"),
    ("desing-values", "--r", "0", "--kmax", "2"),
    ("desing-values", "--r", "2", "--kmax", "-1"),
])
def test_table_caps_exit_2(capsys, argv):
    # both box tables share one cap: r in 1..4, box edge in 0..8
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "between" in err


def test_table_caps_admit_the_edges(capsys):
    code, out, _ = run(capsys, "multi-bernoulli", "--r", "1", "--c", "3", "--a-list", "1",
                       "--max", "8")
    assert code == 0
    assert len(out.splitlines()) == 9


@pytest.mark.parametrize("argv", [
    ("twisted-bernoulli", "--c", "100000", "--a", "1", "--max", "1"),
    ("multi-bernoulli", "--r", "2", "--c", "1000000000", "--a-list", "1,2", "--max", "1"),
])
def test_order_cap_refuses_before_building_phi(capsys, argv):
    # a dense Phi_c of order 10^9 does not fit in memory: the cap must come
    # first, so the refused order never reaches the cache of Phi_c
    from deszeta import cyclotomic
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --c must be at most 10000\n"
    assert int(argv[argv.index("--c") + 1]) not in cyclotomic._PHI_CACHE


def test_kernel_refusal_names_the_requested_point(capsys):
    code, out, err = run(capsys, "eval", "--s", "0.5+3000j,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "0.5+3000j" in err


def test_eval_non_finite_sum_refused(capsys):
    # desing2 sums to nan here; the double zeta refuses it for reach, so
    # the exit is 2 and not the tolerance gate's 3
    code, out, err = run(capsys, "eval", "--s", "3,-250", "--gamma", "1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot reach s=(3+0j, -250+0j): ")


DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
RECORDED = json.loads(DIGESTS.read_text())["commands"]


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_cyclotomic_tables_match_recorded_digests(capsys, name):
    # every recorded variant of every benchmarked command (the Q(zeta_c)
    # tables and the rest), byte for byte; each distinct argv runs once
    digests = {}
    for record in RECORDED[name].values():
        argv = tuple(record["argv"])
        if argv not in digests:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            digests[argv] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests[argv] == record["sha256"], argv


# the largest table of each kind, beyond the boxes of perfbench/digests.json
@pytest.mark.parametrize("argv, rows, sha256", [
    (("desing-values", "--r", "4", "--kmax", "8", "--gamma", "1/2,2/3,3/2,2"), 6561,
     "3e8015fe78a6d1023e6e462507c8c76cbf3b504f42ec06569cc5fe6da4bc9058"),
    (("multi-bernoulli", "--r", "4", "--c", "5", "--a-list", "1,2,3,4", "--max", "6"), 2401,
     "24b7154c8784b1da724df84cf567e81e91ea2aa38660791d04193af2cc4c4501"),
], ids=["desing-values-r4-kmax8", "multi-bernoulli-r4-c5-max6"])
def test_largest_tables_match_pinned_digests(capsys, argv, rows, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == rows
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_other_exceptions_propagate(monkeypatch):
    from deszeta import cli

    def broken(*args, **kwargs):
        raise RuntimeError("not a refusal")

    monkeypatch.setattr(cli, "desing2", broken)
    with pytest.raises(RuntimeError, match="not a refusal"):
        main(["eval", "--s", "3,4"])


def test_entry_point_refusal():
    # the real entry point, sys.exit(main()), in a fresh interpreter
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "deszeta.cli", "eval", "--s", "3,1600", "--gamma", "1,4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); a usage error's SystemExit
    gives its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calls_sharing_the_parser_are_isolated(capsys, monkeypatch):
    # the parser is built once per process; a call must not see the flags
    # or defaults of the call before it
    from deszeta import cli

    table = ("multi-bernoulli", "--r", "2", "--c", "3", "--a-list", "1,2", "--max", "2")
    calls = [
        table[:-2] + ("--gamma", "1/2,3") + table[-2:], table,
        ("bernoulli", "--max", "4", "--format", "json"), ("bernoulli", "--max", "4"),
        ("bernoulli", "--max"), ("bernoulli", "--max", "2"),
        ("eval", "--s", "3,4"), ("coeffs", "--r", "2"),
    ]
    shared = [_outcome(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0, 0, 0]
    assert shared[0][1] != shared[1][1] and shared[2][1] != shared[3][1]


def test_desing_values_gamma_of_the_wrong_length(capsys):
    code, out, err = run(capsys, "desing-values", "--r", "2", "--kmax", "2", "--gamma", "1")
    assert code == 2
    assert out == ""
    assert err == "error: --gamma must have r entries\n"


def test_desing_values_json(capsys):
    from fractions import Fraction

    from deszeta.values import desing_value_table

    code, out, _ = run(capsys, "desing-values", "--r", "2", "--kmax", "2", "--gamma", "1/2,3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    gammas = [Fraction(1, 2), Fraction(3)]
    assert data["r"] == 2 and data["gamma"] == ["1/2", "3"]
    assert [(tuple(row["k"]), Fraction(row["value"])) for row in data["values"]] \
        == list(desing_value_table(2, gammas).items())
