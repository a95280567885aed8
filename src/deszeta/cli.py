"""Command-line front end: exact tables, coefficient export, single
evaluations, and the verification suite runner.

Exit codes: 0 success, 1 verification failure, 2 usage error or input the
library refuses (ValueError), 3 the numerical tolerance could not be met
(ToleranceError).  The commands check only what the library cannot know
(the syntax of their flags, the CLI's own caps and list lengths) and
raise; ``main`` alone turns
exceptions into an ``error:`` line and an exit code.
"""

import argparse
import functools
import sys
from fractions import Fraction

from .coeffs import combination, expand_G
from .cyclotomic import RootOfUnity, twisted_bernoulli_row
from .exact import bernoulli_number, format_rational
from .numeric import ToleranceError, desing1, desing2
from .values import desing_value_table, twisted_multiple_bernoulli_table
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_TOLERANCE = 3

# flags whose values may start with "-" (negative numbers); folded into
# --flag=value form so the argument parser does not mistake them for options
_VALUE_FLAGS = ("--s", "--gamma", "--a-list")


def _error(exc, code):
    print("error: %s" % exc, file=sys.stderr)
    return code


def _print_json(obj):
    import json  # here, not at the top: only the commands that print JSON load it

    print(json.dumps(obj))


def _parse_list(text, flag, parse):
    """The comma-separated values of a flag; a part that does not parse is
    refused with the flag's name and the part."""
    values = []
    for part in text.split(","):
        try:
            values.append(parse(part))
        except (ValueError, ZeroDivisionError):  # Fraction("1/0") raises the latter
            raise ValueError("%s: cannot parse %r" % (flag, part)) from None
    return values


def _check_max(args):
    if args.max < 0:
        raise ValueError("--max must be non-negative")


def _check_table(r, nmax, flag):
    """The caps of the two box tables: r in 1..4, the box edge in 0..8."""
    if not 1 <= r <= 4:
        raise ValueError("--r must be between 1 and 4")
    if not 0 <= nmax <= 8:
        raise ValueError("%s must be between 0 and 8" % flag)


# the largest cyclotomic order of twisted-bernoulli and multi-bernoulli:
# Phi_c is built in milliseconds; twisted-bernoulli --max 1 takes about 0.2 s
# at c = 10000 and at the prime 9973, but about 5 s at c = 9974, where many
# top terms are divided by the dense Phi_c (README)
MAX_ORDER = 10000


def _check_order(c):
    """The cap of --c, checked before Phi_c is built."""
    if c > MAX_ORDER:
        raise ValueError("--c must be at most %d" % MAX_ORDER)


# the largest --max of bernoulli: B_2062's numerator has 4300 digits, the
# most Python prints of an integer, and B_2064's has 4311
MAX_BERNOULLI = 2063


def cmd_bernoulli(args):
    _check_max(args)
    if args.max > MAX_BERNOULLI:
        raise ValueError("--max must be at most %d: past it a numerator has more than 4300 "
                         "digits, Python's limit for printing an integer" % MAX_BERNOULLI)
    bernoulli_number(args.max)  # one extension of the table, to exactly --max
    values = [format_rational(bernoulli_number(n)) for n in range(args.max + 1)]
    if args.format == "json":
        _print_json({"max": args.max, "values": values})
    else:
        for v in values:
            print(v)
    return EXIT_OK


def cmd_twisted_bernoulli(args):
    _check_max(args)
    _check_order(args.c)
    xi = RootOfUnity(args.c, args.a)
    rows = list(enumerate(twisted_bernoulli_row(xi, args.max)))
    if args.format == "json":
        _print_json({
            "c": args.c,
            "a": xi.a,
            "values": [{"n": n, "element": e.to_json()} for n, e in rows],
        })
    else:
        for n, e in rows:
            print(",".join([str(n)] + [format_rational(x) for x in e.coeffs]))
    return EXIT_OK


def cmd_multi_bernoulli(args):
    _check_table(args.r, args.max, "--max")
    _check_order(args.c)
    a_list = _parse_list(args.a_list, "--a-list", int)
    gammas = _parse_list(args.gamma, "--gamma", Fraction) if args.gamma else [Fraction(1)] * args.r
    if len(a_list) != args.r or len(gammas) != args.r:
        raise ValueError("--a-list and --gamma must have r entries")
    xis = [RootOfUnity(args.c, a) for a in a_list]
    rows = twisted_multiple_bernoulli_table(args.max, xis, gammas).items()
    if args.format == "json":
        _print_json({
            "r": args.r,
            "c": args.c,
            "a": [xi.a for xi in xis],
            "gamma": [format_rational(g) for g in gammas],
            "values": [{"n": list(n), "element": e.to_json()} for n, e in rows],
        })
    else:
        for n, e in rows:
            print(",".join([str(x) for x in n] + [format_rational(x) for x in e.coeffs]))
    return EXIT_OK


def cmd_desing_values(args):
    _check_table(args.r, args.kmax, "--kmax")
    gammas = _parse_list(args.gamma, "--gamma", Fraction) if args.gamma else [Fraction(1)] * args.r
    if len(gammas) != args.r:
        raise ValueError("--gamma must have r entries")
    rows = desing_value_table(args.kmax, gammas).items()
    if args.format == "json":
        _print_json({
            "r": args.r,
            "gamma": [format_rational(g) for g in gammas],
            "values": [{"k": list(k), "value": format_rational(v)} for k, v in rows],
        })
    else:
        for k, v in rows:
            print(",".join([str(x) for x in k] + [format_rational(v)]))
    return EXIT_OK


def cmd_coeffs(args):
    if not 1 <= args.r <= 6:
        raise ValueError("--r must be between 1 and 6")
    if args.format == "tex":
        print(combination(args.r).to_tex())
    else:
        print(expand_G(args.r).to_json_text())
    return EXIT_OK


def cmd_eval(args):
    if not args.tol > 0:
        raise ValueError("--tol must be a positive number")
    parts = _parse_list(args.s, "--s", complex)
    gammas = [complex(g) for g in _parse_list(args.gamma, "--gamma", Fraction)] \
        if args.gamma else [1.0] * len(parts)
    if len(parts) not in (1, 2):
        raise ValueError("--s takes one or two comma-separated components")
    if len(gammas) != len(parts):
        raise ValueError("--gamma must match the number of arguments")
    if len(parts) == 1:
        result = desing1(parts[0], gammas[0])
    else:
        result = desing2(parts[0], parts[1], gammas[0], gammas[1], tol=args.tol)
    # a NaN estimate fails this test, so it cannot pass the gate
    if not result.err_estimate <= args.tol:
        raise ToleranceError(
            "tolerance not met (err_estimate %g, tol %g)" % (result.err_estimate, args.tol)
        )
    _print_json(result.to_json())
    return EXIT_OK


def cmd_verify(args):
    results = run_suite(args.suite)
    ok = True
    for cid, worst, passed in results:
        ok = ok and passed
        print("%-28s %s worst=%.3e" % (cid, "PASS" if passed else "FAIL", worst))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="deszeta",
        description="Twisted Bernoulli numbers and the desingularized "
        "multiple zeta-function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="table of Bernoulli numbers")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_bernoulli)

    p = sub.add_parser("twisted-bernoulli", help="table of twisted Bernoulli numbers")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_twisted_bernoulli)

    p = sub.add_parser("multi-bernoulli", help="table of twisted multiple Bernoulli numbers")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--a-list", dest="a_list", required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_multi_bernoulli)

    p = sub.add_parser("desing-values", help="exact desingularized values at non-positive integers")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_desing_values)

    p = sub.add_parser("coeffs", help="coefficient table of the shifted-zeta combination")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--format", choices=("json", "tex"), default="json")
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("eval", help="numeric desingularized zeta value")
    p.add_argument("--s", required=True,
                   help="one or two comma-separated complex arguments")
    p.add_argument("--gamma", default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.set_defaults(fn=cmd_verify)

    return parser


def _fold_value_flags(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_fold_value_flags(argv))
    try:
        return args.fn(args)
    except ToleranceError as exc:
        return _error(exc, EXIT_TOLERANCE)
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
