"""Re-measure the probes of the ROADMAP "Baseline" section once.

    python3 perfbench/baseline.py [--skip-slow]

In-process probes are timed with time.perf_counter (median of repeats for
the fast ones); CLI probes are timed as whole processes.  Each line gives
the ROADMAP figure, the figure measured now and their ratio, and flags a
probe whose ratio is outside NOISE.  ``--skip-slow`` leaves out the two
probes that take minutes (desing-values --kmax 6 and the (6,6,6,6) oracle).
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import run

sys.path.insert(0, run.SRC)

import deszeta  # noqa: E402
import reference as R  # noqa: E402
import tracing  # noqa: E402

NOISE = (0.7, 1.3)  # ratios inside this band read as "reproduced"


def timed(fn, repeats=1):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_seconds(args, env_extra=None):
    env = run.child_env()
    env.update(env_extra or {})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from deszeta.cli import main; sys.exit(main())"]
        + args, env=env, capture_output=True, text=True, timeout=600)
    return time.perf_counter() - start, proc.returncode


def hurwitz_calls(s1, s2):
    import deszeta.numeric as numeric

    tracer = tracing.Tracer()
    original = numeric.hurwitz_zeta
    numeric.hurwitz_zeta = tracer.span("numeric.hurwitz_zeta", original)
    try:
        deszeta.desing2(s1, s2)
    finally:
        numeric.hurwitz_zeta = original
    return len(tracer.spans)


def grid_honesty():
    """(points where err_estimate < true error, worst true/estimate ratio)."""
    under, worst = 0, 0.0
    for k in range(6):
        for l in range(6):
            result = deszeta.desing2(-k, -l)
            err = abs(result.value - float(R.grid_value(k, l, 1, 1)))
            if result.err_estimate < err:
                under += 1
            worst = max(worst, err / max(result.err_estimate, 1e-300))
    return under, worst


def mp_precision_probe():
    """desing2(-3,-3) seconds and true error with DESING_PRECISION=30, in a child."""
    code = ("import time; from deszeta import desing2; t=time.perf_counter(); "
            "r=desing2(-3,-3); print(time.perf_counter()-t, r.value.real)")
    env = run.child_env()
    env["DESING_PRECISION"] = "30"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=600).stdout.split()
    return float(out[0]), abs(float(out[1]) - float(R.grid_value(3, 3, 1, 1)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--skip-slow", action="store_true")
    args = parser.parse_args()
    from deszeta.coeffs import expand_G, expand_H
    from deszeta.cyclotomic import RootOfUnity

    xis = [RootOfUnity(5, a) for a in (1, 2, 3)]
    ones = [Fraction(1)] * 4
    probes = [
        ("hurwitz_zeta(2.5, 1.3) ms", 0.02,
         lambda: 1e3 * timed(lambda: deszeta.hurwitz_zeta(2.5, 1.3), 200)),
        ("double_zeta(2.5, 3.5) ms", 0.7,
         lambda: 1e3 * timed(lambda: deszeta.double_zeta(2.5, 3.5), 50)),
        ("desing2(3, 4) ms", 2.5, lambda: 1e3 * timed(lambda: deszeta.desing2(3, 4), 50)),
        ("desing2(-3, -3) ms", 20.0, lambda: 1e3 * timed(lambda: deszeta.desing2(-3, -3), 20)),
        ("desing2(-3, -3) hurwitz calls", 945, lambda: hurwitz_calls(-3, -3)),
        ("DESING_PRECISION=30 desing2(-3,-3) ms", 950.0, lambda: 1e3 * mp_precision_probe()[0]),
        ("DESING_PRECISION=30 desing2(-3,-3) error", 4.7e-9, lambda: mp_precision_probe()[1]),
        ("desing2(-3, -3) error", 7.5e-9,
         lambda: abs(deszeta.desing2(-3, -3).value - float(R.grid_value(3, 3, 1, 1)))),
        ("expand_G(6) ms", 72.0, lambda: 1e3 * timed(lambda: expand_G(6), 3)),
        ("expand_H(5) ms", 287.0, lambda: 1e3 * timed(lambda: expand_H(5), 3)),
        ("desing_value_exact((6,6,6,6)) s", 0.63,
         lambda: timed(lambda: deszeta.desing_value_exact((6, 6, 6, 6), ones))),
        ("twisted_multiple_bernoulli((4,4,4), c=5) s", 1.4,
         lambda: timed(lambda: deszeta.twisted_multiple_bernoulli((4, 4, 4), xis, ones[:3]))),
        ("cli desing-values --r 4 --kmax 4 s", 9.0,
         lambda: cli_seconds(["desing-values", "--r", "4", "--kmax", "4"])[0]),
        ("cli multi-bernoulli --r 3 --c 5 --max 3 s", 5.6,
         lambda: cli_seconds(["multi-bernoulli", "--r", "3", "--c", "5",
                              "--a-list", "1,2,3", "--max", "3"])[0]),
        ("cli verify --suite exact s", 2.8, lambda: cli_seconds(["verify", "--suite", "exact"])[0]),
        ("cli verify --suite numeric s", 1.4,
         lambda: cli_seconds(["verify", "--suite", "numeric"])[0]),
        ("grid points with err_estimate < true error", 24, lambda: grid_honesty()[0]),
        ("grid worst true/estimate ratio", 500.0, lambda: grid_honesty()[1]),
        ("eval --s -5,-5 --tol 1e-5 exit code", 0,
         lambda: cli_seconds(["eval", "--s", "-5,-5", "--tol", "1e-5"])[1]),
        ("desing2(-5,-5) true error", 8.7e-5,
         lambda: abs(deszeta.desing2(-5, -5).value - float(R.grid_value(5, 5, 1, 1)))),
        ("eval --s -20.5,0.3 exit code", 3,
         lambda: cli_seconds(["eval", "--s", "-20.5,0.3"])[1]),
    ]
    if not args.skip_slow:
        probes += [
            ("desing_value_oracle((6,6,6,6)) s", 9.1,
             lambda: timed(lambda: deszeta.desing_value_oracle((6, 6, 6, 6), ones))),
            ("cli desing-values --r 4 --kmax 6 s", 144.0,
             lambda: cli_seconds(["desing-values", "--r", "4", "--kmax", "6"])[0]),
        ]
    print("# python=%s nproc=%d" % (sys.version.split()[0], len(os.sched_getaffinity(0))))
    print("%-46s %12s %12s %8s" % ("probe", "roadmap", "now", "ratio"))
    for name, was, probe in probes:
        now = probe()
        ratio = now / was if was else (1.0 if now == was else float("inf"))
        flag = "" if NOISE[0] <= ratio <= NOISE[1] else "  <- differs"
        print("%-46s %12.4g %12.4g %8.2f%s" % (name, was, now, ratio, flag), flush=True)


if __name__ == "__main__":
    main()
