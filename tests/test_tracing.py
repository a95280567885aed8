"""The benchmark's tracer (perfbench/tracing.py) still finds the package.

The tracer wraps package functions and methods by name and raises
LookupError for a name the package no longer has, so a refactor that
renames or deletes one breaks every `perfbench/run.py --trace 1` run.  The
series counters hang on methods the tracer wraps, so a traced table must
still count products, built terms and read terms.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced(code, before=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run(
        [sys.executable, "-c",
         before + "import deszeta, tracing; tracer = tracing.Tracer(); "
         "tracing.install(tracer, deszeta)\n" + code],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_on_the_package():
    proc = _traced("")
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_series_products():
    # the per-layer series counters hang on TruncatedSeries.__mul__ and
    # .coefficient; a refactor of either must not silently zero them
    proc = _traced(
        "import json, contextlib, io\n"
        "from deszeta import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['desing-values', '--r', '2', '--kmax', '2']) == 0\n"
        "print(json.dumps(tracer.counts))\n"
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    for key in ("series.products", "series.terms_built", "series.terms_read"):
        assert counts.get(key, 0) > 0, key
    # the table is read one variable at a time, one product per prefix of
    # the index: the empty prefix, then k_1 = 0, 1, 2
    assert counts["series.products"] == 1 + 3


def test_traced_table_reads_phi_once_and_never_inverts():
    # 1/(1 - xi) comes from its closed form and Phi_c from one cache per c,
    # so a table over Q(zeta_12) multiplies but never calls the generic
    # inverse, and looks Phi up at most once per divisor of 12
    proc = _traced(
        "import json, contextlib, io\n"
        "from deszeta import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['multi-bernoulli', '--r', '2', '--c', '12',\n"
        "                     '--a-list', '1,5', '--max', '3']) == 0\n"
        "print(json.dumps(tracer.counts))\n"
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts.get("cyclotomic.mul_calls", 0) > 0
    assert counts.get("cyclotomic.inverse_calls", 0) == 0
    assert counts.get("cyclotomic.phi_lookups", 0) <= 6


def test_tracer_reaches_calls_under_the_cache():
    # the three double zetas of desing2(3, 4) share s1 + s2, and
    # hurwitz_zeta's cache answers their shared calls without a kernel
    # evaluation; the tracer must count every call, as a counter installed
    # beneath it does
    proc = _traced(
        "deszeta.desing2(3, 4)\n"
        "calls, _ = tracing.summarize(tracer)\n"
        "print(json.dumps([calls, counted]))\n",
        before=(
            "import json\n"
            "from deszeta import numeric\n"
            "counted = dict.fromkeys(('hurwitz_zeta', '_hurwitz_kernel'), 0)\n"
            "def count(name, original):\n"
            "    def counting(*args, **kwargs):\n"
            "        counted[name] += 1\n"
            "        return original(*args, **kwargs)\n"
            "    return counting\n"
            "for name in counted:\n"
            "    setattr(numeric, name, count(name, getattr(numeric, name)))\n"
        ),
    )
    assert proc.returncode == 0, proc.stderr
    calls, counted = json.loads(proc.stdout)
    assert calls["numeric.desing2"] == 1
    assert calls["numeric.hurwitz_zeta"] == counted["hurwitz_zeta"]
    assert counted["hurwitz_zeta"] > counted["_hurwitz_kernel"] > 0
