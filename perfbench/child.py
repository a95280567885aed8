"""One pass of a workload in a fresh interpreter.

Reads a job (JSON) on stdin, runs it, and writes one JSON object on stdout.
The first thing it does is import the package, so the parent can time
interpreter start-up plus import from its own clock (both use the
system-wide monotonic clock).
"""

import time

import deszeta
import deszeta.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def run_exact(items, tracer):
    results = []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = deszeta.cli.main(list(item["argv"]))
        except (Exception, SystemExit) as exc:  # an item's failure is data
            results.append({"status": "raised", "error": repr(exc),
                            "time": time.perf_counter() - start})
            continue
        elapsed = time.perf_counter() - start
        data = out.getvalue().encode("utf-8")
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(data)
        results.append({"status": "ok", "rc": rc, "time": elapsed, "bytes": len(data),
                        "sha256": hashlib.sha256(data).hexdigest()})
    return results


def run_numeric(items, tol, tracer):
    """Each point is accepted or refused as `deszeta eval --tol` does it:
    weights go through complex(Fraction(g)), ToleranceError is a refusal."""
    from deszeta.numeric import ToleranceError

    results = []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        s1, s2 = complex(*item["s1"]), complex(*item["s2"])
        g1, g2 = (complex(Fraction(g)) for g in item["g"])
        start = time.perf_counter()
        try:
            result = deszeta.desing2(s1, s2, g1, g2, tol=tol)
        except ToleranceError as exc:
            results.append({"status": "refused", "error": str(exc),
                            "time": time.perf_counter() - start})
            continue
        except Exception as exc:  # an item's failure is data
            results.append({"status": "raised", "error": repr(exc),
                            "time": time.perf_counter() - start})
            continue
        elapsed = time.perf_counter() - start
        results.append({"status": "ok", "time": elapsed,
                        "value": [result.value.real, result.value.imag],
                        "err": result.err_estimate, "method": result.method})
    return results


def main():
    job = json.load(sys.stdin)
    reply = {"ready": READY}
    if job["kind"] != "setup":
        tracer = None
        if job.get("trace"):
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer, deszeta)
        start = time.perf_counter()
        if job["kind"] == "exact":
            results = run_exact(job["items"], tracer)
        else:
            results = run_numeric(job["items"], job["tol"], tracer)
        reply["wall_s"] = time.perf_counter() - start
        reply["results"] = results
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            calls, self_s = tracing.summarize(tracer)
            reply["trace"] = {"calls": calls, "self_s": self_s, "counts": tracer.counts}
            if job.get("spans_out"):
                with open(job["spans_out"], "w", encoding="utf-8") as f:
                    for span in tracer.spans:
                        f.write(json.dumps(span) + "\n")
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
