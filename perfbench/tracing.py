"""In-memory tracing of the package's layers, installed from outside.

The package is not modified: ``install`` replaces public functions of each
module (and a few hot methods) by wrappers, everywhere the package holds a
reference to them.  Functions at layer boundaries get spans (name, start,
end, parent, item); hot scalar operations get count-only wrappers, because a
span per ``CycloElement.__mul__`` would cost more than the operation, and hot
cached functions keep a span only for the calls that fill their cache.
"""

import functools
import time
from collections import Counter

# public functions that get a span, per module (the module name is the layer)
SPANS = {
    "exact": ("bernoulli_polynomial", "pochhammer"),
    "cyclotomic": ("twisted_bernoulli", "frobenius_euler", "negative_polylog",
                   "root_sum_twisted"),
    "series": ("series_mul", "compose_linear", "build_H_r", "build_tilde_H",
               "build_E_product", "collapse_tilde"),
    "values": ("twisted_multiple_bernoulli", "double_twisted_closed",
               "lerch_special_value", "desing_value_exact",
               "desing_value_r2_closed", "desing_value_oracle"),
    "coeffs": ("expand_G", "expand_H", "combination", "weight_check"),
    "numeric": ("hurwitz_zeta", "riemann_zeta", "double_zeta",
                "double_zeta_direct", "desing1", "desing2"),
    "verify": ("run_suite",),
    "cli": ("main",),
}

# hot cached functions: (module, name) -> counter.  Every call is counted;
# a call becomes a span only when it takes LEAF_MIN_S or more, which is when
# it fills its cache rather than reading it.
CACHED = {
    ("exact", "bernoulli_number"): "exact.bernoulli_calls",
    ("cyclotomic", "cyclotomic_polynomial"): "cyclotomic.phi_lookups",
}
LEAF_MIN_S = 20e-6

# hot methods that are only counted: (module, class, method) -> counter
COUNTED_METHODS = {
    ("cyclotomic", "CycloElement", "__mul__"): "cyclotomic.mul_calls",
    ("cyclotomic", "CycloElement", "__rmul__"): "cyclotomic.mul_calls",
    ("cyclotomic", "CycloElement", "inverse"): "cyclotomic.inverse_calls",
    ("series", "TruncatedSeries", "coefficient"): "series.terms_read",
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, item]
        self.counts = Counter()
        self.item = -1
        self._stack = []

    def span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def cached(self, name, key, fn):
        """Count every call of a leaf function; keep a span for slow calls."""
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            if end - start >= LEAF_MIN_S:
                spans.append([name, start, end, stack[-1] if stack else -1, self.item])
            return result

        return wrapper

    def count(self, key, fn, on_call=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper


def _replace_everywhere(modules, original, wrapper):
    """Point every module-level name bound to ``original`` at ``wrapper``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _lookup(module, name):
    """``module.name``; a name the package no longer has is an error, so that
    a refactor updates the tables above rather than zeroing a layer metric."""
    try:
        return getattr(module, name)
    except AttributeError:
        raise LookupError("%s has no %s: update the tables in tracing.py"
                          % (module.__name__, name)) from None


def _method(cls, name):
    if name not in vars(cls):
        raise LookupError("%s.%s defines no %s: update the tables in tracing.py"
                          % (cls.__module__, cls.__name__, name))
    return vars(cls)[name]


def install(tracer, package):
    """Wrap the layers of ``package`` (the imported deszeta) for ``tracer``.

    Raises LookupError when the package lacks a name listed above.
    """
    import importlib

    modules = {name: importlib.import_module("%s.%s" % (package.__name__, name))
               for name in SPANS}
    everywhere = [package] + list(modules.values())

    def on_table(result):
        tracer.counts["coeffs.table_terms"] += len(result)

    def on_product(args, result):
        # series x series only; scalar scaling reuses the same method
        if isinstance(args[1], type(args[0])):
            tracer.counts["series.products"] += 1
            tracer.counts["series.terms_built"] += len(result.coeffs)

    for layer, names in SPANS.items():
        module = modules[layer]
        for name in names:
            original = _lookup(module, name)
            hook = on_table if layer == "coeffs" and name.startswith("expand_") else None
            _replace_everywhere(everywhere, original,
                                tracer.span("%s.%s" % (layer, name), original, hook))
    for (layer, name), key in CACHED.items():
        original = _lookup(modules[layer], name)
        _replace_everywhere(everywhere, original,
                            tracer.cached("%s.%s" % (layer, name), key, original))
    for (layer, cls_name, method), key in COUNTED_METHODS.items():
        cls = _lookup(modules[layer], cls_name)
        setattr(cls, method, tracer.count(key, _method(cls, method)))
    series_cls = _lookup(modules["series"], "TruncatedSeries")
    for method in ("__mul__", "__rmul__"):
        setattr(series_cls, method,
                tracer.count("series.mul_calls", _method(series_cls, method), on_product))


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    direct children cover (overlapping children are merged first)."""
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (name, start, end, parent, item) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(index, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(tracer):
    """Per-span-name call counts and summed self times."""
    calls = Counter()
    self_s = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    return calls, self_s
