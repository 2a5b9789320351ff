"""In-memory span tracer that wraps symkron's layer functions from outside.

Nothing under ``src/`` is edited: :func:`install` replaces each public
function of the traced modules (and a fixed list of ``SymFunc`` and helper
methods) by a timing wrapper, at every module that binds the same object
by name.  ``verify`` binds ``kronecker``, ``from_p`` and
``first_difference``; ``named`` binds ``exp_series``; the package
``__init__`` re-exports almost everything; all of them see the wrapper.

A span is one wrapped call: ``(name, parent, t_in, t0, t1, t_out)``, with
``parent`` the index of the enclosing span.  Each root span (``job``) is
one request or one verify run, and the spans below it belong to it.
``t0``/``t1`` bracket the wrapped function itself, ``t_in``/``t_out`` the
whole wrapper including its bookkeeping.  A span's self time is its own
duration minus the wrapper-inclusive intervals of its direct children, so
tracer bookkeeping inside a call is charged to no layer; it shows up only
as tracing overhead (traced minus untraced wall time).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: Modules whose public functions are wrapped.  ``partitions`` and ``cli``
#: are left out: the former is a leaf utility called per partition (its
#: wrapper would cost more than the work), the latter is argument parsing.
TRACED_MODULES = ("symkron._kernels", "symkron.series", "symkron.bases",
                  "symkron.products", "symkron.named", "symkron.verify")

#: Methods wrapped in addition to module-level functions.
TRACED_METHODS = {
    "symkron.series": {"SymFunc": ("__init__", "__add__", "__sub__", "__mul__",
                                   "scale", "truncate", "graded_component",
                                   "from_json", "from_json_dict", "to_json",
                                   "to_json_dict")},
    "symkron.named": {"FactorizedSeries": ("expand",)},
    "symkron.products": {"UnivariateFactor": ("to_symfunc",)},
}

#: Public helpers called once per term or partition; wrapping them would
#: cost more than the work they do.
UNTRACED = {"series.term_order"}

ROOT = "job"


def display_name(module: str, qualname: str) -> str:
    """Metric-friendly layer name: ``symkron._kernels`` becomes ``kernels``
    because metric names must start with a letter."""
    short = module.rsplit(".", 1)[-1].lstrip("_")
    return f"{short}.{qualname}"


# ------------------------------------------------------------ named counts

def _weight_counts(keys) -> dict:
    counts: dict = {}
    for k in keys:
        w = sum(k)
        counts[w] = counts.get(w, 0) + 1
    return counts


# Each counter takes the counts dict and then the wrapped function's own
# arguments, bound by the same parameter names.

def count_mul_terms(counts: dict, a, b, limit) -> None:
    """Pairs the sparse multiply visits, and those under the weight limit."""
    counts["pairs_attempted"] = counts.get("pairs_attempted", 0) + len(a) * len(b)
    wb = _weight_counts(b)
    kept = 0
    for wa, na in _weight_counts(a).items():
        kept += na * sum(nb for w, nb in wb.items() if wa + w <= limit)
    counts["pairs_kept"] = counts.get("pairs_kept", 0) + kept


def count_kron_terms(counts: dict, a, b) -> None:
    counts["shared_keys"] = counts.get("shared_keys", 0) + len(a.keys() & b.keys())


def count_first_difference(counts: dict, lhs, rhs) -> None:
    counts["keys"] = counts.get("keys", 0) + len(lhs.terms.keys() | rhs.terms.keys())


def count_to_p(counts: dict, f) -> None:
    """Calls that convert, as opposed to passing a p-basis input through."""
    if f.basis != "p":
        counts["conversions"] = counts.get("conversions", 0) + 1


COUNTERS = {
    "bases.to_p": count_to_p,
    "kernels.mul_terms": count_mul_terms,
    "kernels.kron_terms": count_kron_terms,
    "verify.first_difference": count_first_difference,
}


# ------------------------------------------------------------------ tracer

class Tracer:
    """Collects spans in memory; ``recording`` switches collection off
    without unwrapping (used while the benchmark checks outputs)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [-1]
        self.counts: dict = {}
        self.wrapped: list[str] = []
        self.recording = True

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        spans = self.spans
        stack = self.stack
        counter = COUNTERS.get(name)
        counts = self.counts.setdefault(name, {}) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            t_in = clock()
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if counter is not None:
                    counter(counts, *args, **kwargs)
                spans[index] = (name, parent, t_in, t0, t1, clock())

        return wrapper

    def root(self, fn, *args, **kwargs):
        """Run fn as a root span named ``job`` (one request or one job)."""
        return self.wrap(ROOT, fn)(*args, **kwargs)


def _targets():
    """(display name, owner, attribute, original object) for every wrapped
    function; ``owner`` is the module or class defining it."""
    out = []
    for modname in TRACED_MODULES:
        module = sys.modules[modname]
        for attr, obj in sorted(vars(module).items()):
            name = display_name(modname, attr)
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != modname or name in UNTRACED):
                continue
            out.append((name, module, attr, obj))
        for cls_name, methods in TRACED_METHODS.get(modname, {}).items():
            cls = getattr(module, cls_name)
            for attr in methods:
                out.append((display_name(modname, f"{cls_name}.{attr}"), cls, attr,
                            inspect.getattr_static(cls, attr)))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every target at every import site."""
    replacements = {}
    names = []
    for name, owner, attr, obj in _targets():
        if isinstance(obj, classmethod):
            new = classmethod(tracer.wrap(name, obj.__func__))
        else:
            new = tracer.wrap(name, obj)
        setattr(owner, attr, new)
        if inspect.isfunction(obj):
            replacements[id(obj)] = (obj, new)
        names.append(name)
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "symkron" or modname.startswith("symkron.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    tracer.wrapped = names


# ---------------------------------------------------------------- analysis

def self_times(spans) -> list[float]:
    """Per span: (t1 - t0) minus the wrapper-inclusive intervals of its
    direct children."""
    own = [s[4] - s[3] for s in spans]
    for name, parent, t_in, t0, t1, t_out in spans:
        if parent >= 0:
            own[parent] -= t_out - t_in
    return own


def aggregate(spans) -> dict:
    """Per layer name: calls, total_ms (outermost spans of that name only,
    so recursion is not counted twice) and self_ms."""
    selfs = self_times(spans)
    out: dict = {}
    for i, (name, parent, t_in, t0, t1, t_out) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += selfs[i] * 1e3
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            row["total_ms"] += (t1 - t0) * 1e3
    return out


def coverage(spans) -> float:
    """Share of root-span time that the wrapped layers' self times explain."""
    selfs = self_times(spans)
    root_total = covered = 0.0
    for i, span in enumerate(spans):
        if span[0] == ROOT:
            root_total += span[4] - span[3]
        else:
            covered += selfs[i]
    return covered / root_total if root_total else 0.0


def summary(tracer: Tracer) -> dict:
    """JSON-ready per-layer table plus named counts and coverage."""
    layers = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
              for name in tracer.wrapped}
    layers.update(aggregate(tracer.spans))
    for name, counts in tracer.counts.items():
        layers.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}).update(counts)
    return {"layers": layers, "coverage": coverage(tracer.spans),
            "spans": len(tracer.spans)}
