"""Tests for the benchmark's own code: statistics, span self time, the
seeded request stream and the tracer's wrapping.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402


# ------------------------------------------------------------------ stats

@pytest.mark.parametrize("values", [[3.0], [5, 1], [4, 1, 3], [9, 2, 7, 4],
                                    [0.5, 0.25, 8.0, 1.0, 2.0, 3.0]])
def test_median_matches_statistics(values):
    assert run.median(values) == statistics.median(values)


def test_percentile_ends_and_interpolation():
    xs = [40.0, 10.0, 30.0, 20.0]
    assert run.percentile(xs, 0) == 10.0
    assert run.percentile(xs, 100) == 40.0
    assert run.percentile(xs, 50) == 25.0
    assert run.percentile(xs, 25) == pytest.approx(17.5)


def test_p99_of_a_hundred_and_one_samples_is_the_second_largest():
    xs = list(range(101))
    assert run.percentile(xs, 99) == 99


def test_percentile_agrees_with_inclusive_quantiles():
    xs = [7.1, 0.3, 5.5, 2.2, 9.9, 4.0, 6.6, 1.8, 3.3]
    q = statistics.quantiles(xs, n=100, method="inclusive")
    for p in (1, 25, 50, 75, 99):
        assert run.percentile(xs, p) == pytest.approx(q[p - 1])


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        run.percentile([], 50)


# -------------------------------------------------------------- self time

def span(name, parent, t0, t1, pad=0.0):
    """A span whose wrapper adds ``pad`` seconds on either side."""
    return (name, parent, t0 - pad, t0, t1, t1 + pad)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("job", -1, 0.0, 10.0),
        span("a", 0, 1.0, 5.0),
        span("b", 1, 2.0, 3.0),   # grandchild of job: not subtracted from job
        span("c", 0, 6.0, 9.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0])


def test_self_time_charges_wrapper_bookkeeping_to_no_layer():
    spans = [span("job", -1, 0.0, 10.0), span("a", 0, 2.0, 4.0, pad=0.5)]
    own = tracer.self_times(spans)
    assert own == pytest.approx([7.0, 2.0])
    assert tracer.coverage(spans) == pytest.approx(0.2)


def test_aggregate_counts_recursive_total_once():
    spans = [
        span("job", -1, 0.0, 10.0),
        span("f", 0, 1.0, 9.0),
        span("f", 1, 2.0, 4.0),
        span("g", 2, 2.5, 3.0),
    ]
    rows = tracer.aggregate(spans)
    assert rows["f"]["calls"] == 2
    assert rows["f"]["total_ms"] == pytest.approx(8000.0)
    assert rows["f"]["self_ms"] == pytest.approx(6000.0 + 1500.0)
    assert rows["g"]["self_ms"] == pytest.approx(500.0)


def test_tracer_records_parents_and_counts():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert t.root(outer, 1) == 3
    names = [s[0] for s in t.spans]
    parents = [s[1] for s in t.spans]
    assert names == ["job", "outer", "inner", "inner"]
    assert parents == [-1, 0, 1, 1]
    t.recording = False
    assert outer(1) == 3
    assert len(t.spans) == 4


def test_mul_terms_counter_matches_brute_force():
    a = {(1,): 1, (2,): 1, (1, 1): 1, (3,): 1}
    b = {(): 1, (1,): 1, (2, 1): 1}
    counts = {}
    tracer.count_mul_terms(counts, a, b, limit=3)
    kept = sum(1 for ka in a for kb in b if sum(ka) + sum(kb) <= 3)
    assert counts == {"pairs_attempted": 12, "pairs_kept": kept}


# ---------------------------------------------------------------- streams

def test_same_seed_gives_same_stream():
    assert run.make_stream(7, 30) == run.make_stream(7, 30)


def test_different_seeds_give_different_streams():
    assert run.make_stream(7, 30)["requests"] != run.make_stream(8, 30)["requests"]


def test_stream_is_well_formed():
    stream = run.make_stream(3, 140)
    kinds = [r[0] for r in stream["requests"]]
    assert len(kinds) == 140 * 9
    assert (kinds.count("coef"), kinds.count("conv"), kinds.count("json")) == (98 * 9, 28 * 9, 14 * 9)
    lo, hi = run.QUERY_WEIGHTS
    needed = set()
    for r in stream["requests"]:
        if r[0] == "coef":
            w = sum(r[1])
            assert lo <= w <= hi
            assert all(sum(p) == w and list(p) == sorted(p, reverse=True) for p in r[1:])
        elif r[0] == "conv":
            assert r[1] in run.TAGS and lo <= r[2] <= hi
            assert r[3] in run.CONVERSION_BASES
        else:
            needed.update(r[1:])
    assert needed == {f"{tag}/{d}" for tag, d in stream["series"]}
    json.dumps(stream)


def test_partition_counts():
    assert [len(run.partitions(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert len(set(run.partitions(12))) == 77


# ---------------------------------------------------------------- install

_INSTALL_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import symkron, tracer
t = tracer.Tracer()
tracer.install(t)
from symkron import verify
report = t.root(verify.verify_table_entry, "S", "S", 6)
out = tracer.summary(t)
out["bound"] = {
    "verify.from_p": verify.from_p is symkron.bases.from_p,
    "verify.kronecker": verify.kronecker is symkron.products.kronecker,
    "named.exp_series": symkron.named.exp_series is symkron.series.exp_series,
    "package.from_p": symkron.from_p is symkron.bases.from_p,
}
out["status"] = report.status
print(json.dumps(out))
"""


def test_install_wraps_every_import_site():
    src = os.path.join(os.path.dirname(BENCH), "src")
    proc = subprocess.run([sys.executable, "-I", "-c", _INSTALL_PROBE, src, BENCH],
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["status"] == "pass"
    assert all(out["bound"].values())
    layers = out["layers"]
    for name in ("verify.verify_table_entry", "products.kronecker", "kernels.kron_terms",
                 "named.expand", "series.exp_series", "kernels.mul_terms",
                 "series.SymFunc.__init__", "series.SymFunc.__mul__",
                 "verify.first_difference"):
        assert layers[name]["calls"] > 0, name
    assert layers["bases.from_p"]["calls"] == 0
    assert layers["verify.first_difference"]["keys"] > 0
    assert 0.9 < out["coverage"] <= 1.0
