#!/usr/bin/env python3
"""symkron benchmark: cold fresh-process verifier runs and a library-query
stream, with output gates, end-to-end metrics and an optional traced run.

    python3 perfbench/run.py --workload suite-d20 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the program under test is ``src/symkron``.

Workloads (closed loop, one client, one single-threaded process at a time):

* ``suite-d20``: ``symkron verify all --degree 20`` in a fresh process, the
  headline end-to-end job.  p->s conversion (``bases``) and series
  expansion dominate it.
* ``table-d22``: ``symkron verify table --degree 22`` in a fresh process.
  Almost all of it is series expansion; it makes no basis conversion, so a
  change to ``bases`` should leave it unchanged.  It is not listed in
  BENCHMARK.json: the run budget fits two workloads at run lengths long
  enough to be steady on a noisy 2-CPU host, so run it by name.
* ``queries-w12``: one fresh process answers a seeded stream of library
  requests at weights 4..12: 70% ``kronecker_coefficient``, 20%
  ``from_p(expand(tag, d), b)`` for b in {s, m, h, e}, 10% JSON in ->
  ``kronecker`` -> JSON out.  Many small warm-memo conversions, where the
  suites make a few large cold ones.

An operation is one verify invocation for the suites and one request for
queries-w12; ``ops_per_s`` counts operations per second after import, and
latency is timed per operation (a suite's per-identity ``millis`` go to
the ``record`` line).

Each run repeats its workload's fixed job in fresh processes while the
slowest job so far still fits in ``--seconds`` (at least once) and
reports medians.  Set-up time
is also sampled by import-only processes.  ``--trace 1`` alternates an
untraced and a traced process and reports per-layer metrics from the
traced ones (see tracer.py).  Every job's output is checked; any failed
check makes the run exit 1.  The last line of standard output is the JSON
result; the line before it, starting ``record``, holds the run's
environment and raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 5       # import-only processes per run, after one warm-up
CHILD_TIMEOUT_S = 150  # one process; a run must end within 180 s
QUERY_PER_WEIGHT = 140  # requests per weight in one queries-w12 process
QUERY_WEIGHTS = (4, 12)
TAGS = ("H", "E", "S", "SHinv", "SEinv", "Modd", "Meven", "N", "P", "G")
CONVERSION_BASES = ("s", "m", "h", "e")

#: Layers that must record calls on a workload, else the traced run fails.
#: ``bases.to_p`` runs on table-d22 too: ``kronecker`` passes its p-basis
#: inputs through it unchanged (``bases.to_p.conversions`` stays 0).
_EXPANSION = ("named.expand", "series.exp_series", "kernels.mul_terms",
              "series.SymFunc.__mul__", "series.SymFunc.__init__",
              "products.kronecker", "kernels.kron_terms",
              "verify.first_difference", "bases.to_p")

WORKLOADS = {
    "suite-d20": {"kind": "suite", "what": "all", "degree": 20, "identities": 21,
                  "layers": _EXPANSION + ("bases.from_p",)},
    "table-d22": {"kind": "suite", "what": "table", "degree": 22, "identities": 15,
                  "layers": _EXPANSION},
    "queries-w12": {"kind": "queries",
                    "layers": ("products.kronecker_coefficient", "products.kronecker",
                               "kernels.kron_terms", "bases.from_p", "bases.to_p",
                               "named.expand", "series.exp_series", "kernels.mul_terms",
                               "series.SymFunc.__init__", "series.SymFunc.from_json",
                               "series.SymFunc.to_json")},
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
                    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms"}

#: Per-layer metrics: (metric name, layer, stat, unit).  ``stat`` is a key
#: of the tracer's per-layer row, or a named count.
PER_LAYER = (
    ("named.expand.calls", "named.expand", "calls", "count"),
    ("named.expand.misses", None, "expand_misses", "count"),
    ("named.expand.total_ms", "named.expand", "total_ms", "ms"),
    ("series.exp_series.total_ms", "series.exp_series", "total_ms", "ms"),
    ("series.exp_series.self_ms", "series.exp_series", "self_ms", "ms"),
    ("kernels.mul_terms.calls", "kernels.mul_terms", "calls", "count"),
    ("kernels.mul_terms.self_ms", "kernels.mul_terms", "self_ms", "ms"),
    ("kernels.mul_terms.pairs_attempted", "kernels.mul_terms", "pairs_attempted", "count"),
    ("kernels.mul_terms.pairs_kept", "kernels.mul_terms", "pairs_kept", "count"),
    ("kernels.mul_terms.useful_ratio", "kernels.mul_terms", "useful_ratio", "ratio"),
    ("series.SymFunc.__mul__.total_ms", "series.SymFunc.__mul__", "total_ms", "ms"),
    ("bases.from_p.calls", "bases.from_p", "calls", "count"),
    ("bases.from_p.total_ms", "bases.from_p", "total_ms", "ms"),
    ("bases.to_p.calls", "bases.to_p", "calls", "count"),
    ("bases.to_p.conversions", "bases.to_p", "conversions", "count"),
    ("bases.to_p.total_ms", "bases.to_p", "total_ms", "ms"),
    ("bases.char_memo_entries", None, "char_memo_entries", "count"),
    ("products.kronecker.total_ms", "products.kronecker", "total_ms", "ms"),
    ("kernels.kron_terms.self_ms", "kernels.kron_terms", "self_ms", "ms"),
    ("kernels.kron_terms.shared_keys", "kernels.kron_terms", "shared_keys", "count"),
    ("products.kronecker_coefficient.total_ms", "products.kronecker_coefficient",
     "total_ms", "ms"),
    ("verify.first_difference.total_ms", "verify.first_difference", "total_ms", "ms"),
    ("verify.first_difference.keys", "verify.first_difference", "keys", "count"),
    ("series.SymFunc.__init__.calls", "series.SymFunc.__init__", "calls", "count"),
    ("series.SymFunc.__init__.self_ms", "series.SymFunc.__init__", "self_ms", "ms"),
    ("series.SymFunc.from_json.total_ms", "series.SymFunc.from_json", "total_ms", "ms"),
    ("series.SymFunc.to_json.total_ms", "series.SymFunc.to_json", "total_ms", "ms"),
    ("trace.coverage", None, "coverage", "ratio"),
    ("trace.overhead_s", None, "overhead_s", "s"),
)


class GateError(Exception):
    """A process could not run its job at all (crash, timeout, wrong
    program); distinct from a wrong answer, which is counted."""


# ------------------------------------------------------------------ stats

def percentile(values, p: float) -> float:
    """p-th percentile (0..100), linear between closest ranks; the 50th is
    the median."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50)


# ------------------------------------------------------------- generation

def partitions(n: int, largest: int | None = None) -> list[tuple]:
    """All partitions of n as decreasing tuples, in a fixed order."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(first,) + rest
            for first in range(min(n, largest), 0, -1)
            for rest in partitions(n - first, first)]


def make_stream(seed: int, per_weight: int = QUERY_PER_WEIGHT) -> dict:
    """The seeded request stream of queries-w12.

    The counts are fixed: ``per_weight`` requests at every weight, split
    70/20/10 between coefficients, conversions (evenly over the target
    bases) and JSON Kronecker products.  The seed picks the partitions,
    the series and the order, so seeds differ in inputs, not in how much
    of each kind of work they ask for.  Returns the requests and the
    (tag, degree) pairs whose JSON texts the JSON requests read.
    """
    rng = random.Random(seed)
    n_conv = per_weight * 2 // 10 // len(CONVERSION_BASES) * len(CONVERSION_BASES)
    n_json = per_weight // 10
    n_coef = per_weight - n_conv - n_json
    requests = []
    series = set()
    for w in range(QUERY_WEIGHTS[0], QUERY_WEIGHTS[1] + 1):
        parts = partitions(w)
        for _ in range(n_coef):
            requests.append(["coef"] + [list(rng.choice(parts)) for _ in range(3)])
        for i in range(n_conv):
            basis = CONVERSION_BASES[i % len(CONVERSION_BASES)]
            requests.append(["conv", rng.choice(TAGS), w, basis])
        for _ in range(n_json):
            pair = [(rng.choice(TAGS), w) for _ in range(2)]
            series.update(pair)
            requests.append(["json"] + [f"{tag}/{d}" for tag, d in pair])
    rng.shuffle(requests)
    return {"requests": requests, "series": sorted(series)}


# ------------------------------------------------------------- processes

def spawn(work: str, mode: str, *args: str) -> dict:
    """Run one fresh child; returns its result with ``t_spawn`` added."""
    fd, result_path = tempfile.mkstemp(dir=work, suffix=".json")
    os.close(fd)
    log_path = result_path[:-5] + ".log"
    cmd = [sys.executable, "-I", CHILD, SRC, result_path, mode, *args]
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
                                  cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise GateError(f"{mode} process exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as log:
            tail = log.read()[-2000:]
        raise GateError(f"{mode} process exited {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    if not os.path.realpath(result["symkron_file"]).startswith(os.path.realpath(SRC) + os.sep):
        raise GateError(f"imported symkron from {result['symkron_file']}, not {SRC}")
    result["t_spawn"] = t_spawn
    result["setup_s"] = result["t_imported"] - t_spawn
    return result


def run_suite_job(work: str, spec: dict, traced: bool) -> dict:
    """One fresh ``symkron verify`` process; gates on exit 0 and on every
    expected identity reported as ``pass`` in the ``--json`` file."""
    reports_path = os.path.join(work, f"reports-{time.monotonic_ns()}.json")
    extra = ["trace"] if traced else []
    res = spawn(work, "suite", spec["what"], str(spec["degree"]), reports_path, *extra)
    try:
        with open(reports_path, encoding="utf-8") as handle:
            reports = json.load(handle)
    except (OSError, ValueError):
        reports = []
    passed = sum(1 for r in reports if r.get("status") == "pass")
    res["attempted"] = spec["identities"]
    res["failed"] = spec["identities"] - min(passed, spec["identities"])
    if res["exit"] != 0 and res["failed"] == 0:
        res["failed"] = 1
    res["failures"] = [f"{r.get('identity')}: {r.get('status')}"
                       for r in reports if r.get("status") != "pass"][:5]
    # One operation is one verify invocation, timed as the user waits for it.
    res["ops"] = 1
    res["latencies_ms"] = [(res["t_done"] - res["t_spawn"]) * 1e3]
    res["identity_ms"] = {r["identity"]: r["millis"] for r in reports}
    return res


def run_queries_job(work: str, stream_path: str, traced: bool, checked) -> dict:
    """One fresh queries process.  The first process of a run (``checked``
    is None) checks every answer by an independent route; each later one
    must return the same answers, request by request."""
    flags = (["trace"] if traced else []) + (["check"] if checked is None else [])
    res = spawn(work, "queries", stream_path, *flags)
    if checked is not None:
        differ = [i for i, (a, b) in enumerate(zip(res["fingerprints"],
                                                   checked["fingerprints"]))
                  if a is not None and a != b]
        res["failed"] += len(differ)
        res["failures"] += [f"request {i}: answer differs from the checked process"
                            for i in differ[:5]]
    res["ops"] = res["attempted"]
    return res


# ---------------------------------------------------------------- metrics

def end_to_end(jobs: list[dict], setup_samples: list[float]) -> dict:
    """Medians over the run's processes; latency percentiles pool the
    operations of every process."""
    lat = [x for job in jobs for x in job["latencies_ms"]]
    values = {
        "setup_s": (median(setup_samples), len(setup_samples)),
        "wall_s": (median([j["t_done"] - j["t_spawn"] for j in jobs]), len(jobs)),
        "peak_rss_mb": (median([j["peak_rss_mb"] for j in jobs]), len(jobs)),
        "ops_per_s": (median([j["ops"] / (j["t_done"] - j["t_imported"]) for j in jobs]),
                      len(jobs)),
        "latency_p50_ms": (percentile(lat, 50), len(lat)),
        "latency_p99_ms": (percentile(lat, 99), len(lat)),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name], "samples": n}
            for name, (v, n) in values.items()}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over the traced processes, plus tracing overhead."""
    rows = []
    for job in traced:
        trace = job["trace"]
        row = {}
        for name, layer, stat, _ in PER_LAYER:
            if layer is None:
                value = trace.get(stat)
            else:
                stats = dict(trace["layers"].get(layer, {}))
                if stat == "useful_ratio":
                    attempted = stats.get("pairs_attempted", 0)
                    stats[stat] = stats.get("pairs_kept", 0) / attempted if attempted else 0.0
                value = stats.get(stat, 0)
            if value is not None:
                row[name] = value
        row["trace.overhead_s"] = ((job["t_done"] - job["t_spawn"])
                                   - median([j["t_done"] - j["t_spawn"] for j in untraced]))
        rows.append(row)
    metrics = {}
    for name, _, _, unit in PER_LAYER:
        samples = [row[name] for row in rows if name in row]
        if samples:
            metrics[name] = {"value": median(samples), "unit": unit,
                             "samples": len(samples)}
    return metrics


def silent_layers(job: dict, layers) -> list[str]:
    found = job["trace"]["layers"]
    return [layer for layer in layers if found.get(layer, {}).get("calls", 0) == 0]


# -------------------------------------------------------------------- run

def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    started = time.monotonic()
    load_before = os.getloadavg()
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        spawn(work, "import")  # warm-up: byte-code cache and file cache
        setup = [spawn(work, "import")["setup_s"] for _ in range(SETUP_PROBES)]

        untraced, traced = [], []
        if spec["kind"] == "suite":
            def job(with_trace):
                return run_suite_job(work, spec, with_trace)
        else:
            stream = make_stream(seed)
            spec_path = os.path.join(work, "series-spec.json")
            with open(spec_path, "w", encoding="utf-8") as handle:
                json.dump(stream["series"], handle)
            texts = spawn(work, "prepare", spec_path)["series"]
            stream_path = os.path.join(work, "stream.json")
            with open(stream_path, "w", encoding="utf-8") as handle:
                json.dump({"requests": stream["requests"], "series": texts}, handle)

            def job(with_trace):
                return run_queries_job(work, stream_path, with_trace,
                                       untraced[0] if untraced else None)

        slowest = 0.0
        while True:
            t = time.monotonic()
            untraced.append(job(False))
            if trace:
                traced.append(job(True))
            slowest = max(slowest, time.monotonic() - t)
            if time.monotonic() - started + slowest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = untraced + traced
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    problems = [f for j in jobs for f in j["failures"]]
    for job_result in traced:
        silent = silent_layers(job_result, spec["layers"])
        if silent:
            problems.append(f"traced layers with zero calls: {', '.join(silent)}")
            failed += 1
    setup += [j["setup_s"] for j in untraced]
    metrics = (per_layer(traced, untraced) if trace
               else end_to_end(untraced, setup))
    first = jobs[0]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": first["python"], "backend": first["backend"],
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "commit": git_commit(),
        "processes": len(jobs), "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": problems[:10],
        "samples": {k: v["samples"] for k, v in metrics.items()},
        "wall_s": [j["t_done"] - j["t_spawn"] for j in untraced],
        "traced_wall_s": [j["t_done"] - j["t_spawn"] for j in traced],
        "setup_s": setup,
        "elapsed_s": time.monotonic() - started,
    }
    if spec["kind"] == "suite":
        names = {k for j in untraced for k in j["identity_ms"]}
        record["identity_ms"] = {k: median([j["identity_ms"][k] for j in untraced
                                            if k in j["identity_ms"]]) for k in sorted(names)}
    if trace:
        record["layers"] = [j["trace"]["layers"] for j in traced]
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "record": record}


def report(name: str, result: dict) -> None:
    """Human-readable lines, then the ``record`` line."""
    rec = result["record"]
    print(f"== {name}  seed {rec['seed']}  {rec['processes']} processes  "
          f"python {rec['python']}  backend {rec['backend']}  nproc {rec['nproc']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    print(f"  {'fail_ratio':<40} {rec['fail_ratio']:>14.6g} ratio  "
          f"({result['failed']}/{result['attempted']})")
    for problem in rec["problems"]:
        print(f"  FAILED: {problem}")
    print("record " + json.dumps(rec))


def strip(metrics: dict) -> dict:
    return {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symkron", "__init__.py")):
        print(f"error: program under test not found at {SRC}/symkron", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except GateError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])

    if len(names) == 1:
        final = results[names[0]]
        metrics = strip(final["metrics"])
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{name}.{k}": v for name, r in results.items()
                   for k, v in strip(r["metrics"]).items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
