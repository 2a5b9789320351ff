"""One fresh benchmark process: import symkron, run one fixed job, report.

Usage (started by run.py, never by hand):

    child.py SRC RESULT import
    child.py SRC RESULT prepare SPEC
    child.py SRC RESULT suite WHAT DEGREE REPORTS [trace]
    child.py SRC RESULT queries STREAM [trace] [check]

SRC is the directory holding the ``symkron`` package under test.  The
import time (CLOCK_MONOTONIC, shared with the parent) is taken right after
``import symkron`` and before anything else is imported, so the parent can
compute set-up time from its own spawn timestamp.  ``t_done`` and the peak
RSS are taken when the job's last operation returns, before any output
check, so checking costs neither.
"""

import sys
import time

_SRC = sys.argv[1]
sys.path.insert(0, _SRC)
import symkron  # noqa: E402

T_IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(enabled: bool):
    if not enabled:
        return None
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    t = tracer.Tracer()
    tracer.install(t)
    return t


def _run(tr, fn, *args):
    return fn(*args) if tr is None else tr.root(fn, *args)


def _trace_summary(tr) -> dict:
    import tracer

    out = tracer.summary(tr)
    cache = getattr(symkron.bases, "_char_cache", None)
    if cache is not None:
        out["char_memo_entries"] = len(cache)
    expand_cache = getattr(symkron.named, "_expand_cached", None)
    if hasattr(expand_cache, "cache_info"):
        out["expand_misses"] = expand_cache.cache_info().misses
    return out


# -------------------------------------------------------------------- jobs

def job_prepare(spec_path: str) -> dict:
    """p-basis JSON text of each named series (tag, degree) in the spec;
    these are the pre-generated inputs of the JSON Kronecker requests."""
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"series": {f"{tag}/{d}": symkron.expand(tag, d).to_json()
                       for tag, d in spec}}


def job_suite(what: str, degree: str, reports_path: str, traced: bool) -> dict:
    from symkron import cli

    tr = _tracer(traced)
    code = _run(tr, cli.main, ["verify", what, "--degree", degree, "--json", reports_path])
    out = {"t_done": time.monotonic(), "peak_rss_mb": _peak_rss_mb(), "exit": code}
    if tr is not None:
        out["trace"] = _trace_summary(tr)
    return out


def _check(request, answer) -> bool:
    """Independent route for each request kind."""
    kind = request[0]
    if kind == "coef":
        return answer == symkron.kronecker_coefficient(*request[1:], oracle=True)
    if kind == "conv":
        tag, degree, _ = request[1:]
        return symkron.to_p(answer) == symkron.expand(tag, degree)
    lhs, rhs = request[1:]
    (tag_a, d), (tag_b, _) = (key.split("/") for key in (lhs, rhs))
    return (symkron.SymFunc.from_json(answer)
            == symkron.kronecker_product_form(tag_a, tag_b, int(d)))


def _fingerprint(answer) -> str:
    """Exact, order-independent identity of one answer, for comparing the
    answers of processes that ran the same stream."""
    if isinstance(answer, symkron.SymFunc):
        answer = f"{answer.basis} {answer.degree} {sorted(answer.terms.items())!r}"
    return hashlib.blake2b(repr(answer).encode(), digest_size=12).hexdigest()


def job_queries(stream_path: str, traced: bool, check: bool) -> dict:
    """Closed loop, one client: each request starts when the previous one
    has returned.  After the timed loop, every answer is checked by an
    independent route when ``check`` is set; the parent compares the
    fingerprints of the other processes' answers with the checked ones."""
    with open(stream_path, encoding="utf-8") as handle:
        stream = json.load(handle)
    requests = stream["requests"]
    texts = stream["series"]
    tr = _tracer(traced)
    # Looked up on the package after tracing is installed, so they are the
    # wrapped functions in a traced run.
    SymFunc = symkron.SymFunc
    handlers = {
        "coef": lambda r: symkron.kronecker_coefficient(*r[1:]),
        "conv": lambda r: symkron.from_p(symkron.expand(r[1], r[2]), r[3]),
        "json": lambda r: symkron.kronecker(SymFunc.from_json(texts[r[1]]),
                                            SymFunc.from_json(texts[r[2]])).to_json(),
    }
    clock = time.perf_counter
    answers = []
    latencies = []
    raised = []
    for i, request in enumerate(requests):
        handler = handlers[request[0]]
        t = clock()
        try:
            answers.append(_run(tr, handler, request))
        except Exception as exc:  # a raised request counts as failed
            answers.append(None)
            raised.append(f"request {i} {request!r}: {exc!r}")
        latencies.append((clock() - t) * 1e3)
    out = {"t_done": time.monotonic(), "peak_rss_mb": _peak_rss_mb(),
           "latencies_ms": latencies}
    if tr is not None:
        out["trace"] = _trace_summary(tr)
        tr.recording = False

    wrong = []
    if check:
        wrong = [f"request {i} {request!r}: wrong answer"
                 for i, (request, answer) in enumerate(zip(requests, answers))
                 if answer is not None and not _check(request, answer)]
    out["fingerprints"] = [None if a is None else _fingerprint(a) for a in answers]
    out["attempted"] = len(answers)
    out["failed"] = len(raised) + len(wrong)
    out["failures"] = (raised + wrong)[:5]
    return out


def main() -> None:
    result_path, mode, rest = sys.argv[2], sys.argv[3], sys.argv[4:]
    if mode == "import":
        out = {}
    elif mode == "prepare":
        out = job_prepare(rest[0])
    elif mode == "suite":
        out = job_suite(rest[0], rest[1], rest[2], "trace" in rest[3:])
    elif mode == "queries":
        out = job_queries(rest[0], "trace" in rest[1:], "check" in rest[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out.update({
        "t_imported": T_IMPORTED,
        "symkron_file": symkron.__file__,
        "backend": symkron.backend_name(),
        "python": platform.python_version(),
    })
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main()
