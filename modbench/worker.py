"""The process that serves a workload's requests.

run.py starts it as a fresh interpreter with PYTHONPATH pointing at the
checkout's src/, and writes one JSON job to its stdin.  The worker imports
moditer, builds the forms the job's requests use, and prints one "ready"
line; that is where set-up ends.  A probe job stops there.  Otherwise it runs
one untimed warm-up round and then whole timed rounds of the request list in
a closed loop -- each request starts when the previous one has returned --
until the run length and the minimum sample count are both reached.  With
tracing on, timed rounds alternate untraced and traced.  The last line of
stdout is the result: latencies, distinct outputs per request, memory and
trace figures.

Only names in each module's ``__all__`` (and the CLI entry point) are called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import moditer
from moditer import cli, forms, identities, iterint, lfun, mzv


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


# Forms for the Dirichlet workload carry the default cutoff's worth of terms.
DIRICHLET_ORDER = 2000


class Forms:
    """Forms built up front, keyed by (name, order); "F~" is F's Fricke companion."""

    def __init__(self):
        self._built = {}

    def get(self, name: str, order: int):
        key = (name, order)
        if key not in self._built:
            f = forms.builtin(name.rstrip("~"), order)
            self._built[key] = forms.fricke_companion(f) if name.endswith("~") else f
        return self._built[key]

    def prebuild(self, requests):
        for req in requests:
            op = req["op"]
            if op in ("iterint", "shuffle"):
                for name, _ in req["words"]:
                    self.get(name, req["order"])
            elif op in ("lvalue", "thi", "ths", "tilde"):
                for name in req["names"]:
                    if name is not None:
                        self.get(name, DIRICHLET_ORDER)


def execute(req, built: Forms) -> dict:
    op = req["op"]
    if op == "iterint":
        spec = iterint.make_spec([(built.get(n, req["order"]), _z(s)) for n, s in req["words"]])
        rep = iterint.iterint_report(spec)
        return {"value": _pair(rep.value), "err": rep.err_estimate, "divisors": list(rep.divisors)}
    if op == "shuffle":
        entries = [(built.get(n, req["order"]), _z(s)) for n, s in req["words"]]
        k = req["k"]
        a, b = _z(req["a"]), _z(req["b"])
        words = [entries[:k], entries[k:]]
        words += [[entries[i] for i in perm] for perm in iterint.shuffles(k, len(entries) - k)]
        return {"values": [_pair(iterint.nested_quadrature(iterint.make_spec(w), a, b)) for w in words]}
    if op == "mzv":
        return {"value": mzv.mzv_modular_integral(mzv.MzvIndex(tuple(req["index"])))}
    word = [built.get(n, DIRICHLET_ORDER) if n is not None else 1 for n in req.get("names", ())]
    if op == "lvalue":
        cfg = moditer.NumericsConfig(cutoff=req["cutoff"])
        got = lfun.L_direct(lfun.LSpec(tuple(word), tuple(_z(s) for s in req["s"])), cfg)
        return {"value": _pair(got.value), "err": got.tail_estimate}
    if op == "thi":
        tl = identities.thI_expand(word, tuple(req["alphas"]))
        return {"value": _pair(lfun.evaluate_L_terms(tl, word, _z(req["s"]))), "terms": len(tl)}
    if op == "ths":
        s0 = _z(req["s"])
        a0s = [f.a0 for f in word]
        tl = identities.thS_expand(word, tuple(req["alphas"]))
        terms = []
        for t in tl:
            args = [a.at(s0) if isinstance(a, identities.SPlus) else complex(a) for a in t.target.args]
            terms.append([_pair(t.coeff.evaluate(s0, a0s)), list(t.target.indices), [_pair(a) for a in args]])
        return {"terms": terms}
    if op == "tilde":
        spec = iterint.make_spec(list(zip(word, req["alphas"])))
        cfg = moditer.NumericsConfig(order=req["order"])
        return {"value": _pair(iterint.tilde_I_fourier(spec, _z(req["z"]), cfg))}
    if op == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req["argv"]))
        # the CLI's own wall-time line differs on every call; it is timing, not output
        stderr = "".join(line for line in err.getvalue().splitlines(True)
                         if not line.startswith("wall time:"))
        return {"code": code, "stdout": out.getvalue(), "stderr": stderr}
    raise ValueError(f"unknown op {op!r}")


def run_request(req, built) -> dict:
    try:
        return execute(req, built)
    except Exception as exc:  # every outcome is data for the checker
        return {"error": type(exc).__name__, "message": str(exc)[:300]}


def serve(job, built, tracer) -> dict:
    requests = job["requests"]
    latency = []  # [round, request index, ms, output key]
    outputs = [dict() for _ in requests]
    rounds = []

    def one_round(r, traced):
        if traced:
            tracer.install()
        start = perf_counter()
        for i, req in enumerate(requests):
            if traced:
                tracer.request = f"{r}:{i}"  # round:index, shared by the request's spans
            t0 = perf_counter()
            out = run_request(req, built)
            ms = (perf_counter() - t0) * 1e3
            text = json.dumps(out, sort_keys=True)
            latency.append([r, i, ms, outputs[i].setdefault(text, len(outputs[i]))])
        wall = perf_counter() - start
        if traced:
            tracer.uninstall()
        rounds.append({"round": r, "traced": traced, "wall_s": wall})

    one_round(0, False)  # warm-up: lazy caches fill, nothing is timed
    rss_warm = _rss_mb()
    began = perf_counter()
    r = 0
    while True:
        r += 1
        one_round(r, tracer is not None and r % 2 == 0)
        samples = r * len(requests)
        if perf_counter() - began >= job["seconds"] and samples >= job["min_samples"] and r >= 2:
            break
    return {
        "rounds": rounds,
        "latency": latency,
        "outputs": [sorted(o, key=o.get) for o in outputs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_warm_mb": rss_warm,
        "rss_end_mb": _rss_mb(),
    }


def main() -> int:
    job = json.loads(sys.stdin.readline())
    t0 = perf_counter()
    built = Forms()
    built.prebuild(job["requests"])
    prebuild_ms = (perf_counter() - t0) * 1e3
    print(json.dumps({"ready": True, "prebuild_ms": prebuild_ms, "backend": moditer.BACKEND}), flush=True)
    if job.get("probe"):
        return 0
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer(moditer.NumericsConfig().cutoff)
    result = serve(job, built, tracer)
    result["prebuild_ms"] = prebuild_ms
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(job["trace_file"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
