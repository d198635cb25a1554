"""End-to-end benchmark of moditer: one workload, one seed, one process.

    python3 modbench/run.py --workload quadrature --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from src/,
on whatever numeric backend it selects).  The steps:

1. build the independent references (oracles.py) and self-test them; a
   wrong reference stops the run before anything is timed;
2. draw the workload's request list from the seed (workloads.py);
3. start fresh interpreters (worker.py) that import moditer and build the
   forms up front, several times, to time set-up; the last one serves the
   requests in whole rounds, one closed-loop client;
4. check every output (checks.py) and print the metrics.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 it holds the per-layer figures of a traced run, and the spans go to
modbench/out/.  A summary goes to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5            # interpreter launches timed per run; the last one serves
MIN_SAMPLES = 100     # timed requests per run, so that p90 has ten beyond it
TAIL = 0.90           # latency_tail_ms is this percentile
RUN_LIMIT_S = 170.0   # everything, set-up and checks included, ends before this


def _percentile(values, p):
    xs = sorted(values)
    k = p * (len(xs) - 1)
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def _worker_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MODITER_")}
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one numeric thread: one client, and no BLAS pool contending with it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """A fresh interpreter running worker.py; set-up ends at its ready line."""

    def __init__(self, job, deadline):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=_worker_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.close()
            self.proc.stdin = None  # nothing more to send; communicate() must not flush it
            ready = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            self.ready = json.loads(ready)
        except (OSError, ValueError):
            self.stop()
            raise RuntimeError("worker failed during set-up")

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError("worker ran past the run's time limit")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def result(self) -> dict:
        return json.loads(self.finish().strip().splitlines()[-1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _import_times() -> dict:
    """Cumulative import times of moditer and scipy.special in a fresh
    interpreter, from python -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import moditer"], cwd=ROOT,
        env=_worker_env(), capture_output=True, text=True, timeout=60,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) / 1e3
    return {"setup.import_ms": cumulative.get("moditer", 0.0),
            "setup.import_scipy_ms": cumulative.get("scipy.special", 0.0)}


def _verdicts(checker, result):
    """Check every timed and warm-up output; returns per-execution pass flags."""
    outputs = [[json.loads(t) for t in outs] for outs in result["outputs"]]
    keys = {}  # (round, request) -> output key, to pair functional-equation partners
    for r, i, _, key in result["latency"]:
        keys[(r, i)] = key
    cache = {}
    flags = []
    for r, i, _, key in result["latency"]:
        req = checker.requests[i]
        pkey = None
        if req.get("partner"):
            j = checker.by_id[req["partner"]]
            pkey = (j, keys[(r, j)])
        memo = (i, key, pkey)
        if memo not in cache:
            partner_out = outputs[pkey[0]][pkey[1]] if pkey else None
            cache[memo] = checker.verdict(i, outputs[i][key], partner_out)
        flags.append(cache[memo])
    return flags


def _per_layer(result, traced_requests, ratio, bytes_out, setup):
    """Per completed traced request: self times, counts and the CLI's bytes
    written; set-up figures per run."""
    tr = result["trace"]
    self_ms = {k: v * 1e3 for k, v in tr["self_s"].items()}
    count = tr["count"]
    n = max(traced_requests, 1)

    def per(v):
        return v / n

    horner_terms = count.get("kernels.horner_terms", 0)
    reports = count.get("iterint.reports", 0)
    metrics = {
        "kernels.horner_ms": (per(self_ms.get("kernels.horner", 0.0)), "ms"),
        "kernels.horner_terms": (per(horner_terms), "count"),
        "forms.horner_useful_ratio": (count.get("forms.horner_useful_terms", 0) / horner_terms
                                      if horner_terms else 0.0, "ratio"),
        "forms.eval_ms": (per(self_ms.get("forms.eval", 0.0)), "ms"),
        "forms.eval_points": (per(count.get("forms.eval_points", 0)), "count"),
        "quad.ms": (per(self_ms.get("quad", 0.0)), "ms"),
        "quad.sweeps": (per(count.get("quad.sweeps", 0)), "count"),
        "quad.nodes": (per(count.get("quad.nodes", 0)), "count"),
        "quad.doublings": (per(count.get("quad.doublings", 0)), "count"),
        "iterint.ms": (per(self_ms.get("iterint", 0.0)), "ms"),
        "iterint.reports": (per(reports), "count"),
        "iterint.sweeps_per_report": (count.get("iterint.report_sweeps", 0) / reports if reports else 0.0, "count"),
        "mzv.ms": (per(self_ms.get("mzv", 0.0)), "ms"),
        "process.rss_growth_mb": (result["rss_end_mb"] - result["rss_warm_mb"], "MB"),
        "kernels.conv_ms": (per(self_ms.get("kernels.conv", 0.0)), "ms"),
        "kernels.conv_macs": (per(count.get("kernels.conv_macs", 0)), "count"),
        "lfun.ms": (per(self_ms.get("lfun", 0.0)), "ms"),
        "lfun.direct_calls": (per(count.get("lfun.direct_calls", 0)), "count"),
        "lfun.shells": (per(count.get("lfun.shells", 0)), "count"),
        "identities.ms": (per(self_ms.get("identities", 0.0)), "ms"),
        "identities.terms": (per(count.get("identities.terms", 0)), "count"),
        "identities.coeff_eval_ms": (per(self_ms.get("identities.coeff_eval", 0.0)), "ms"),
        "qseries.ms": (per(self_ms.get("qseries", 0.0)), "ms"),
        "qseries.calls": (per(count.get("qseries.calls", 0)), "count"),
        "qseries.coeffs": (per(count.get("qseries.coeffs", 0)), "count"),
        "forms.build_ms": (per(self_ms.get("forms.build", 0.0)), "ms"),
        "forms.build_calls": (per(count.get("forms.build_calls", 0)), "count"),
        "cli.ms": (per(self_ms.get("cli", 0.0)), "ms"),
        "cli.bytes_out": (per(bytes_out), "bytes"),
        "setup.import_ms": (setup["setup.import_ms"], "ms"),
        "setup.import_scipy_ms": (setup["setup.import_scipy_ms"], "ms"),
        "setup.prebuild_ms": (result["prebuild_ms"], "ms"),
        "trace.overhead_ratio": (ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "moditer" / "__init__.py").is_file():
        print(f"error: no moditer source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    db = oracles.Coefficients()
    bad = oracles.self_test(db)
    if bad:
        print("error: oracle self-test failed:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    requests = workloads.requests(args.workload, args.seed)
    checker = checks.Checker(db, requests)

    job = {"requests": requests, "seconds": args.seconds, "min_samples": MIN_SAMPLES,
           "trace": bool(args.trace)}
    setups = []
    try:
        for _ in range(SETUPS - 1):
            probe = Worker({**job, "probe": True}, deadline)
            setups.append(probe.setup_s)
            probe.finish()
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            job["trace_file"] = str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            import_times = _import_times()
        server = Worker(job, deadline)
        setups.append(server.setup_s)
        result = server.result()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    flags = _verdicts(checker, result)
    timed = [(row, ok) for row, ok in zip(result["latency"], flags) if row[0] > 0]
    unexpected = sorted({checker.requests[row[1]]["id"] for row, ok in zip(result["latency"], flags)
                         if not ok} - {r["id"] for r in workloads.KNOWN_FAULTS[args.workload]})
    attempted = len(timed)
    failed = sum(1 for _, ok in timed if not ok)
    rounds = {r["round"]: r for r in result["rounds"]}
    plain = [row for row, _ in timed if not rounds[row[0]]["traced"]]
    plain_wall = sum(r["wall_s"] for r in result["rounds"] if r["round"] > 0 and not r["traced"])

    if args.trace:
        traced = [row for row, _ in timed if rounds[row[0]]["traced"]]
        traced_wall = sum(r["wall_s"] for r in result["rounds"] if r["traced"])
        ratio = (len(plain) / plain_wall) / (len(traced) / traced_wall)
        bytes_out = sum(len(json.loads(result["outputs"][i][key]).get("stdout", "").encode())
                        for r, i, _, key in result["latency"] if rounds[r]["traced"])
        metrics = _per_layer(result, len(traced), ratio, bytes_out, import_times)
    else:
        lat = [row[2] for row in plain]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "requests_per_s": {"value": len(plain) / plain_wall, "unit": "1/s"},
            "latency_p50_ms": {"value": _percentile(lat, 0.5), "unit": "ms"},
            "latency_tail_ms": {"value": _percentile(lat, TAIL), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests a round, "
          f"{len(result['rounds']) - 1} timed rounds, {attempted} attempted, {failed} failed, "
          f"backend {server.ready['backend']}", file=sys.stderr)
    if unexpected:
        print(f"unexpected failures: {', '.join(unexpected)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if args.trace and result["trace"]["absent"]:
        print(f"  absent: {', '.join(result['trace']['absent'])}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
