"""Benchmark of ``mdcrt simulate`` on the shipped figure configs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fig3-multistage --seed 1 --seconds 30 --trace 0

A run starts measured rounds, each in a fresh interpreter (``worker.py``),
one after another: serial, one caller, closed loop. Every round cold-starts
setup, runs the whole sweep and then times the same 1000 decode calls, so
p99 has ten samples beyond it. Rounds continue until ``--seconds`` have
passed and at least three have run.

With ``--trace 0`` it prints the end-to-end metrics: medians over rounds
of setup time, simulate time (setup, sweep and CSV formatting), peak RSS
(``ru_maxrss`` once the CSVs are formatted, before the decode stream) and
sweep throughput (sweep trials per sweep second); and p50 and p99 of decode
latency, where every round decodes the same inputs and an input's latency
is the median of its times over rounds. Times are CPU time of the serial,
CPU-bound round process, which equals its wall time except while another
tenant of a shared host holds the core; that wait otherwise set half the
spread between runs and most of the latency tail. The host's speed drifts
as well, by tens of percent over minutes, so every time is scaled to
nominal host speed by a reference computation timed beside it
(``hostspeed.py``). Raw CPU and wall-clock figures are printed alongside.

With ``--trace 1`` it runs one untraced and one traced round and prints
per-layer metrics from the traced one, plus the tracing overhead (traced
over untraced simulate time); the spans go to
``.bench_out/trace-<workload>.tsv.gz``.

Correctness: both CSV digests must match the pinned ones (printed instead
when none is pinned for the seed and trial count) and agree across rounds;
no sweep trial or decode with tau^2 <= the exact guarantee may miss; a
decode that replays a sweep trial must return the sweep's estimate; and
no call may raise anything but ``Inconsistent``. The last line of stdout is
one JSON object: correct, attempted, failed, metrics.

Exit codes: 0 result printed, 1 the program or a round failed to run,
2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
DECODES_PER_ROUND = 1000
RUN_LIMIT_S = 170  # a run must end within 180 s
TAIL_SAMPLES = 10


def percentile(sorted_values, p) -> float:
    """Nearest-rank percentile ``p`` (in percent) of ascending values."""
    rank = max(1, math.ceil(Fraction(str(p)) * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def tail_percentile(n: int, candidates=(99.9, 99, 90, 50)):
    """Highest candidate percentile with at least ten of ``n`` samples beyond
    it, or None."""
    for p in candidates:
        if n - math.ceil(Fraction(str(p)) * n / 100) >= TAIL_SAMPLES:
            return p
    return None


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_per_trial"):
        return "calls/trial"
    if name.endswith(("ratio", "per_call")):
        return "ratio"
    return "count"


def run_worker(deadline: float, root: str, workload: str, seed: int, trials: int, **opts) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", workload, "--seed", str(seed), "--trials", str(trials)]
    for key, value in opts.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark mdcrt sweeps and decodes.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, default=None, help="trials per tau (default: the workload's)")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.trials is None:
        args.trials = WORKLOADS[args.workload].trials
    if args.trials < 1:
        p.error("--trials must be at least 1")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def check_digests(args, rounds) -> bool:
    got = {(r["summary_sha256"], r["raw_sha256"]) for r in rounds}
    if len(got) != 1:
        print(f"digest: rounds disagree: {sorted(got)}")
        return False
    summary, raw = got.pop()
    pinned = DIGESTS.get((args.workload, args.seed)) if args.trials == WORKLOADS[args.workload].trials else None
    if pinned is None:
        print(f"digest: none pinned for seed {args.seed}, trials {args.trials}: summary {summary} raw {raw}")
        return True
    ok = pinned == (summary, raw)
    print(f"digest: {'match' if ok else 'MISMATCH'} summary {summary} raw {raw}")
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    wl = WORKLOADS[args.workload]
    for need in ("src/mdcrt/__init__.py", wl.config):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of an mdcrt checkout", file=sys.stderr)
            return 1

    start = time.perf_counter()
    common = dict(
        deadline=start + RUN_LIMIT_S, root=root, workload=args.workload, seed=args.seed, trials=args.trials,
    )
    rounds = []
    try:
        if args.trace:
            rounds.append(run_worker(**common, decode_calls=0))
            trace_out = os.path.join(root, ".bench_out", f"trace-{args.workload}.tsv.gz")
            rounds.append(
                run_worker(**common, trace_out=trace_out, decode_calls=2 * rounds[0]["pairs"])
            )
        else:
            while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                rounds.append(run_worker(**common, decode_calls=DECODES_PER_ROUND))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests_ok = check_digests(args, rounds)
    attempted = sum(r["sweep_trials"] + r["decode"]["calls"] for r in rounds)
    failed = sum(r["guarantee_violations"] + r["decode"]["failed"] for r in rounds)
    for i, r in enumerate(rounds):
        d = r["decode"]
        c, w = r["cpu"], r["wall"]
        print(
            f"round {i}: scaled (cpu, wall) setup {r['setup_s']:.4f} ({c['setup_s']:.4f}, {w['setup_s']:.4f}) s, "
            f"simulate {r['simulate_s']:.4f} ({c['simulate_s']:.4f}, {w['simulate_s']:.4f}) s, "
            f"sweep {r['sweep_trials']} trials in {r['sweep_s']:.4f} ({c['sweep_s']:.4f}, {w['sweep_s']:.4f}) s, "
            f"outcomes {r['outcomes']}, guarantee violations {r['guarantee_violations']}, decodes {d['calls']} "
            f"(inconsistent {d['inconsistent']}, violations {d['violations']}, "
            f"mismatches {d['mismatch']}, failed {d['failed']}) {'; '.join(d['errors'])}"
        )
    if not digests_ok:
        failed = attempted

    if args.trace:
        untraced, traced = rounds
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_ratio"] = traced["simulate_s"] / untraced["simulate_s"]
        for key, value in traced["outcomes"].items():
            metrics[f"outcome.{key}"] = value
        metrics["monitor.guarantee_violations"] = traced["guarantee_violations"] + traced["decode"]["violations"]
        out = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
        if traced["missing_probes"]:
            print(f"trace: probes not found (reported as 0): {', '.join(traced['missing_probes'])}")
        print(f"trace: overhead {metrics['trace.overhead_ratio']:.3f}x, spans in {trace_out}")
    else:
        # Every round decodes the same inputs in the same order, each in a
        # fresh interpreter, so a call's latency is the median of its times
        # over rounds: a burst of host load during one round moves no input.
        per_call_ms = sorted(
            statistics.median(times) / 1e6 for times in zip(*(r["decode_scaled_ns"] for r in rounds))
        )
        cpu_ms = sorted(ns / 1e6 for r in rounds for ns in r["decode_cpu_ns"])
        wall_ms = sorted(ns / 1e6 for r in rounds for ns in r["decode_ns"])
        n = len(per_call_ms)
        tail = tail_percentile(n)
        print(f"decode: {n} inputs x {len(rounds)} rounds; scaled per-input median p50 {percentile(per_call_ms, 50):.4f} ms, "
              f"p99 {percentile(per_call_ms, 99):.4f} ms; pooled cpu p50 {percentile(cpu_ms, 50):.4f} ms, "
              f"p99 {percentile(cpu_ms, 99):.4f} ms; pooled wall p50 {percentile(wall_ms, 50):.4f} ms, "
              f"p99 {percentile(wall_ms, 99):.4f} ms; p{tail} is the highest percentile with {TAIL_SAMPLES}+ samples beyond")
        out = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
            "simulate_s": {"value": statistics.median(r["simulate_s"] for r in rounds), "unit": "s"},
            "sweep_trials_per_s": {
                "value": statistics.median(r["sweep_trials"] / r["sweep_s"] for r in rounds), "unit": "1/s",
            },
            "decode_ms_p50": {"value": percentile(per_call_ms, 50), "unit": "ms"},
            "decode_ms_p99": {"value": percentile(per_call_ms, 99), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
