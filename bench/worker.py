"""One measured round of the benchmark, in a fresh interpreter.

A fresh interpreter is needed because ``simkit`` caches the machinery and
the resolved f per sweep config, and matrices cache det/adj: a second setup
in one process would be nearly free. ``run.py`` starts this script once per
round and reads the JSON object it prints as its last line.

Phases:
1. setup: load the config and resolve f for every reconstructor;
2. sweep: run the whole tau grid serially and format both CSVs;
3. decode stream: time single reconstructor calls, one caller, closed loop,
   cycling round-robin over (reconstructor, tau) with inputs drawn exactly as
   the sweep draws them, so call k replays sweep trial k // len(pairs) and,
   where the sweep ran that trial, its estimate must equal the sweep's record.

Phases and calls are timed in CPU time of this single-threaded process,
with wall time recorded beside it: on a shared host, time spent waiting
while another tenant runs would otherwise dominate the spread between runs.
The host's speed drifts too, so a reference computation is timed between
phases and every 25 decode calls, and each CPU time is also reported scaled
to nominal host speed (``hostspeed.py``) by the references on either side
of it.

Only public entry points of ``mdcrt`` are driven.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402

DECODE_BLOCK = 25  # decode calls between two reference times


def _import_mdcrt(root: str):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import mdcrt

    if os.path.dirname(os.path.realpath(mdcrt.__file__)) != os.path.join(src, "mdcrt"):
        raise SystemExit(f"imported mdcrt from {mdcrt.__file__}, not from {src}")


def _probes():
    """Functions the traced round wraps, grouped by module.

    Which end-to-end metric each layer should move, on which workload:
    - region geometry (enumerate_fpd, centroid, nearest_region_point,
      in_fpd_union, robustly_determinable_region): setup_s, simulate_s and
      peak_rss_mb on fig2-nondiag; no change on either fig3 workload;
    - CRT fold (crt_solve, lcrm/snf calls per trial, solve_diophantine,
      Congruence): sweep_trials_per_s and decode_ms_p50, most on
      fig3-multistage, then fig2-nondiag; on fig3-single the consistent
      ratio must not change and decode latency must not get worse;
    - CVP (closest_vector): decode_ms_p50/p99 on both fig3 workloads;
    - allocation (IntMatrix constructions per trial, reduce_mod):
      sweep_trials_per_s on all three;
    - error ball (ErrorBallSampler self time and points): sweep_trials_per_s
      and peak_rss_mb on fig2-nondiag; negligible on fig3, where tau <= 10;
    - instance build (build_instance, build_plan, gcld, shortest_vector,
      lcrm_many): all of setup_s on the fig3 workloads.
    """
    from tracer import Probe

    spec = {
        "exact_linalg": ["hnf", "snf", "solve_diophantine"],
        "crt_core": ["gcld", "lcrm", "lcrm_many", "crt_solve"],
        "lattice": [
            "reduce_mod", "closest_vector", "shortest_vector", "enumerate_fpd",
            "nearest_region_point", "in_fpd_union", "region_contains", "FpdUnionRegion.centroid",
        ],
        "robust": ["build_instance", "robust_reconstruct", "robustly_determinable_region"],
        "multistage": ["build_plan", "multistage_reconstruct", "final_region"],
        "simkit": ["resolve_f", "run_sweep", "ErrorBallSampler.sample"],
    }
    enumerated = {"enumerate_fpd": lambda args, result: len(result)}
    return [
        Probe(f"mdcrt.{mod}", attr, f"{mod}.{attr}", points=enumerated.get(attr))
        for mod, attrs in spec.items()
        for attr in attrs
    ] + [
        # points held in the sampler's table; 0 for a sampler that keeps none
        Probe(
            "mdcrt.simkit", "ErrorBallSampler.__init__", "simkit.ErrorBallSampler",
            points=lambda args, result: len(getattr(args[0], "points", ())),
        ),
        Probe("mdcrt.exact_linalg", "IntMatrix.__post_init__", "exact_linalg.IntMatrix.constructed", span=False),
        Probe("mdcrt.crt_core", "Congruence.__post_init__", "crt_core.Congruence.constructed", span=False),
    ]


PER_TRIAL = {
    "crt_core.lcrm.calls_per_trial": "crt_core.lcrm.calls",
    "exact_linalg.snf.calls_per_trial": "exact_linalg.snf.calls",
    "lattice.closest_vector.calls_per_trial": "lattice.closest_vector.calls",
    "exact_linalg.IntMatrix.constructed_per_trial": "exact_linalg.IntMatrix.constructed.calls",
}


def phase_reference() -> float:
    """Median of five reference times: a phase is scaled by only the two
    references on either side of it, so each must be steadier than the
    single ones that bracket a block of decode calls."""
    return statistics.median(hostspeed.reference_time() for _ in range(5))


class Phases:
    """CPU and wall time of consecutive phases, and CPU time scaled to
    nominal host speed by reference times taken between phases."""

    def __init__(self, first_ref: float):
        self.ref = first_ref
        self.cpu: dict[str, float] = {}
        self.wall: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    def add(self, name: str, cpu_s: float, wall_s: float) -> None:
        after = phase_reference()
        self.cpu[name] = self.cpu.get(name, 0.0) + cpu_s
        self.wall[name] = self.wall.get(name, 0.0) + wall_s
        self.scaled[name] = self.scaled.get(name, 0.0) + cpu_s * hostspeed.scale(self.ref, after)
        self.ref = after

    def totals(self) -> dict:
        """Per round: scaled setup, sweep and simulate (setup + sweep +
        formatting) seconds, and the same in raw CPU and wall time."""

        def pick(d: dict) -> dict:
            return {"setup_s": d["setup"], "sweep_s": d["sweep"], "simulate_s": sum(d.values())}

        return {**pick(self.scaled), "cpu": pick(self.cpu), "wall": pick(self.wall)}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def _decoder(recon: str, moduli, grouping):
    """(exact guarantee tau^2 or None, callable decoding one set of noisy
    remainders) for a reconstructor. The bound is the instance's
    ``tau_bound_sq``, or the least finite per-group bound of a plan."""
    from mdcrt import multistage, robust

    if recon == "single":
        inst = robust.build_instance(moduli)
        return inst.tau_bound_sq, lambda noisy: robust.robust_reconstruct(inst, noisy, designated_lcrm=inst.lcrm)
    plan = multistage.build_plan(moduli, grouping)
    finite = [b.tau_max_sq for b in plan.per_group_bounds if b.tau_max_sq is not None]
    return (min(finite) if finite else None), lambda noisy: multistage.multistage_reconstruct(plan, noisy)


def run_round(args) -> dict:
    _import_mdcrt(args.root)
    # Entry points are called through their modules, so that traced runs
    # reach the wrappers the tracer binds there.
    from mdcrt import config, lattice, simkit
    from mdcrt.errors import Inconsistent
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer(_probes()).install()

    # -- setup ---------------------------------------------------------------
    # Phases are timed in CPU time; a reference time is taken between them
    # (outside the timed intervals) so each can be scaled to nominal host
    # speed, see hostspeed.py. Setup and sweep are split per reconstructor,
    # so that no interval goes long without a reference.
    hostspeed.reference_time()  # warm-up, untimed
    ref = phase_reference()
    t0, w0 = time.process_time(), time.perf_counter()
    cfg = config.load_config(os.path.join(args.root, wl.config))
    sweeps = [
        simkit.SweepConfig(
            moduli=cfg.moduli, reconstructor=r, grouping=cfg.grouping, taus=cfg.taus,
            trials=args.trials, seed=args.seed, f_mode=cfg.f_mode, f_value=cfg.f_value,
        )
        for r in wl.reconstructors
    ]
    phases = Phases(ref)
    phases.add("setup", time.process_time() - t0, time.perf_counter() - w0)
    f_true = []
    for s in sweeps:
        t0, w0 = time.process_time(), time.perf_counter()
        f_true.append(simkit.resolve_f(s))
        phases.add("setup", time.process_time() - t0, time.perf_counter() - w0)

    # -- sweep, one reconstructor at a time ---------------------------------------
    before = dict(tracer.counts) if tracer else {}
    summaries = []
    for s in sweeps:
        t0, w0 = time.process_time(), time.perf_counter()
        summaries.append(simkit.run_sweep(s, jobs=1, keep_raw=True))
        phases.add("sweep", time.process_time() - t0, time.perf_counter() - w0)
    after = dict(tracer.counts) if tracer else {}
    t0, w0 = time.process_time(), time.perf_counter()
    summary_lines: list[str] = []
    raw_lines: list[str] = []
    for summ in summaries:
        block, rblock = simkit.summary_csv_lines(summ), simkit.raw_csv_lines(summ)
        summary_lines.extend(block if not summary_lines else block[1:])
        raw_lines.extend(rblock if not raw_lines else rblock[1:])
    phases.add("format", time.process_time() - t0, time.perf_counter() - w0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- guarantee monitor and outcome counts ------------------------------------
    machinery = [_decoder(r, cfg.moduli, cfg.grouping) for r in wl.reconstructors]
    sweep_trials = 0
    outcomes = {"success": 0, "inconsistent": 0, "outside_tau": 0}
    violations = 0
    for (bound, _), summ in zip(machinery, summaries):
        for row, records in zip(summ.rows, summ.raw):
            for rec in records:
                sweep_trials += 1
                if rec.exact_success:
                    outcomes["success"] += 1
                else:
                    outcomes["inconsistent" if rec.estimate is None else "outside_tau"] += 1
                    if bound is not None and row.tau * row.tau <= bound:
                        violations += 1

    # -- decode stream -------------------------------------------------------------
    dim = cfg.moduli[0].dim
    balls = [simkit.ErrorBallSampler(tau, dim=dim) for tau in cfg.taus]
    pairs = [(r, ti) for r in range(len(sweeps)) for ti in range(len(cfg.taus))]
    rems = [tuple(lattice.reduce_mod(f, m)[1] for m in cfg.moduli) for f in f_true]
    wall_ns: list[int] = []
    cpu_ns: list[int] = []
    decode = {"calls": 0, "failed": 0, "mismatch": 0, "violations": 0, "inconsistent": 0, "errors": []}
    refs = [hostspeed.reference_time()]
    for k in range(args.decode_calls):
        r, ti = pairs[k % len(pairs)]
        t = k // len(pairs)
        bound, call = machinery[r]
        rng = simkit.trial_rng(args.seed, ti, t)
        errors = [balls[ti].sample(rng) for _ in cfg.moduli]
        noisy = [tuple(a + b for a, b in zip(rem, e)) for rem, e in zip(rems[r], errors)]
        estimate, failed = None, False
        start, cpu_start = time.perf_counter_ns(), time.thread_time_ns()
        try:
            estimate = call(noisy).estimate
        except Inconsistent:
            decode["inconsistent"] += 1
        except Exception as exc:  # any other exception is a failed operation
            failed = True
            if len(decode["errors"]) < 5:
                decode["errors"].append(f"{type(exc).__name__}: {exc}")
        cpu_ns.append(time.thread_time_ns() - cpu_start)
        wall_ns.append(time.perf_counter_ns() - start)
        decode["calls"] += 1
        tau = cfg.taus[ti]
        success = (
            estimate is not None
            and sum((Fraction(e) - x) ** 2 for e, x in zip(estimate, f_true[r])) <= tau * tau
        )
        if not failed and bound is not None and tau * tau <= bound and not success:
            decode["violations"] += 1
            failed = True
        if not failed and t < args.trials and summaries[r].raw[ti][t].estimate != estimate:
            decode["mismatch"] += 1
            failed = True
        decode["failed"] += failed
        if decode["calls"] % DECODE_BLOCK == 0 or decode["calls"] == args.decode_calls:
            refs.append(hostspeed.reference_time())
    # Each block of calls is scaled by the references on either side of it,
    # which also corrects the dips in host speed that last a block or more.
    scaled_ns = [
        ns * hostspeed.scale(refs[i // DECODE_BLOCK], refs[i // DECODE_BLOCK + 1]) for i, ns in enumerate(cpu_ns)
    ]

    out = {
        **phases.totals(),
        "sweep_trials": sweep_trials,
        "rss_mb": rss_mb,
        "summary_sha256": _digest(summary_lines),
        "raw_sha256": _digest(raw_lines),
        "outcomes": outcomes,
        "guarantee_violations": violations,
        "decode": decode,
        "decode_ns": wall_ns,
        "decode_cpu_ns": cpu_ns,
        "decode_scaled_ns": scaled_ns,
        "pairs": len(pairs),
    }
    if tracer is not None:
        tracer.uninstall()
        out["per_layer"] = _layer_metrics(tracer, before, after, sweep_trials)
        out["missing_probes"] = tracer.missing
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        tracer.write(args.trace_out)
    return out


def _layer_metrics(tracer, before: dict, after: dict, sweep_trials: int) -> dict:
    counts = tracer.counts
    self_s = tracer.self_seconds()
    metrics = {}
    for probe in tracer.probes:
        metrics[probe.name + ".calls"] = counts[probe.name + ".calls"]
        if probe.span:
            metrics[probe.name + ".self_s"] = self_s.get(probe.name, 0.0)
    solves = counts["crt_core.crt_solve.calls"]
    nearest = counts["lattice.nearest_region_point.calls"]
    metrics["crt_core.crt_solve.consistent_ratio"] = tracer.ok_count("crt_core.crt_solve") / solves if solves else 0.0
    metrics["lattice.enumerate_fpd.points"] = counts["lattice.enumerate_fpd.points"]
    metrics["lattice.nearest_region_point.candidates_per_call"] = (
        counts["lattice.in_fpd_union.calls"] / nearest if nearest else 0.0
    )
    metrics["simkit.ErrorBallSampler.points"] = counts["simkit.ErrorBallSampler.points"]
    for name, key in PER_TRIAL.items():
        metrics[name] = (after.get(key, 0) - before.get(key, 0)) / sweep_trials
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout root holding src/ and configs/")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--decode-calls", type=int, default=0)
    p.add_argument("--trace-out", default=None, help="trace this round and write its spans here")
    args = p.parse_args(argv)
    print(json.dumps(run_round(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
