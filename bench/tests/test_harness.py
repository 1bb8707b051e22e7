"""Tests of the benchmark harness: percentile rule, self-time arithmetic,
rebinding of traced functions, rejection of bad arguments, and scaling of
measured times to nominal host speed."""

from __future__ import annotations

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import run as bench_run  # noqa: E402
import worker as bench_worker  # noqa: E402
from tracer import Probe, Tracer, self_times  # noqa: E402

import mdcrt  # noqa: E402
from mdcrt import crt_core, lattice, robust, simkit  # noqa: E402
from mdcrt.errors import Inconsistent  # noqa: E402
from mdcrt.exact_linalg import IntMatrix  # noqa: E402


class TickClock:
    """Advances by one on every read, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# ---------------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert bench_run.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert bench_run.percentile(values, 50) == 500
    assert bench_run.percentile(values, 99) == 990
    assert bench_run.percentile(values, 99.9) == 999
    assert bench_run.percentile([7.0], 99) == 7.0


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [6.0, 2.0, 1.0, 1.0]


def _direct_children(tracer):
    kids = [0] * len(tracer.span_parent)
    for p in tracer.span_parent:
        if p >= 0:
            kids[p] += 1
    return kids


def test_self_time_of_nested_real_spans():
    probes = [Probe("mdcrt.crt_core", fn, fn) for fn in ("crt_solve", "lcrm")]
    probes += [Probe("mdcrt.exact_linalg", fn, fn) for fn in ("hnf", "snf", "solve_diophantine")]
    probes.append(Probe("mdcrt.lattice", "reduce_mod", "reduce_mod"))
    m1, m2 = IntMatrix.diag(3, 4), IntMatrix.diag(5, 7)
    congruences = [crt_core.congruence_of((2, 3), m1), crt_core.congruence_of((1, 6), m2)]
    with Tracer(probes, clock=TickClock()) as tracer:
        crt_core.crt_solve(congruences)
    assert tracer.counts["crt_solve.calls"] == 1 and tracer.counts["lcrm.calls"] == 1
    # With a clock that ticks once per read, a span lasts 2 * descendants + 1
    # ticks, so its self time is 1 + its number of direct children.
    own = self_times(tracer.span_start, tracer.span_end, tracer.span_parent)
    assert own == [1.0 + k for k in _direct_children(tracer)]
    roots = [i for i, p in enumerate(tracer.span_parent) if p < 0]
    assert roots == [0] and set(tracer.span_root) == {0}
    total = tracer.self_seconds()
    assert sum(total.values()) == tracer.span_end[0] - tracer.span_start[0]


def test_exceptions_pass_through_and_close_spans():
    inst = robust.build_instance([IntMatrix.diag(6, 6), IntMatrix.diag(10, 10), IntMatrix.diag(15, 15)])
    probes = [
        Probe("mdcrt.robust", "robust_reconstruct", "robust_reconstruct"),
        Probe("mdcrt.crt_core", "crt_solve", "crt_solve"),
        Probe("mdcrt.exact_linalg", "solve_diophantine", "solve_diophantine"),
    ]
    with Tracer(probes, clock=TickClock()) as tracer:
        with pytest.raises(Inconsistent):
            robust.robust_reconstruct(inst, [(0, 0), (0, 0), (0, 2)])
    assert tracer._stack == []
    names = [tracer.names[n] for n in tracer.span_name]
    assert names[0] == "robust_reconstruct" and "crt_solve" in names
    failed = {names[i] for i, ok in enumerate(tracer.span_ok) if not ok}
    assert failed == {"robust_reconstruct", "crt_solve"}
    assert tracer.ok_count("solve_diophantine") == tracer.counts["solve_diophantine.calls"]
    own = self_times(tracer.span_start, tracer.span_end, tracer.span_parent)
    assert own == [1.0 + k for k in _direct_children(tracer)]


# ---------------------------------------------------------------------------
# rebinding


def test_install_rebinds_every_reference_and_uninstall_restores():
    original = lattice.reduce_mod
    holders = [mdcrt, lattice, crt_core, robust, simkit]
    assert all(h.reduce_mod is original for h in holders)
    sample = vars(simkit.ErrorBallSampler)["sample"]
    tracer = Tracer([
        Probe("mdcrt.lattice", "reduce_mod", "lattice.reduce_mod"),
        Probe("mdcrt.simkit", "ErrorBallSampler.sample", "simkit.ErrorBallSampler.sample"),
        Probe("mdcrt.lattice", "no_such_function", "lattice.no_such_function"),
    ])
    with tracer:
        wrapper = lattice.reduce_mod
        assert wrapper is not original
        assert all(h.reduce_mod is wrapper for h in holders)
        assert vars(simkit.ErrorBallSampler)["sample"] is not sample
        # congruence_of reduces once, and Congruence validates with a second reduction
        crt_core.congruence_of((5, 7), IntMatrix.diag(3, 4))
        simkit.ErrorBallSampler(2).sample(simkit.trial_rng(1, 0, 0))
    assert tracer.counts["lattice.reduce_mod.calls"] == 2
    assert tracer.counts["simkit.ErrorBallSampler.sample.calls"] == 1
    assert tracer.missing == ["lattice.no_such_function"]
    assert tracer.counts["lattice.no_such_function.calls"] == 0
    assert all(h.reduce_mod is original for h in holders)
    assert vars(simkit.ErrorBallSampler)["sample"] is sample


# ---------------------------------------------------------------------------
# argument validation


@pytest.mark.parametrize(
    "argv",
    [
        ["--workload", "no-such-workload"],
        ["--workload", "fig3-single", "--trials", "0"],
        ["--workload", "fig3-single", "--seconds", "0"],
        ["--workload", "fig3-single", "--trace", "2"],
    ],
)
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        bench_run.parse_args(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# scaling to nominal host speed


def test_reference_work_is_fixed():
    assert hostspeed.reference_work() == hostspeed.CHECKSUM
    assert hostspeed.reference_time() > 0


def test_scale_uses_mean_of_bracketing_reference_times():
    # reference twice as slow as nominal: measured times halve
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scale(1.5 * nominal, 2.5 * nominal) == pytest.approx(0.5)
    assert hostspeed.scale(nominal, nominal) == pytest.approx(1.0)


def test_phases_scale_each_phase_by_its_own_references(monkeypatch):
    nominal = hostspeed.NOMINAL_S
    refs = iter([2 * nominal, 2 * nominal, nominal])  # after setup, sweep 1, sweep 2
    monkeypatch.setattr(bench_worker, "phase_reference", lambda: next(refs))
    phases = bench_worker.Phases(first_ref=2 * nominal)
    phases.add("setup", 4.0, 5.0)
    phases.add("sweep", 2.0, 2.5)
    phases.add("sweep", 3.0, 3.5)
    totals = phases.totals()
    assert totals["setup_s"] == pytest.approx(2.0)
    assert totals["sweep_s"] == pytest.approx(1.0 + 3.0 / 1.5)
    assert totals["simulate_s"] == pytest.approx(5.0)
    assert totals["cpu"] == {"setup_s": 4.0, "sweep_s": 5.0, "simulate_s": 9.0}
    assert totals["wall"] == {"setup_s": 5.0, "sweep_s": 6.0, "simulate_s": 11.0}
