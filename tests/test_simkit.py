import concurrent.futures
import gc
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from mdcrt import simkit
from mdcrt.config import load_config
from mdcrt.errors import ConfigInvalid, Inconsistent
from mdcrt.exact_linalg import IntMatrix, vec_add, vec_norm_sq, vec_sub
from mdcrt.lattice import reduce_mod
from mdcrt.multistage import build_plan, multistage_reconstruct
from mdcrt.simkit import (
    ErrorBallSampler,
    _score,
    SweepConfig,
    XorShift64Star,
    raw_csv_lines,
    resolve_f,
    run_sweep,
    stream_seed,
    summary_csv_lines,
    trial_rng,
)

from conftest import brute_ball

M = IntMatrix.from_rows
G1 = M([[22, -17], [17, 22]])
A1 = M([[16, 0], [1, 16]])
A2 = M([[16, 1], [0, 16]])


def small_config(**overrides):
    base = dict(
        moduli=(G1, G1 @ A1, G1 @ A2),
        reconstructor="single",
        grouping=None,
        taus=(Fraction(1), Fraction(3), Fraction(6)),
        trials=40,
        seed=1234,
        f_mode="centroid",
        f_value=None,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRng:
    def test_stream_seed_is_stable(self):
        assert stream_seed(1, 2, 3) == stream_seed(1, 2, 3)
        assert stream_seed(1, 2, 3) != stream_seed(1, 3, 2)

    def test_generator_sequence_repeats(self):
        a = XorShift64Star(42)
        b = XorShift64Star(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_randrange_in_range(self):
        gen = XorShift64Star(7)
        for _ in range(1000):
            assert 0 <= gen.randrange(13) < 13

    @pytest.mark.parametrize("n", [1, 13, 2**63, 2**64 - 1, 2**64], ids=["1", "13", "2^63", "2^64-1", "2^64"])
    def test_randrange_one_word_draw(self, n):
        # up to 2^64 an attempt is one next_u64, rejected in its top 2^64 mod n values
        limit = 2**64 - 2**64 % n
        for seed in range(50):
            a, b = XorShift64Star(seed), XorShift64Star(seed)
            v = b.next_u64()
            while v >= limit:
                v = b.next_u64()
            assert a.randrange(n) == v % n

    @pytest.mark.parametrize(
        "n", [1, 2, 2**64 - 1, 2**64, 2**64 + 1, 2**130 + 7], ids=["1", "2", "2^64-1", "2^64", "2^64+1", "2^130+7"]
    )
    def test_randrange_matches_general_formula(self, n):
        # the one-word path for n <= 2^64 draws exactly what the w-word
        # formula draws with w = max(1, ceil(bitlen(n - 1) / 64))
        def general(gen, n):
            words = max(1, -(-(n - 1).bit_length() // 64))
            span = 1 << (64 * words)
            limit = span - span % n
            while True:
                v = gen.next_u64()
                for _ in range(words - 1):
                    v = (v << 64) | gen.next_u64()
                if v < limit:
                    return v % n

        for seed in range(20):
            a, b = trial_rng(seed, 1, 2), trial_rng(seed, 1, 2)
            assert [a.randrange(n) for _ in range(30)] == [general(b, n) for _ in range(30)]

    @given(
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=-(2**70), max_value=2**70),
    )
    def test_stream_seed_folds_left_to_right(self, s, a, b):
        assert stream_seed(stream_seed(s, a), b) == stream_seed(s, a, b)

    @pytest.mark.parametrize("n", [2**64 + 1, 2**200], ids=["2^64+1", "2^200"])
    def test_randrange_beyond_one_word(self, n):
        a, b = XorShift64Star(7), XorShift64Star(7)
        draws = [a.randrange(n) for _ in range(200)]
        assert draws == [b.randrange(n) for _ in range(200)]
        assert all(0 <= v < n for v in draws)
        assert max(draws) > n // 2  # the draws span the range, not the low 64 bits

    def test_per_trial_sweep_with_factors_beyond_one_word(self):
        # the final quotient diag(1, p + 2) and anchor diag(1, p) have SNF
        # factors above 2^64, so each per-trial f draws multi-word ranges
        p = 2**65 + 131
        cfg = small_config(
            moduli=(M([[1, 0], [0, p]]), M([[1, 0], [0, p + 2]])),
            taus=(Fraction(0),),
            trials=3,
            f_mode="per-trial",
        )
        assert run_sweep(cfg).rows[0].success_rate == 1.0


class TestErrorBall:
    def test_tau_zero(self):
        s = ErrorBallSampler(0)
        assert [s.point(i) for i in range(s.count)] == [(0, 0)]
        gen = trial_rng(0, 0, 0)
        assert s.sample(gen) == (0, 0)

    def test_tau_one(self):
        s = ErrorBallSampler(1)
        assert {s.point(i) for i in range(s.count)} == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_tau_five_count(self):
        # independent count of integer pairs with x^2 + y^2 <= 25
        expected = sum(
            1
            for x in range(-5, 6)
            for y in range(-5, 6)
            if x * x + y * y <= 25
        )
        assert expected == 81
        assert ErrorBallSampler(5).count == 81

    def test_uniformity_four_sigma(self):
        s = ErrorBallSampler(1)
        gen = XorShift64Star(stream_seed(99, 0, 0))
        n = 100_000
        counts = {s.point(i): 0 for i in range(s.count)}
        for _ in range(n):
            counts[s.sample(gen)] += 1
        sigma = math.sqrt(n * 0.2 * 0.8)
        for c in counts.values():
            assert abs(c - n / 5) <= 4 * sigma


BALL_TAUS = tuple(Fraction(t) for t in ("0", "1/4", "1", "7/3", "5/2", "27/4", "10", "85/7"))


class TestBallDecode:
    """Index decode of the error ball against the filtered, sorted table."""

    @pytest.mark.parametrize(
        "dim, tau",
        [(d, t) for d in (1, 2, 3, 4) for t in BALL_TAUS if d < 4 or t <= 10],
        ids=str,
    )
    def test_points_in_index_order_equal_table(self, dim, tau):
        s = ErrorBallSampler(tau, dim=dim)
        assert [s.point(i) for i in range(s.count)] == brute_ball(tau, dim)

    def test_draws_equal_table_draws(self):
        tau = Fraction(27, 4)
        table = brute_ball(tau, 2)
        s = ErrorBallSampler(tau)
        a, b = trial_rng(5, 1, 2), trial_rng(5, 1, 2)
        assert [s.sample(a) for _ in range(500)] == [table[b.randrange(len(table))] for _ in range(500)]

    def test_index_out_of_range(self):
        s = ErrorBallSampler(2)
        for i in (-1, s.count):
            with pytest.raises(IndexError):
                s.point(i)

    def test_dim4_tau85_count_and_speed(self):
        n = 85 * 85
        # 4D count as a convolution of 2D disks: pairs with x^2 + y^2 == k
        # times pairs with x^2 + y^2 <= n - k
        exact = [0] * (n + 1)
        for x in range(-85, 86):
            for y in range(-85, 86):
                if x * x + y * y <= n:
                    exact[x * x + y * y] += 1
        disk = list(accumulate(exact))
        expected = sum(exact[k] * disk[n - k] for k in range(n + 1))
        assert expected == 257608409

        start = time.process_time()
        s = ErrorBallSampler(85, dim=4)
        gen = trial_rng(4, 0, 0)
        draws = [s.sample(gen) for _ in range(10_000)]
        elapsed = time.process_time() - start
        assert s.count == expected
        assert all(sum(x * x for x in p) <= n for p in draws)
        assert elapsed < 1.0


def fraction_score(estimate, f, tau):
    """The Fraction formula that trial scoring replaced."""
    err_sq = vec_norm_sq(vec_sub(estimate, f))
    return math.sqrt(err_sq), err_sq <= tau * tau


def over_one_den(estimate, scale=1):
    """The estimate as a ``RobustOutput`` holds it: integer numerators over
    ``scale`` times the lcm of its denominators, so unreduced for scale > 1."""
    den = math.lcm(*(x.denominator for x in estimate)) * scale
    return tuple(int(x * den) for x in estimate), den


class TestScore:
    """Trials are scored in integers from a ``RobustOutput``'s numerators
    over its denominator, reduced or not; the norm and the success flag
    match the Fraction formula bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_fraction_formula(self, data):
        dim = data.draw(st.integers(1, 4))
        big = data.draw(st.sampled_from((10, 10**6, 10**40)))
        f = tuple(data.draw(st.integers(-big, big)) for _ in range(dim))
        error = st.fractions(-big, big, max_denominator=data.draw(st.sampled_from((1, 7, 10**9))))
        estimate = tuple(Fraction(x) + data.draw(error) for x in f)
        numerators, den = over_one_den(estimate, data.draw(st.sampled_from((1, 2, 6, 35))))
        tau = data.draw(st.fractions(0, 2 * big, max_denominator=1000))
        assert _score(numerators, den, f, tau * tau) == fraction_score(estimate, f, tau)

    @pytest.mark.parametrize(
        "error, tau",
        [
            ((3, 4), 5),
            ((Fraction(3, 7), Fraction(4, 7)), Fraction(5, 7)),
            ((Fraction(-6, 35), Fraction(8, 35)), Fraction(2, 7)),
        ],
    )
    def test_boundary_is_a_success(self, error, tau):
        f = (10**9, -17)
        estimate = tuple(Fraction(x) + e for x, e in zip(f, error))
        assert vec_norm_sq(vec_sub(estimate, f)) == Fraction(tau) ** 2
        for scale in (1, 4):
            numerators, den = over_one_den(estimate, scale)
            norm, success = _score(numerators, den, f, Fraction(tau) ** 2)
            assert success and norm == float(tau)
            assert (norm, success) == fraction_score(estimate, f, Fraction(tau))
            below = Fraction(tau) ** 2 - Fraction(1, 10**12)
            assert _score(numerators, den, f, below)[1] is False

    @pytest.mark.parametrize("den", [1, 3, 12])
    def test_square_beyond_float_range(self, den):
        # ||error||^2 ~ 10^400 overflows a float, its root ~ 10^200 does not
        f = (5, -7)
        numerators = (den * 5 + 10**200, den * -7 - 3 * 10**199)
        norm, success = _score(numerators, den, f, Fraction(10**400))
        assert math.isclose(norm, math.sqrt(1.09) * 1e200 / den, rel_tol=1e-15)
        assert success is (den > 1)  # 1.09 * 10^400 / den^2 <= 10^400

    def test_norm_beyond_float_range(self):
        norm, success = _score((10**400, 1), 1, (0, 0), Fraction(1))
        assert norm == math.inf and success is False


class TestSweep:
    def test_reproducible_byte_for_byte(self):
        cfg = small_config()
        a = summary_csv_lines(run_sweep(cfg))
        b = summary_csv_lines(run_sweep(cfg))
        assert a == b

    def test_guarantee_consistency(self):
        # bound is sqrt(773)/4 ~ 6.95: every tau in the grid is inside it
        cfg = small_config()
        summary = run_sweep(cfg)
        for row in summary.rows:
            assert row.success_rate == 1.0
            assert row.mean_error <= float(row.tau) + 1e-12

    def test_per_trial_f_mode(self):
        cfg = small_config(f_mode="per-trial", trials=25)
        summary = run_sweep(cfg)
        assert all(row.success_rate == 1.0 for row in summary.rows)

    def test_explicit_f_validated(self):
        with pytest.raises(ConfigInvalid):
            resolve_f(small_config(f_mode="explicit", f_value=(10**9, 10**9)))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(reconstructor="double"), "unknown reconstructor 'double'"),
            (dict(reconstructor="multistage"), "multistage reconstructor requires a grouping"),
            (dict(f_mode="explicit"), "explicit f mode without a vector"),
            (dict(f_mode="origin"), "unknown f mode 'origin'"),
        ],
    )
    def test_machinery_rejects_config(self, overrides, message):
        with pytest.raises(ConfigInvalid, match=message):
            resolve_f(small_config(**overrides))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ConfigInvalid, match="trials"):
            small_config(trials=trials)

    def test_explicit_f_used(self):
        inside = (1, 1)  # small vectors sit in the anchor FPD piece
        cfg = small_config(f_mode="explicit", f_value=inside, trials=10)
        summary = run_sweep(cfg, keep_raw=True)
        for records in summary.raw:
            assert all(r.f_true == inside for r in records)

    def test_csv_schemas(self):
        cfg = small_config(trials=5)
        summary = run_sweep(cfg, keep_raw=True)
        lines = summary_csv_lines(summary)
        assert lines[0] == "tau,mean_error,success_rate,trials,reconstructor,seed"
        assert len(lines) == 1 + len(cfg.taus)
        assert lines[1].endswith(f",single,{cfg.seed}")
        raw = raw_csv_lines(summary)
        assert raw[0] == "tau,trial,err_norm,success"
        assert len(raw) == 1 + len(cfg.taus) * 5

    def test_multistage_label_and_grouping(self):
        cfg = small_config(
            reconstructor="multistage",
            grouping=(((0, 1, 2),),),
            trials=10,
        )
        summary = run_sweep(cfg)
        assert summary.reconstructor == "multistage"
        assert all(row.success_rate == 1.0 for row in summary.rows)

    def test_jobs_match_serial(self):
        cfg = small_config(trials=12)
        serial = summary_csv_lines(run_sweep(cfg))
        parallel = summary_csv_lines(run_sweep(cfg, jobs=3))
        assert serial == parallel

    def test_workers_capped_at_tau_count(self, monkeypatch):
        """Each tau is one task: a pool gets at most one worker per tau, and
        a one-tau sweep opens none. The stand-in pool records its size and
        maps serially, so no process is started."""
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = small_config(trials=4)
        serial = summary_csv_lines(run_sweep(cfg))
        assert summary_csv_lines(run_sweep(cfg, jobs=5000)) == serial
        assert opened == [3]
        run_sweep(small_config(taus=(Fraction(1),), trials=4), jobs=5000)
        assert opened == [3]

    @pytest.mark.parametrize(
        "path, reconstructor, taus",
        [("configs/fig2_nondiag.cfg", "multistage", (0, 3, 40)), ("configs/fig3.cfg", "single", (0, 1, 2))],
        ids=["fig2_nondiag-multistage", "fig3-single"],
    )
    def test_record_estimate_is_the_decoders(self, path, reconstructor, taus):
        # each record's estimate, built when read, equals the estimate of the
        # trial replayed from its stream (None where the decoder reported
        # Inconsistent, which fig3's single-stage bound 1/4 makes common)
        exp = load_config(path)
        cfg = small_config(
            moduli=exp.moduli, reconstructor=reconstructor, grouping=exp.grouping,
            taus=tuple(Fraction(t) for t in taus), trials=8,
        )
        plan = build_plan(cfg.moduli, cfg.grouping if reconstructor == "multistage" else ())
        summary = run_sweep(cfg, keep_raw=True)
        estimates = []
        for ti, (tau, records) in enumerate(zip(cfg.taus, summary.raw)):
            ball = ErrorBallSampler(tau, dim=2)
            for rec in records:
                rng = trial_rng(cfg.seed, ti, rec.trial_index)
                noisy = [vec_add(reduce_mod(rec.f_true, m)[1], ball.sample(rng)) for m in cfg.moduli]
                try:
                    want = multistage_reconstruct(plan, noisy).estimate
                except Inconsistent:
                    want = None
                assert rec.estimate == want
                estimates.append(rec.estimate)
        assert any(e is not None for e in estimates)
        if reconstructor == "single":
            assert None in estimates

    def test_rows_do_not_depend_on_keep_raw(self):
        cfg = small_config(trials=12)
        lean, full = run_sweep(cfg), run_sweep(cfg, keep_raw=True)
        assert lean.raw is None
        assert lean.rows == full.rows

    def test_jobs_match_serial_raw(self):
        # fig3's single-stage bound is 1/4: at tau >= 1 most trials end
        # Inconsistent, and their nan norms are compared as CSV text
        moduli = load_config("configs/fig3.cfg").moduli
        cfg = small_config(moduli=moduli, taus=(Fraction(0), Fraction(1), Fraction(2)), trials=6)
        serial = raw_csv_lines(run_sweep(cfg, keep_raw=True))
        assert any(",nan," in line for line in serial)
        assert raw_csv_lines(run_sweep(cfg, jobs=3, keep_raw=True)) == serial

    def test_memory_flat_in_trials(self):
        # Without keep_raw a sweep holds one trial at a time. The bound sits
        # between the two designs: holding every record to the end grows this
        # peak by ~0.9 MiB from 200 to 800 trials, streaming by ~0.1 MiB, all
        # of it cyclic garbage the collector has not reached yet.
        run_sweep(small_config(trials=1))  # warm the CRT plan cache
        peaks = []
        for trials in (200, 800):
            cfg = small_config(trials=trials)
            resolve_f(cfg)  # the machinery is built once per config, not measured
            gc.collect()
            tracemalloc.start()
            try:
                run_sweep(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 384 * 1024
