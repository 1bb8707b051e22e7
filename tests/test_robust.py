import random
from fractions import Fraction

import pytest

from mdcrt import crt_core, lattice, robust
from mdcrt.errors import DimensionMismatch, DuplicateModuli, Inconsistent, NotAnLcrm
from mdcrt.exact_linalg import IntMatrix, hnf, vec_add, vec_norm_sq, vec_sub
from mdcrt.crt_core import gcld
from mdcrt.lattice import FpdSampler, LatticeBasis, reduce_mod, shortest_vector
from mdcrt.multistage import build_plan, final_region, multistage_reconstruct
from mdcrt.robust import (
    build_instance,
    robust_reconstruct,
    robustly_determinable_region,
)
from mdcrt.simkit import trial_rng
from conftest import FIG3_GROUPING, FIG3_MODULI, enumerate_fpd, random_matrix

M = IntMatrix.from_rows
G1 = M([[22, -17], [17, 22]])
G2 = M([[22, 17], [-17, 22]])
A1 = M([[16, 0], [1, 16]])
A2 = M([[16, 1], [0, 16]])
C1 = M([[7, 0], [1, 7]])
C2 = M([[7, 1], [0, 7]])
C3 = M([[11, 1], [0, 11]])

COPRIME_SHAPES = [
    IntMatrix.identity(2),
    M([[2, 1], [0, 2]]),
    M([[3, 1], [0, 3]]),
    M([[5, 1], [0, 5]]),
]


def disk(tau):
    r = int(tau)
    return [
        (x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y <= tau * tau
    ]


def true_folds(f, moduli):
    return tuple(vec_sub(f, reduce_mod(f, m)[1]) for m in moduli)


def shared_factor_instance(rng):
    """Moduli common @ shape_i with pairwise co-prime shapes; the bound is
    lambda(common)/4."""
    while True:
        common = random_matrix(rng, 2, bound=9)
        if shortest_vector(LatticeBasis(common))[0] >= 32:
            return build_instance([common @ s for s in COPRIME_SHAPES]), common


class TestBuildInstance:
    @pytest.mark.parametrize("order", [1, -1], ids=["2d-first", "3d-first"])
    def test_mixed_dimension_is_a_mismatch(self, order):
        moduli = [IntMatrix.diag(3, 3), IntMatrix.diag(5, 5, 5)][::order]
        with pytest.raises(DimensionMismatch, match="mixed dimension"):
            build_instance(moduli)
        with pytest.raises(DimensionMismatch, match="mixed dimension"):
            build_plan(moduli, ())

    def test_pairwise_coprime_bound(self):
        inst = build_instance([G1, G2, M([[3, 1], [2, 2]])])
        assert inst.tau_bound_sq == Fraction(1, 16)

    def test_motivating_group(self):
        moduli = [G1, G1 @ A1, G1 @ A2]
        inst = build_instance(moduli)
        canon = hnf(G1)
        for i in range(3):
            for j in range(i + 1, 3):
                assert gcld(moduli[i], moduli[j]) == canon
        for j, lattice in inst.anchor_lattices.items():
            assert lattice.basis == gcld(moduli[inst.anchor], moduli[j]) == canon
        assert set(inst.anchor_lattices) == {0, 1, 2} - {inst.anchor}
        assert inst.tau_bound_sq == Fraction(773, 16)

    def test_two_stage_family_anchor(self):
        base = M([[1, 0], [32, 881]])
        mods = [base.scale(30), (base @ C1).scale(10), (base @ C2).scale(15), (base @ C3).scale(42)]
        inst = build_instance(mods)
        assert inst.anchor == 0
        lam_sq = shortest_vector(LatticeBasis(base))[0]
        assert inst.tau_bound_sq == Fraction(36 * lam_sq, 16)  # (3 lambda / 2)^2

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateModuli):
            build_instance([G1, G1])

    def test_forced_anchor(self):
        inst = build_instance([G1 @ A1, G1, G1 @ A2], anchor=1)
        assert inst.anchor == 1


class TestReconstruct:
    def test_noiseless(self, rng):
        inst = build_instance([G1, G1 @ A1, G1 @ A2])
        region = robustly_determinable_region(inst, inst.lcrm)
        gen = random.Random(5)
        for _ in range(20):
            f = region.sample(gen)
            rems = [reduce_mod(f, m)[1] for m in inst.moduli]
            out = robust_reconstruct(inst, rems, designated_lcrm=inst.lcrm)
            assert tuple(out.estimate) == tuple(Fraction(x) for x in f)
            assert out.folds == true_folds(f, inst.moduli)

    def test_guarantee_and_averaging_identity(self, rng):
        # shared-left-factor instances, errors below the bound: folds exact
        # and estimate - f equals the error average exactly
        gen = random.Random(99)
        trials = 0
        for _ in range(6):
            inst, common = shared_factor_instance(rng)
            region = robustly_determinable_region(inst, inst.lcrm)
            ball = disk(1)
            assert Fraction(1) < inst.tau_bound_sq  # tau = 1 is inside the bound
            for _ in range(40):
                trials += 1
                f = region.sample(gen)
                errs = [ball[gen.randrange(len(ball))] for _ in inst.moduli]
                noisy = [
                    vec_add(reduce_mod(f, m)[1], e) for m, e in zip(inst.moduli, errs)
                ]
                out = robust_reconstruct(inst, noisy, designated_lcrm=inst.lcrm)
                assert out.folds == true_folds(f, inst.moduli)
                l = len(inst.moduli)
                mean_err = tuple(
                    Fraction(sum(e[k] for e in errs), l) for k in range(2)
                )
                assert vec_sub(out.estimate, f) == mean_err
                assert vec_norm_sq(vec_sub(out.estimate, f)) <= 1
        assert trials == 240

    def test_snap_condition_failure_breaks_folds(self):
        # gcld lattice L(2I): a difference of (2,0) snaps to itself, not 0
        m1 = IntMatrix.diag(2, 2)
        m2 = M([[2, 2], [0, 2]])
        inst = build_instance([m1, m2])
        f = (0, 0)
        rems = [reduce_mod(f, m)[1] for m in inst.moduli]
        noisy = [rems[0], vec_add(rems[1], (2, 0))]
        out = robust_reconstruct(inst, noisy, designated_lcrm=inst.lcrm)
        assert out.folds != true_folds(f, inst.moduli)

    def test_snap_condition_success_recovers_folds(self, rng):
        # same instance, all error differences snap to zero: folds exact
        m1 = IntMatrix.diag(2, 2)
        m2 = M([[2, 2], [0, 2]])
        inst = build_instance([m1, m2])
        region = robustly_determinable_region(inst, inst.lcrm)
        gen = random.Random(17)
        for _ in range(40):
            f = region.sample(gen)
            # identical errors on both remainders keep the difference at zero
            shared = disk(1)[gen.randrange(5)]
            noisy = [vec_add(reduce_mod(f, m)[1], shared) for m in inst.moduli]
            out = robust_reconstruct(inst, noisy, designated_lcrm=inst.lcrm)
            assert out.folds == true_folds(f, inst.moduli)

    def test_anchor_invariant_under_signed_permutation(self, rng):
        perm = M([[0, -1], [1, 0]])
        for _ in range(10):
            inst, common = shared_factor_instance(rng)
            scaled = build_instance([perm @ m for m in inst.moduli])
            assert scaled.anchor == inst.anchor
            assert scaled.tau_bound_sq == inst.tau_bound_sq


class TestAveraging:
    """The integer averaging against the Fraction formula it replaced,
    ``sum(folds) / n + sum(remainders) / n``, from the returned folds."""

    @pytest.mark.parametrize("den", [1, 3], ids=["integer", "thirds"])
    def test_matches_fraction_formula(self, den):
        plan = build_plan(FIG3_MODULI, FIG3_GROUPING)
        gen = random.Random(den)
        checked = 0
        for grp in plan.stages[0]:
            inst = grp.instance
            n = inst.count
            for _ in range(40):
                f = tuple(gen.randint(-10**6, 10**6) for _ in range(2))
                rems = [
                    tuple(x + Fraction(gen.randint(-9, 9), den) for x in reduce_mod(f, m)[1])
                    if den > 1
                    else vec_add(reduce_mod(f, m)[1], (gen.randint(-3, 3), gen.randint(-3, 3)))
                    for m in inst.moduli
                ]
                try:
                    out = robust_reconstruct(inst, rems, designated_lcrm=grp.designated_lcrm)
                except Inconsistent:
                    continue
                checked += 1
                expected = tuple(
                    Fraction(sum(fold[k] for fold in out.folds)) / n
                    + Fraction(sum(r[k] for r in rems)) / n
                    for k in range(2)
                )
                assert out.estimate == expected
                assert all(type(x) is Fraction for x in out.estimate)
        assert checked >= 60

    def test_wrong_length_remainder(self):
        inst = build_instance([G1, G1 @ A1, G1 @ A2])
        with pytest.raises(DimensionMismatch, match="length 2"):
            robust_reconstruct(inst, [(1, 2), (1,), (1, 2)])


class TestReductionCount:
    """One decode of an n-member group reduces exactly n times: once per
    non-anchor congruence and once in the CRT solve, straight into the
    designated lcrm. Every module that holds ``reduce_mod`` on that path
    is counted. Each count follows a first decode, which compiles and
    caches the group's ``CrtPlan``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []

        def counted(f, m):
            counter.append(m)
            return reduce_mod(f, m)

        for holder in (crt_core, robust, lattice):
            monkeypatch.setattr(holder, "reduce_mod", counted)
        return counter

    def decode_group(self, grp, gen, calls):
        inst = grp.instance
        f = tuple(gen.randint(-10**6, 10**6) for _ in range(2))
        noisy = [
            vec_add(reduce_mod(f, m)[1], (gen.randint(-2, 2), gen.randint(-2, 2))) for m in inst.moduli
        ]
        calls.clear()
        robust_reconstruct(inst, noisy, designated_lcrm=grp.designated_lcrm)  # consistent: errors are small
        return len(calls)

    def test_fig3_groups(self, calls):
        plan = build_plan(FIG3_MODULI, FIG3_GROUPING)
        groups = [*plan.stages[0], plan.final]
        assert [grp.instance.count for grp in groups] == [3, 3, 2]
        assert plan.final.designated_lcrm == plan.final.instance.lcrm
        gen = random.Random(11)
        for grp in groups:
            self.decode_group(grp, gen, calls)
            for _ in range(20):
                assert self.decode_group(grp, gen, calls) == grp.instance.count

    def test_fig3_trial(self, calls):
        plan = build_plan(FIG3_MODULI, FIG3_GROUPING)
        f = final_region(plan).sample(trial_rng(3, 0, 0))
        noisy = [reduce_mod(f, m)[1] for m in FIG3_MODULI]
        multistage_reconstruct(plan, noisy)
        calls.clear()
        out = multistage_reconstruct(plan, noisy)
        assert out.estimate == tuple(Fraction(x) for x in f)
        assert len(calls) == 3 + 3 + 2


class TestRegion:
    def test_shifted_fpd_example(self):
        inst = build_instance([M([[3, 1], [2, 2]]), M([[2, 2], [1, 3]])])
        assert inst.anchor == 0
        region = robustly_determinable_region(inst, IntMatrix.diag(4, 4))
        assert set(enumerate_fpd(region.quotient)) == {(0, 0), (1, 0), (0, 1), (1, -1)}
        assert region.contains((2, 0))
        assert not region.contains((1, 0))

    def test_group_region_is_single_fpd(self):
        inst = build_instance([G1, G1 @ A1, G1 @ A2])
        designated = G1 @ IntMatrix.diag(256, 256)
        region = robustly_determinable_region(inst, designated)
        gen = random.Random(23)
        sampler = FpdSampler(designated)
        # region membership coincides with plain reduction membership mod the
        # designated lcrm on sampled points and their neighbors
        for _ in range(40):
            inside = sampler.sample(gen)
            assert region.contains(inside)
            shifted = vec_add(inside, designated.apply((1, 0)))
            assert not region.contains(shifted)

    def test_not_an_lcrm(self):
        inst = build_instance([M([[3, 1], [2, 2]]), M([[2, 2], [1, 3]])])
        with pytest.raises(NotAnLcrm):
            robustly_determinable_region(inst, IntMatrix.diag(8, 8))
        with pytest.raises(NotAnLcrm):
            robustly_determinable_region(inst, IntMatrix.diag(4, 8))


class TestGuaranteeBoundary:
    """The guarantee is tau^2 < tau_bound_sq, strictly. On fig3's two
    final-stage moduli the gcld lattice's shortest vector is (-64, 0) and
    the bound is 256: errors +-(16, 0) on one remainder and -+(16, 0) on the
    other differ by half a shortest vector, a CVP tie that no decoder can
    break for both signs."""

    MODULI = (M([[5632, -4352], [4352, 5632]]), M([[12672, 9792], [-9792, 12672]]))

    def outcomes(self, axis_errors):
        """Per region-sampled f (300 of them), whether each error pair
        ``(a, 0), (-a, 0)`` for a in ``axis_errors`` decodes within
        sqrt(256) of f through the single-stage plan."""
        plan = build_plan(self.MODULI, ())
        assert plan.final.instance.tau_bound_sq == 256
        region = final_region(plan)
        results = []
        for t in range(300):
            f = region.sample(trial_rng(7, 0, t))
            rems = [reduce_mod(f, m)[1] for m in self.MODULI]
            row = []
            for a in axis_errors:
                noisy = [vec_add(rems[0], (a, 0)), vec_add(rems[1], (-a, 0))]
                try:
                    est = multistage_reconstruct(plan, noisy).estimate
                except Inconsistent:
                    row.append(False)
                else:
                    row.append(vec_norm_sq(vec_sub(est, f)) <= 256)
            results.append(row)
        return results

    def test_errors_at_the_bound_can_fail(self):
        results = self.outcomes((16, -16))
        assert sum(row.count(False) for row in results) == 300
        # the tie goes the wrong way for exactly one of the two signs
        assert all(row.count(False) == 1 for row in results)

    def test_errors_below_the_bound_succeed(self):
        results = self.outcomes(range(-15, 16))
        assert all(all(row) for row in results)
