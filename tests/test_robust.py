import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mdcrt import crt_core, lattice, multistage, robust
from mdcrt.config import load_config
from mdcrt.errors import (
    DimensionMismatch,
    DimensionUnsupported,
    DuplicateModuli,
    Inconsistent,
    NotAnLcrm,
    SingularMatrix,
)
from mdcrt.exact_linalg import IntMatrix, hnf, vec_add, vec_norm_sq, vec_sub
from mdcrt.crt_core import gcld
from mdcrt.lattice import FpdSampler, LatticeBasis, reduce_mod, shortest_vector
from mdcrt.multistage import build_plan, final_region, multistage_reconstruct
from mdcrt.robust import (
    RobustOutput,
    build_instance,
    robust_reconstruct,
    robustly_determinable_region,
)
from mdcrt.simkit import trial_rng
from conftest import (
    FIG2_NONDIAG_GROUPING,
    FIG2_NONDIAG_MODULI,
    FIG3_GROUPING,
    FIG3_MODULI,
    brute_ball,
    enumerate_fpd,
    error_tuples,
    random_matrix,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


class TestLatticeTable:
    """``build_instance`` builds each pair's gcld lattice once, when first
    read: a free anchor reads all k(k-1)/2 pairs, a pinned one its k - 1."""

    @pytest.fixture
    def built(self, monkeypatch):
        pairs = []

        def counted(a, b):
            pairs.append((a, b))
            return gcld(a, b)

        monkeypatch.setattr(robust, "gcld", counted)
        return pairs

    @pytest.mark.parametrize("anchor", range(6))
    def test_pinned_anchor_builds_its_lattices_only(self, built, anchor):
        inst = build_instance(FIG3_MODULI, anchor=anchor)
        others = [m for j, m in enumerate(FIG3_MODULI) if j != anchor]
        assert len(built) == 5
        assert set(map(frozenset, built)) == {frozenset([FIG3_MODULI[anchor], m]) for m in others}
        assert [lat.basis for lat in inst.anchor_lattices.values()] == [
            gcld(FIG3_MODULI[anchor], m) for m in others
        ]

    def test_free_anchor_builds_each_pair_once(self, built):
        build_instance(FIG3_MODULI)
        assert len(built) == len(set(map(frozenset, built))) == 15

    def test_anchor_out_of_range_builds_nothing(self, built):
        with pytest.raises(ValueError, match="anchor index 6 out of range"):
            build_instance(FIG3_MODULI, anchor=6)
        assert built == []

    @pytest.mark.parametrize(
        "moduli, grouping, count",
        [
            (FIG3_MODULI, (), 15),
            (FIG3_MODULI, FIG3_GROUPING, 2 + 2 + 1),
            (FIG2_NONDIAG_MODULI, (), 6),
            (FIG2_NONDIAG_MODULI, FIG2_NONDIAG_GROUPING, 2 + 0 + 1),
        ],
        ids=["fig3-single", "fig3-two-stage", "fig2_nondiag-single", "fig2_nondiag-two-stage"],
    )
    def test_lattices_per_plan(self, built, moduli, grouping, count):
        # each declared group pins its first member: k - 1 lattices; the
        # final group picks its anchor: k(k-1)/2
        build_plan(moduli, grouping)
        assert len(built) == count

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_pinning_the_free_choice_changes_nothing(self, path):
        cfg = load_config(str(path))
        plans = [build_plan(cfg.moduli, ())]
        if cfg.grouping is not None:
            plans.append(build_plan(cfg.moduli, cfg.grouping))
        for plan in plans:
            for grp in itertools.chain(*plan.stages):
                free = build_instance(grp.instance.moduli)
                pinned = build_instance(grp.instance.moduli, anchor=free.anchor)
                assert pinned.tau_bound_sq == free.tau_bound_sq
                assert {j: lat.basis for j, lat in pinned.anchor_lattices.items()} == {
                    j: lat.basis for j, lat in free.anchor_lattices.items()
                }


class TestOneModulus:
    """One modulus M is the degenerate robust instance: no gcld pairs, so
    the bound is the minimum over an empty set (+infinity, ``None``), the
    lcrm is hnf(M) and the estimate is the remainder itself."""

    MODULI = {
        1: M([[6]]),
        2: M([[3, 1], [2, 2]]),
        3: M([[2, 1, 0], [0, 3, 1], [1, 0, 4]]),
    }

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_instance(self, dim):
        m = self.MODULI[dim]
        inst = build_instance([m])
        assert inst.anchor == 0 and inst.tau_bound_sq is None
        assert inst.lcrm == hnf(m) and inst.anchor_lattices == {}

    @pytest.mark.parametrize("den", [1, 3], ids=["integer", "thirds"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_estimate_is_the_remainder(self, dim, den):
        m = self.MODULI[dim]
        inst = build_instance([m])
        gen = random.Random(10 * dim + den)
        for _ in range(20):
            r = tuple(gen.randint(-50, 50) for _ in range(dim))
            if den > 1:
                r = tuple(Fraction(x, den) for x in r)
            out = robust_reconstruct(inst, [r], designated_lcrm=m)
            assert out.estimate == tuple(Fraction(x) for x in r)
            assert all(type(x) is Fraction for x in out.estimate)
            assert out.folds == ((0,) * dim,)

    def test_solves_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a one-modulus instance reached the CRT solver")

        monkeypatch.setattr(robust, "crt_solve", forbidden)
        monkeypatch.setattr(robust, "reduce_mod", forbidden)
        m = self.MODULI[2]
        out = robust_reconstruct(build_instance([m]), [(7, -3)], designated_lcrm=m)
        assert out.estimate == (7, -3) and out.folds == ((0, 0),)

    @pytest.mark.parametrize("den", [1, 6], ids=["integer", "sixths"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_output_is_the_solves(self, dim, den):
        # what the five steps give a one-modulus instance: a CRT solve of
        # (M, 0) into the lcrm basis, and the averaging formula with n = 1
        m = self.MODULI[dim]
        inst = build_instance([m])
        gen = random.Random(100 * dim + den)
        zero = (0,) * dim
        for designated in (None, m, m @ IntMatrix.diag(*[-1] * dim)):
            r = tuple(gen.randint(-50, 50) for _ in range(dim))
            if den > 1:
                r = tuple(Fraction(x, den) for x in r)
            fold = crt_core.crt_solve([(m, zero)], into=designated)
            out = robust_reconstruct(inst, [r], designated, den)
            assert out.numerators == tuple(den * (a - v) + x for a, v, x in zip(fold, zero, r))
            assert list(map(type, out.numerators)) == list(map(type, r))
            assert (out.den, out.anchor_fold, out.snapped) == (den, fold, (zero,))

    def test_designated_lcrm_checked(self):
        inst = build_instance([self.MODULI[2]])
        with pytest.raises(SingularMatrix):
            robust_reconstruct(inst, [(1, 2)], designated_lcrm=M([[2, 4], [1, 2]]))
        with pytest.raises(DimensionMismatch):
            robust_reconstruct(inst, [(1, 2)], designated_lcrm=self.MODULI[3])

    def test_rejected_moduli(self):
        with pytest.raises(ValueError, match="at least one modulus"):
            build_instance([])
        with pytest.raises(SingularMatrix):
            build_instance([M([[2, 4], [1, 2]])])
        with pytest.raises(DimensionUnsupported):
            build_instance([IntMatrix.diag(2, 2, 2, 2, 2)])


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

    def test_integral_fraction_remainders_decode_like_ints(self, rng):
        # stage estimates arrive as Fractions, often integral: they are
        # scaled to ints (T = 1), alone or mixed with int remainders, and
        # decode exactly as the int remainders do
        gen = random.Random(23)
        ball = disk(1)
        for _ in range(6):
            inst, _ = shared_factor_instance(rng)
            region = robustly_determinable_region(inst, inst.lcrm)
            for _ in range(10):
                f = region.sample(gen)
                noisy = [
                    vec_add(reduce_mod(f, m)[1], ball[gen.randrange(len(ball))]) for m in inst.moduli
                ]
                want = robust_reconstruct(inst, noisy)
                fractions = [tuple(Fraction(x) for x in r) for r in noisy]
                for rems in (fractions, fractions[:1] + noisy[1:]):
                    got = robust_reconstruct(inst, rems)
                    assert got == want
                    assert all(type(x) is int for fold in got.folds for x in fold)

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

    def test_3d_moduli_with_skewed_gcld_bases(self):
        # 6B, 10B, 15B: every gcld is a multiple of B, a Hermite form whose
        # last column is as long as p; errors just below the bound (their
        # differences stay inside half the shortest gcld vector) are corrected
        b = M([[1, 0, 0], [0, 1, 0], [909925047, 861425548, 1000000007]])
        moduli = [b.scale(k) for k in (6, 10, 15)]
        plan = build_plan(moduli, ())
        inst = plan.final.instance
        assert inst.anchor == 2 and inst.tau_bound_sq == Fraction(9 * 1103009, 16)  # 9 lambda^2(B) / 16
        f = final_region(plan).sample(random.Random(3))
        errs = [(450, -450, 450), (-450, 450, -450), (0, 0, 0)]
        assert all(vec_norm_sq(e) < inst.tau_bound_sq for e in errs)
        noisy = [vec_add(reduce_mod(f, m)[1], e) for m, e in zip(moduli, errs)]
        out = multistage_reconstruct(plan, noisy)
        assert out.folds == true_folds(f, moduli)
        assert out.estimate == tuple(Fraction(x) for x in f)  # the errors sum to zero

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


PLANS = [(FIG3_MODULI, FIG3_GROUPING), (FIG2_NONDIAG_MODULI, FIG2_NONDIAG_GROUPING)]


class TestIntegerHandoff:
    """Stages hand estimates on as integers over one denominator, which
    ``robust_reconstruct`` reads with ``den`` as the Fractions they stand for."""

    @pytest.mark.parametrize("den", [2, 4, 6])
    def test_ints_over_den_match_fractions(self, den):
        # numerators den * r + e with |e| <= den: the Fractions reduce
        # coordinate by coordinate, den is passed as it is
        gen = random.Random(den)
        checked = 0
        for moduli, grouping in PLANS:
            plan = build_plan(moduli, grouping)
            # every group of the plan, and the single-stage instance
            groups = [(grp.instance, grp.designated_lcrm) for stage in plan.stages for grp in stage]
            for inst, designated in groups + [(build_instance(moduli), None)]:
                region = robustly_determinable_region(inst, inst.lcrm)
                for _ in range(15):
                    f = region.sample(gen)
                    ints = [
                        tuple(den * x + gen.randint(-den, den) for x in reduce_mod(f, m)[1])
                        for m in inst.moduli
                    ]
                    fractions = [tuple(Fraction(x, den) for x in r) for r in ints]
                    try:
                        want = robust_reconstruct(inst, fractions, designated)
                    except Inconsistent:
                        with pytest.raises(Inconsistent):
                            robust_reconstruct(inst, ints, designated, den=den)
                        continue
                    got = robust_reconstruct(inst, ints, designated, den=den)
                    assert got.estimate == want.estimate
                    assert got.folds == want.folds
                    checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("plan_spec", PLANS, ids=["fig3", "fig2_nondiag"])
    def test_stage_outputs_are_ints_over_one_den(self, plan_spec, monkeypatch):
        moduli, grouping = plan_spec
        plan = build_plan(moduli, grouping)
        outputs = []
        reconstruct = robust.robust_reconstruct

        def recorded(*args, **kwargs):
            outputs.append(reconstruct(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(multistage, "robust_reconstruct", recorded)
        region = final_region(plan)
        gen = random.Random(5)
        ball = disk(1)
        for _ in range(10):
            f = region.sample(gen)
            noisy = [vec_add(reduce_mod(f, m)[1], ball[gen.randrange(len(ball))]) for m in moduli]
            multistage_reconstruct(plan, noisy)
        assert len(outputs) == 10 * sum(len(stage) for stage in plan.stages)
        for out in outputs:
            assert type(out.den) is int and out.den >= 1
            assert type(out.numerators) is tuple
            assert all(type(x) is int for x in out.numerators)

    @pytest.mark.parametrize("den", [0, -3])
    def test_denominator_below_one_rejected(self, den):
        inst = build_instance([G1, G1 @ A1, G1 @ A2])
        with pytest.raises(ValueError, match="denominator of at least 1"):
            robust_reconstruct(inst, [(1, 2)] * 3, den=den)


class TestReductionCount:
    """One decode of a group reduces exactly once, whatever its size: in the
    CRT solve, straight into the designated lcrm. The snapped differences go
    to the solver unreduced, and no ``Congruence`` is built. Every module
    that holds ``reduce_mod`` on that path is counted. Each count follows a
    first decode, which compiles and caches the group's ``CrtPlan``."""

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
                assert self.decode_group(grp, gen, calls) == 1

    def test_fig3_trial(self, calls):
        plan = build_plan(FIG3_MODULI, FIG3_GROUPING)
        f = final_region(plan).sample(trial_rng(3, 0, 0))
        noisy = [reduce_mod(f, m)[1] for m in FIG3_MODULI]
        multistage_reconstruct(plan, noisy)
        calls.clear()
        out = multistage_reconstruct(plan, noisy)
        assert out.estimate == tuple(Fraction(x) for x in f)
        assert len(calls) == 3  # one per group: two stage groups and the final group

    def test_fig3_trial_builds_no_congruence(self, monkeypatch):
        plan = build_plan(FIG3_MODULI, FIG3_GROUPING)
        f = final_region(plan).sample(trial_rng(3, 0, 0))
        noisy = [reduce_mod(f, m)[1] for m in FIG3_MODULI]
        multistage_reconstruct(plan, noisy)
        built = []
        normalize = crt_core.Congruence.__post_init__

        def counted(self):
            built.append(self)
            normalize(self)

        monkeypatch.setattr(crt_core.Congruence, "__post_init__", counted)
        out = multistage_reconstruct(plan, noisy)
        assert out.estimate == tuple(Fraction(x) for x in f)
        assert built == []

    def test_fig2_nondiag_trial(self, calls):
        # every group of two or more moduli reduces once, in its CRT solve;
        # the singleton stage-1 group {3} (a one-modulus instance) returns
        # its remainder and reduces nothing
        plan = build_plan(FIG2_NONDIAG_MODULI, FIG2_NONDIAG_GROUPING)
        assert [grp.instance.count for grp in [*plan.stages[0], plan.final]] == [3, 1, 2]
        f = final_region(plan).sample(trial_rng(3, 0, 0))
        noisy = [reduce_mod(f, m)[1] for m in FIG2_NONDIAG_MODULI]
        multistage_reconstruct(plan, noisy)
        calls.clear()
        out = multistage_reconstruct(plan, noisy)
        assert out.estimate == tuple(Fraction(x) for x in f)
        assert len(calls) == 1 + 0 + 1


class TestOutputRecord:
    """``RobustOutput`` is an immutable named tuple whose equality and hash
    are those of its estimate and folds, not of its fields."""

    FIELDS = ((1, 2), 3, (5, 5), ((0, 0), (1, 2)))

    def test_equal_estimates_and_folds_are_equal(self):
        a = RobustOutput(*self.FIELDS)
        b = RobustOutput((2, 4), 6, (5, 5), ((0, 0), (1, 2)))
        assert a.estimate == b.estimate == (Fraction(1, 3), Fraction(2, 3))
        assert a == b and not a != b and hash(a) == hash(b)
        other_folds = RobustOutput((1, 2), 3, (5, 6), ((0, 0), (1, 2)))
        assert a != other_folds and not a == other_folds

    def test_immutable(self):
        out = RobustOutput(*self.FIELDS)
        with pytest.raises(AttributeError):
            out.den = 6
        with pytest.raises(TypeError):
            out[1] = 6

    def test_not_equal_to_a_plain_tuple(self):
        out = RobustOutput(*self.FIELDS)
        assert out != self.FIELDS and self.FIELDS != out
        assert not out == self.FIELDS and not self.FIELDS == out


class TestRemainderShapeErrors:
    """The remainder-shape errors, word for word, from the public entries
    that read remainders (``CrtPlan.solve`` is pinned in test_crt_core.py).
    A wrong length after right ones shows that the message lists every
    length. ``crt_solve`` pairs each remainder with its modulus, so the
    count error cannot reach it."""

    COUNT = "^one remainder per modulus required$"

    @staticmethod
    def lengths(*n):
        return rf"^remainders must have length 2, got lengths \[{', '.join(map(str, n))}\]$"

    def test_crt_solve(self):
        with pytest.raises(DimensionMismatch, match=self.lengths(2, 3)):
            crt_core.crt_solve([(G1, (0, 0)), (G2, (0, 0, 0))])

    @pytest.mark.parametrize("moduli", [(G1, G1 @ A1, G1 @ A2), (G1,)], ids=["three", "one"])
    def test_robust_reconstruct(self, moduli):
        inst = build_instance(moduli)
        n = len(moduli)
        with pytest.raises(ValueError, match=self.COUNT):
            robust_reconstruct(inst, [(0, 0)] * (n + 1))
        with pytest.raises(DimensionMismatch, match=self.lengths(*[2] * (n - 1), 3)):
            robust_reconstruct(inst, [(0, 0)] * (n - 1) + [(0, 0, 0)])

    @pytest.mark.parametrize("grouping", [FIG3_GROUPING, ()], ids=["two-stage", "single-stage"])
    def test_multistage_reconstruct(self, grouping):
        plan = build_plan(FIG3_MODULI, grouping)
        with pytest.raises(ValueError, match=self.COUNT):
            multistage_reconstruct(plan, [(0, 0)] * 5)
        with pytest.raises(DimensionMismatch, match=self.lengths(2, 2, 2, 2, 2, 3)):
            multistage_reconstruct(plan, [(0, 0)] * 5 + [(0, 0, 0)])


# (module, name) of each decode layer that CI's bench-trace job requires a
# traced fig3 run to reach
PROBED = [
    (multistage, "multistage_reconstruct"),
    (robust, "robust_reconstruct"),
    (crt_core, "crt_solve"),
    (lattice, "closest_vector"),
    (lattice, "reduce_mod"),
]


class TestProbesOnTheDecodePath:
    """The benchmark's tracer counts a function's calls by rebinding it in
    every ``mdcrt`` module that holds it. A decode that reached a layer some
    other way, or inlined it, would read zero calls there; this finds that
    without a traced benchmark run."""

    @staticmethod
    def rebind(monkeypatch):
        reached = set()
        modules = [m for name, m in sys.modules.items() if name == "mdcrt" or name.startswith("mdcrt.")]
        for home, name in PROBED:
            original = getattr(home, name)

            def probe(*args, _name=name, _original=original, **kwargs):
                reached.add(_name)
                return _original(*args, **kwargs)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, probe)
        return reached

    @pytest.mark.parametrize("grouping", [FIG3_GROUPING, ()], ids=["two-stage", "single-stage"])
    def test_fig3_decode_reaches_every_probe(self, monkeypatch, grouping):
        plan = build_plan(FIG3_MODULI, grouping)
        f = final_region(plan).sample(trial_rng(3, 0, 0))
        noisy = [reduce_mod(f, m)[1] for m in FIG3_MODULI]  # consistent, so the solve reduces
        reached = self.rebind(monkeypatch)
        out = multistage.multistage_reconstruct(plan, noisy)
        assert out.estimate == tuple(Fraction(x) for x in f)
        assert reached == {name for _, name in PROBED}


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
        with pytest.raises(NotAnLcrm, match=r"^\|det\| = 64 but the intersection lattice has index 16$"):
            robustly_determinable_region(inst, IntMatrix.diag(8, 8))
        with pytest.raises(NotAnLcrm, match=r"^\|det\| = 32 but the intersection lattice has index 16$"):
            robustly_determinable_region(inst, IntMatrix.diag(4, 8))
        # |det| 36 is the lcrm's index, but the candidate is not a multiple of diag(2, 2)
        coprime = build_instance([IntMatrix.diag(2, 2), IntMatrix.diag(3, 3)])
        with pytest.raises(NotAnLcrm, match=r"^\[\[1,0\],\[0,36\]\] is not a right multiple of \[\[2,0\],\[0,2\]\]$"):
            robustly_determinable_region(coprime, M([[1, 0], [0, 36]]))


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


class TestGuaranteeExhaustive:
    """Below the bound, every error tuple decodes exactly: on instances
    small enough to list them all, each tuple with |e_j|^2 < the bound of
    modulus j recovers the true folds, and the estimate is f plus the
    plan's average of the errors. The moduli are B @ A_j with a
    non-diagonal B and left-coprime A_j, so every pair's gcld lattice is
    L(B)."""

    @staticmethod
    def moduli(base, factors):
        return tuple(M(base) @ M(a) for a in factors)

    def test_oracle_lists_the_open_balls(self):
        # |e|^2 < 97/16 is |e|^2 <= 6 (tau 5/2), |e|^2 < 73/16 is |e|^2 <= 4
        # (tau 2), and |e|^2 < 9 excludes the boundary points, |e|^2 = 9
        got = list(error_tuples([Fraction(97, 16), Fraction(73, 16), Fraction(9)], 2))
        balls = [brute_ball(Fraction(5, 2), 2), brute_ball(2, 2), brute_ball(Fraction(283, 100), 2)]
        assert got == list(itertools.product(*balls))

    @pytest.mark.parametrize(
        "base, factors",
        [
            ([[20, 0], [7, 21]], ([[2, 1], [0, 3]], [[5, 0], [1, 7]])),
            ([[9, 0], [4, 10]], ([[2, 1], [0, 3]], [[5, 0], [1, 7]], [[3, 0], [2, 11]])),
        ],
        ids=["two-moduli", "three-moduli"],
    )
    def test_single_stage(self, base, factors):
        moduli = self.moduli(base, factors)
        inst = build_instance(moduli)
        f = robustly_determinable_region(inst, inst.lcrm).sample(trial_rng(11, 0, len(moduli)))
        rems = [reduce_mod(f, m)[1] for m in moduli]
        folds = true_folds(f, moduli)
        n = len(moduli)
        count = 0
        for errors in error_tuples([inst.tau_bound_sq] * n, 2):
            out = robust_reconstruct(inst, [vec_add(r, e) for r, e in zip(rems, errors)])
            assert out.folds == folds
            assert out.estimate == tuple(x + Fraction(sum(c), n) for x, c in zip(f, zip(*errors)))
            count += 1
        assert count > 1000

    def test_two_stage_plan(self):
        """Group {0, 1}, singleton {2}, then the final pair: the estimate
        is f + ((e_0 + e_1) / 2 + e_2) / 2."""
        moduli = self.moduli([[8, 0], [3, 9]], ([[2, 0], [0, 3]], [[5, 0], [0, 7]], [[11, 0], [1, 13]]))
        plan = build_plan(moduli, [[[0, 1], [2]]])
        bounds = [b.tau_max_sq for b in plan.per_group_bounds]
        assert bounds == [Fraction(73, 16)] * 2
        region = final_region(plan)
        for t in range(2):
            f = region.sample(trial_rng(11, 1, t))
            rems = [reduce_mod(f, m)[1] for m in moduli]
            count = 0
            for e0, e1, e2 in error_tuples([bounds[0], bounds[0], bounds[1]], 2):
                noisy = [vec_add(rems[0], e0), vec_add(rems[1], e1), vec_add(rems[2], e2)]
                est = multistage_reconstruct(plan, noisy).estimate
                assert est == tuple(
                    x + (Fraction(a + b, 2) + c) / 2 for x, a, b, c in zip(f, e0, e1, e2)
                )
                count += 1
            assert count == 13**3
