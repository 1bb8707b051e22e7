import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdcrt.config import load_config
from mdcrt.crt_core import congruence_of, crt_solve
from mdcrt.errors import CoverageIncomplete, DuplicateOutput, GroupConditionFailed, Inconsistent
from mdcrt.exact_linalg import IntMatrix, hnf, vec_add, vec_norm_sq, vec_sub
from mdcrt.lattice import LatticeBasis, reduce_mod, shortest_vector
from mdcrt.multistage import (
    build_plan,
    check_group_condition,
    final_region,
    multistage_reconstruct,
)
from mdcrt.robust import build_instance, robust_reconstruct, robustly_determinable_region
from conftest import enumerate_fpd, random_matrix, random_unimodular, square_matrices

M = IntMatrix.from_rows
G1 = M([[22, -17], [17, 22]])
G2 = M([[22, 17], [-17, 22]])
A1 = M([[16, 0], [1, 16]])
A2 = M([[16, 1], [0, 16]])
B1 = M([[24, 0], [1, 24]])
B2 = M([[24, 1], [0, 24]])
C1 = M([[7, 0], [1, 7]])
C2 = M([[7, 1], [0, 7]])
C3 = M([[11, 1], [0, 11]])

SIX = [G1, G1 @ A1, G1 @ A2, G2, G2 @ B1, G2 @ B2]
TWO_GROUPS = [[[0, 1, 2], [3, 4, 5]]]


def two_stage_family(base):
    return [base.scale(30), (base @ C1).scale(10), (base @ C2).scale(15), (base @ C3).scale(42)]


def three_stage_instance():
    gammas = [G1, G2, M([[1, 0], [53, 769]]), M([[26, -11], [11, 26]]), M([[26, 11], [-11, 26]])]
    es = [8, 16, 36, 9, 27]
    mods = []
    for g, e in zip(gammas, es):
        mods += [g, g @ M([[e, 1], [0, e]]), g @ M([[e, 0], [1, e]])]
    grouping = [
        [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14]],
        [[2, 0, 1], [2, 3, 4]],
    ]
    return mods, grouping, gammas


def disk(tau):
    r = int(tau)
    return [
        (x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y <= tau * tau
    ]


class TestGroupCondition:
    def test_singleton(self):
        m = (G2 @ C3).scale(42)
        assert check_group_condition([m], 0) == m

    def test_two_stage_group(self):
        for base in (IntMatrix.identity(2), M([[1, 0], [32, 881]])):
            mods = two_stage_family(base)[:3]
            assert check_group_condition(mods, 0) == base.scale(1470)

    def test_motivating_group(self):
        got = check_group_condition([G1, G1 @ A1, G1 @ A2], 0)
        assert got == G1 @ IntMatrix.diag(256, 256)

    def test_non_diagonal_rejected(self):
        assert check_group_condition([M([[3, 1], [2, 2]]), M([[2, 2], [1, 3]])], 0) is None


class TestBuildPlan:
    def test_trivial_plan_degenerates(self):
        plan = build_plan([G1, G1 @ A1, G1 @ A2], [[[0, 1, 2]]])
        assert plan.final.instance.tau_bound_sq is None
        assert [b.tau_max_sq for b in plan.per_group_bounds] == [Fraction(773, 16)]

    def test_two_stage_example(self):
        base = M([[1, 0], [32, 881]])
        lam_sq = shortest_vector(LatticeBasis(base))[0]
        plan = build_plan(two_stage_family(base), [[[0, 1, 2], [3]]])
        g1, g2 = plan.stages[0]
        assert g1.designated_lcrm == base.scale(1470)
        assert g1.instance.tau_bound_sq == Fraction(25 * lam_sq, 4)
        assert g2.instance.tau_bound_sq is None  # singleton carries straight through
        assert plan.final.instance.tau_bound_sq == Fraction(441 * lam_sq, 4)
        # singleton group is only limited by the final stage
        assert [b.tau_max_sq for b in plan.per_group_bounds] == [
            Fraction(25 * lam_sq, 4),
            Fraction(441 * lam_sq, 4),
        ]
        overall = min(b.tau_max_sq for b in plan.per_group_bounds)
        assert overall == Fraction(25 * lam_sq, 4)

    def test_motivating_plan(self):
        plan = build_plan(SIX, TWO_GROUPS)
        assert [g.instance.tau_bound_sq for g in plan.stages[0]] == [Fraction(773, 16)] * 2
        assert plan.final.instance.tau_bound_sq == Fraction(256)  # (64/4)^2
        assert plan.final.designated_lcrm == IntMatrix.diag(1780992, 1780992)
        assert [b.tau_max_sq for b in plan.per_group_bounds] == [Fraction(773, 16)] * 2

    def test_three_stage_example(self):
        mods, grouping, gammas = three_stage_instance()
        plan = build_plan(mods, grouping)
        # stage-1 rebased lcrms are Gamma_k @ diag(r_k)
        rvals = [64, 256, 1296, 81, 729]
        for grp, g, r in zip(plan.stages[0], gammas, rvals):
            assert grp.designated_lcrm == g @ IntMatrix.diag(r, r)
        # stage-2 groups
        d21, d22 = plan.stages[1]
        assert d21.designated_lcrm == gammas[2] @ IntMatrix.diag(16028928, 16028928)
        assert d22.designated_lcrm == gammas[2] @ IntMatrix.diag(9296208, 9296208)
        assert d21.instance.tau_bound_sq == Fraction(16)  # (16/4)^2 = 4^2
        assert d22.instance.tau_bound_sq == Fraction(6561, 16)  # (81/4)^2
        # the two stage-2 outputs share the left factor Gamma_3 * 1296 I, so
        # the exact final bound is (1296/4)^2 * lambda^2(Gamma_3) = 324^2 * 842
        assert plan.final.instance.tau_bound_sq == Fraction(1296**2 * 842, 16)
        # path map and per-group bounds, Table-style
        assert plan.phi[0] == {
            0: frozenset({0}),
            1: frozenset({0}),
            2: frozenset({0, 1}),
            3: frozenset({1}),
            4: frozenset({1}),
        }
        expected = [
            Fraction(16),
            Fraction(16),
            Fraction(16),
            Fraction(797, 16),
            Fraction(797, 16),
        ]
        assert [b.tau_max_sq for b in plan.per_group_bounds] == expected

    def test_coverage_error(self):
        with pytest.raises(CoverageIncomplete):
            build_plan(SIX, [[[0, 1, 2]]])

    @pytest.mark.parametrize(
        "grouping", [[[]], [[[]]], [TWO_GROUPS[0], []]], ids=["empty-stage", "empty-group", "empty-later-stage"]
    )
    def test_empty_stage_or_group_error(self, grouping):
        with pytest.raises(CoverageIncomplete):
            build_plan(SIX, grouping)

    def test_zero_stage_plan_is_the_single_stage_instance(self):
        plan = build_plan(SIX, ())
        inst = build_instance(SIX)
        (final,) = plan.stages[0]
        assert len(plan.stages) == 1 and plan.final is final and plan.phi == ()
        assert final.member_indices == tuple(range(6))
        assert final.instance.anchor == inst.anchor
        assert final.designated_lcrm == inst.lcrm
        assert final.instance.tau_bound_sq == inst.tau_bound_sq == Fraction(1, 16)

    def test_zero_stage_plan_needs_two_moduli(self):
        with pytest.raises(ValueError, match="at least two moduli"):
            build_plan([G1], ())

    def test_condition_error_names_group(self):
        with pytest.raises(GroupConditionFailed, match="group 0"):
            build_plan([M([[3, 1], [2, 2]]), M([[2, 2], [1, 3]])], [[[0, 1]]])

    def test_duplicate_output(self, rng):
        m = random_matrix(rng, 2, bound=6)
        u = random_unimodular(rng, 2)
        other = m @ u
        if other == m:
            other = m @ M([[1, 1], [0, 1]])
        with pytest.raises(DuplicateOutput):
            build_plan([m, other], [[[0], [1]]])


class TestGroupOutputs:
    @pytest.mark.parametrize("path", ["configs/fig2_diag.cfg", "configs/fig2_nondiag.cfg", "configs/fig3.cfg"])
    def test_designated_lcrm_has_the_instance_lcrm_as_hnf(self, path):
        # designated = anchor HNF(anchor^-1 R) = R U with U unimodular, so the
        # instance's HNF lcrm R names the group's output lattice
        cfg = load_config(path)
        for grouping in [()] + ([cfg.grouping] if cfg.grouping is not None else []):
            for stage in build_plan(cfg.moduli, grouping).stages:
                for grp in stage:
                    assert hnf(grp.designated_lcrm) == grp.instance.lcrm


class TestReconstruct:
    def test_zero_error(self):
        plan = build_plan(SIX, TWO_GROUPS)
        region = final_region(plan)
        gen = random.Random(2)
        for _ in range(10):
            f = region.sample(gen)
            rems = [reduce_mod(f, m)[1] for m in SIX]
            out = multistage_reconstruct(plan, rems)
            assert tuple(out.estimate) == tuple(Fraction(x) for x in f)

    def test_error_free_stage_equivalence(self):
        plan = build_plan(SIX, TWO_GROUPS)
        region = final_region(plan)
        gen = random.Random(3)
        for _ in range(5):
            f = region.sample(gen)
            rems = [reduce_mod(f, m)[1] for m in SIX]
            out = multistage_reconstruct(plan, rems)
            v = crt_solve([congruence_of(f, m) for m in SIX])
            assert v == f
            assert tuple(out.estimate) == tuple(Fraction(x) for x in v)

    def test_theorem_guarantee_and_intermediate_rationals(self):
        plan = build_plan(SIX, TWO_GROUPS)
        region = final_region(plan)
        gen = random.Random(4)
        ball = disk(6)
        for _ in range(60):
            f = region.sample(gen)
            errs = [ball[gen.randrange(len(ball))] for _ in SIX]
            noisy = [vec_add(reduce_mod(f, m)[1], e) for m, e in zip(SIX, errs)]
            out = multistage_reconstruct(plan, noisy)
            assert vec_norm_sq(vec_sub(out.estimate, f)) <= Fraction(36)
            # intermediate estimates stay within tau of the true residues,
            # exactly in rationals
            for grp in plan.stages[0]:
                group_noisy = [noisy[i] for i in grp.member_indices]
                est = robust_reconstruct(
                    grp.instance, group_noisy, designated_lcrm=grp.designated_lcrm
                ).estimate
                f_i = reduce_mod(f, grp.designated_lcrm)[1]
                assert vec_norm_sq(vec_sub(est, f_i)) <= Fraction(36)

    def test_two_stage_example_tolerance(self):
        base = M([[1, 0], [32, 881]])
        plan = build_plan(two_stage_family(base), [[[0, 1, 2], [3]]])
        region = final_region(plan)
        gen = random.Random(5)
        ball = disk(47)
        for _ in range(15):
            f = region.sample(gen)
            errs = [ball[gen.randrange(len(ball))] for _ in plan.moduli]
            noisy = [vec_add(reduce_mod(f, m)[1], e) for m, e in zip(plan.moduli, errs)]
            out = multistage_reconstruct(plan, noisy)
            assert vec_norm_sq(vec_sub(out.estimate, f)) <= Fraction(47 * 47)


@st.composite
def shared_factor_moduli(draw, diagonal=False):
    """2 to 4 distinct 2D moduli ``G @ S_i``. The common left factor G lets
    the error bound exceed 1/16. With ``diagonal`` every S_i is diagonal, so
    HNF(M_0^-1 lcrm) is diagonal and the moduli form one admissible group
    anchored at the first."""
    nonsingular = square_matrices(2, 4).filter(lambda m: m.det != 0)
    g = draw(nonsingular)
    if diagonal:
        factor = st.tuples(st.integers(1, 9), st.integers(1, 9)).map(lambda d: IntMatrix.diag(*d))
    else:
        factor = nonsingular
    ms = [g @ s for s in draw(st.lists(factor, min_size=2, max_size=4))]
    assume(len(set(ms)) == len(ms))
    return ms


@st.composite
def noisy_remainders(draw, ms):
    """Remainders of one f, each moved by an error of up to 3 per coordinate."""
    f = draw(st.tuples(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4)))
    error = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return [vec_add(reduce_mod(f, m)[1], draw(error)) for m in ms]


def outcome(call):
    """The call's RobustOutput, or "inconsistent" when it raises Inconsistent."""
    try:
        return call()
    except Inconsistent:
        return "inconsistent"


class TestOnePipeline:
    """Single-stage reconstruction is the zero-stage plan, and a one-group
    plan is the single-stage scheme with the group's anchor and lcrm."""

    @settings(max_examples=80, deadline=None)
    @given(shared_factor_moduli(), st.data())
    def test_zero_stage_plan_reconstructs_as_robust(self, ms, data):
        noisy = data.draw(noisy_remainders(ms))
        got = outcome(lambda: multistage_reconstruct(build_plan(ms, ()), noisy))
        expected = outcome(lambda: robust_reconstruct(build_instance(ms), noisy))
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(shared_factor_moduli())
    def test_zero_stage_plan_region_and_bound(self, ms):
        plan = build_plan(ms, ())
        inst = build_instance(ms)
        region = final_region(plan)
        expected = robustly_determinable_region(inst, inst.lcrm)
        assert (region.anchor, region.quotient) == (expected.anchor, expected.quotient)
        assert [b.tau_max_sq for b in plan.per_group_bounds] == [inst.tau_bound_sq]

    @settings(max_examples=60, deadline=None)
    @given(shared_factor_moduli(diagonal=True), st.data())
    def test_one_group_plan_reconstructs_as_anchored_robust(self, ms, data):
        noisy = data.draw(noisy_remainders(ms))
        plan = build_plan(ms, [[list(range(len(ms)))]])
        designated = plan.stages[0][0].designated_lcrm
        got = outcome(lambda: multistage_reconstruct(plan, noisy))
        expected = outcome(
            lambda: robust_reconstruct(build_instance(ms, anchor=0), noisy, designated_lcrm=designated)
        )
        if expected == "inconsistent":
            assert got == expected
        else:
            assert got.estimate == expected.estimate


class TestFinalRegion:
    def test_right_multiple_pair(self, rng):
        m = random_matrix(rng, 2, bound=5)
        bigger = m @ IntMatrix.diag(2, 2)
        plan = build_plan([bigger, m], [[[0], [1]]])
        region = final_region(plan)
        assert region.anchor == bigger
        assert enumerate_fpd(region.quotient) == [(0, 0)]

    def test_motivating_shift_count(self):
        plan = build_plan(SIX, TWO_GROUPS)
        region = final_region(plan)
        r1_det = abs((G1 @ IntMatrix.diag(256, 256)).det)
        assert 1780992**2 % r1_det == 0
        assert abs(region.quotient.det) == 1780992**2 // r1_det == 62613

    def test_three_stage_final_anchor(self):
        mods, grouping, gammas = three_stage_instance()
        plan = build_plan(mods, grouping)
        # tie on the single gcld pair, broken toward the smaller index
        final = plan.final
        assert final.instance.anchor == 0
        # 7173^2 shifts: far over what enumerate_fpd lists, but the region
        # never enumerates them
        q = abs(final.designated_lcrm.det) // abs(final.instance.moduli[0].det)
        assert q == 7173**2
        region = final_region(plan)
        assert abs(region.quotient.det) == q
        assert region.size == abs(final.designated_lcrm.det)


class TestNoGainCorollary:
    SHAPES = [
        IntMatrix.identity(2),
        IntMatrix.diag(2, 2),
        IntMatrix.diag(3, 3),
        M([[5, 1], [0, 5]]),
    ]

    @staticmethod
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in TestNoGainCorollary.partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    def test_every_valid_grouping_bounded_by_common_factor(self, rng):
        for _ in range(3):
            common = random_matrix(rng, 2, bound=9)
            lam_sq = shortest_vector(LatticeBasis(common))[0]
            mods = [common @ s for s in self.SHAPES]
            target = Fraction(lam_sq, 16)
            tested = 0
            for part in self.partitions(list(range(4))):
                for anchored in itertools.product(
                    *(range(len(group)) for group in part)
                ):
                    grouping = [
                        [grp[a:] + grp[:a] for grp, a in zip(part, anchored)]
                    ]
                    try:
                        plan = build_plan(mods, grouping)
                    except GroupConditionFailed:
                        continue
                    tested += 1
                    overall = min(
                        (b.tau_max_sq for b in plan.per_group_bounds if b.tau_max_sq is not None),
                        default=None,
                    )
                    assert overall == target
            assert tested >= 15
