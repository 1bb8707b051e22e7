import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdcrt.crt_core import (
    Congruence,
    CrtPlan,
    congruence_of,
    crt_solve,
    gcld,
    is_coprime,
    lcrm,
    lcrm_many,
)
from mdcrt.errors import DimensionMismatch, Inconsistent, SingularMatrix
from mdcrt.exact_linalg import IntMatrix, hnf, vec_add, vec_sub
from mdcrt.lattice import reduce_mod
from conftest import (
    brute_common_left_divisors,
    brute_common_points,
    brute_fpd,
    brute_intersection_det,
    enumerate_fpd,
    random_matrix,
    random_unimodular,
    square_matrices,
)

M = IntMatrix.from_rows
G1 = M([[22, -17], [17, 22]])
G2 = M([[22, 17], [-17, 22]])
R1 = G1 @ IntMatrix.diag(256, 256)
R2 = G2 @ IntMatrix.diag(576, 576)


def in_lattice(m, v):
    d = m.det
    return all(x % d == 0 for x in m.adj.apply(v))


class TestGcld:
    def test_self(self, rng):
        for _ in range(20):
            m = random_matrix(rng, 2, bound=8)
            assert gcld(m, m) == hnf(m)

    def test_motivating_pair(self):
        g = gcld(R1, R2)
        assert g == IntMatrix.diag(64, 64)
        assert g.det == 4096

    def test_coprime_rotations(self):
        assert abs(gcld(G1, G2).det) == 1

    def test_divides_both(self, rng):
        for _ in range(40):
            a = random_matrix(rng, 2, bound=8)
            b = random_matrix(rng, 2, bound=8)
            g = gcld(a, b)
            assert g.divides_left(a)
            assert g.divides_left(b)

    def test_greatest_against_enumeration(self, rng):
        # every brute-forced common left divisor must left-divide the gcld
        for _ in range(15):
            a = random_matrix(rng, 2, bound=5)
            b = random_matrix(rng, 2, bound=5)
            g = gcld(a, b)
            for h in brute_common_left_divisors(a, b):
                assert h.divides_left(g)


class TestCoprime:
    def test_with_identity(self, rng):
        for _ in range(10):
            m = random_matrix(rng, 2, bound=9)
            assert is_coprime(m, IntMatrix.identity(2))

    def test_diagonal_rule(self, rng):
        import math

        for _ in range(30):
            a = IntMatrix.diag(rng.randint(1, 12), rng.randint(1, 12))
            b = IntMatrix.diag(rng.randint(1, 12), rng.randint(1, 12))
            expected = all(
                math.gcd(a.rows[i][i], b.rows[i][i]) == 1 for i in range(2)
            )
            assert is_coprime(a, b) == expected

    def test_common_factor(self):
        two_i = IntMatrix.diag(2, 2)
        assert not is_coprime(two_i, two_i)

    def test_worked_pair(self):
        assert is_coprime(M([[3, 1], [2, 2]]), M([[2, 2], [1, 3]]))


class TestLcrm:
    def test_with_identity(self, rng):
        for _ in range(20):
            m = random_matrix(rng, 2, bound=8)
            assert lcrm(m, IntMatrix.identity(2)) == hnf(m)

    def test_shifted_fpd_pair(self):
        assert lcrm(M([[3, 1], [2, 2]]), M([[2, 2], [1, 3]])) == IntMatrix.diag(4, 4)

    def test_motivating_pair(self):
        assert lcrm(R1, R2).det == 1780992**2

    def test_membership(self, rng):
        for _ in range(30):
            a = random_matrix(rng, 2, bound=6)
            b = random_matrix(rng, 2, bound=6)
            r = lcrm(a, b)
            for j in range(2):
                col = r.column(j)
                assert in_lattice(a, col) and in_lattice(b, col)

    def test_minimality_oracle(self, rng):
        checked = 0
        for _ in range(40):
            a = random_matrix(rng, 2, bound=4)
            b = random_matrix(rng, 2, bound=4)
            if abs(a.det) > 12 or abs(b.det) > 12:
                continue
            checked += 1
            assert abs(lcrm(a, b).det) == brute_intersection_det(a, b)
        assert checked >= 10

    def test_determinant_identity(self, rng):
        for _ in range(30):
            a = random_matrix(rng, 2, bound=6)
            b = random_matrix(rng, 2, bound=6)
            assert abs(gcld(a, b).det) * abs(lcrm(a, b).det) == abs(a.det * b.det)

    def test_fold_order_immaterial(self, rng):
        for _ in range(10):
            ms = [random_matrix(rng, 2, bound=5) for _ in range(3)]
            base = lcrm_many(ms)
            for perm in itertools.permutations(ms):
                assert lcrm_many(list(perm)) == base

    def test_theorem_construction(self):
        mods = [
            IntMatrix.diag(3, 1),
            IntMatrix.diag(1, 3),
            IntMatrix.diag(4, 1),
            IntMatrix.diag(1, 4),
        ]
        assert lcrm_many(mods) == IntMatrix.diag(12, 12)

    def test_group_of_three(self):
        e11 = M([[8, 1], [0, 8]])
        e12 = M([[8, 0], [1, 8]])
        got = lcrm_many([G1, G1 @ e11, G1 @ e12])
        assert got == hnf(G1 @ IntMatrix.diag(64, 64))

    def test_singleton(self, rng):
        m = random_matrix(rng, 2, bound=8)
        assert lcrm_many([m]) == hnf(m)


class TestCrtSolve:
    def test_single_congruence(self):
        m = M([[1, 0], [1, 4]])  # already in HNF, so N(m) = N(hnf(m))
        r = reduce_mod((7, 3), m)[1]
        sol = crt_solve([Congruence(m, r)])
        assert sol.value == r
        assert sol.lcrm == hnf(m)

    def test_worked_pair(self):
        m1, m2 = M([[3, 1], [2, 2]]), M([[2, 2], [1, 3]])
        f = (2, 1)
        sol = crt_solve([congruence_of(f, m1), congruence_of(f, m2)])
        assert sol.value == f
        assert sol.lcrm == IntMatrix.diag(4, 4)
        # brute-force uniqueness over all 16 candidates
        hits = [
            g
            for g in enumerate_fpd(IntMatrix.diag(4, 4))
            if reduce_mod(g, m1)[1] == reduce_mod(f, m1)[1]
            and reduce_mod(g, m2)[1] == reduce_mod(f, m2)[1]
        ]
        assert hits == [f]

    def test_incompatible(self):
        two_i = IntMatrix.diag(2, 2)
        with pytest.raises(Inconsistent):
            crt_solve([Congruence(two_i, (0, 0)), Congruence(two_i, (1, 0))])

    def test_round_trip_exhaustive_small(self, rng):
        done = 0
        while done < 5:
            m1 = random_matrix(rng, 2, bound=4)
            m2 = random_matrix(rng, 2, bound=4)
            r = lcrm(m1, m2)
            if abs(r.det) > 120:
                continue
            done += 1
            seen = set()
            for f in enumerate_fpd(r):
                sol = crt_solve([congruence_of(f, m1), congruence_of(f, m2)])
                assert sol.value == f
                key = (reduce_mod(f, m1)[1], reduce_mod(f, m2)[1])
                assert key not in seen
                seen.add(key)

    def test_remainder_validation(self, rng):
        # any representative is accepted and stored reduced into N(modulus)
        two_i = IntMatrix.diag(2, 2)
        assert Congruence(two_i, (5, 0)).remainder == (1, 0)
        for _ in range(30):
            m = random_matrix(rng, 2, bound=6)
            r = tuple(rng.randint(-50, 50) for _ in range(2))
            k = tuple(rng.randint(-9, 9) for _ in range(2))
            c = Congruence(m, r)
            assert Congruence(m, vec_add(r, m.apply(k))) == c
            assert c.remainder in brute_fpd(m)
        with pytest.raises(DimensionMismatch):
            Congruence(two_i, (1, 0, 0))
        with pytest.raises(SingularMatrix):
            Congruence(M([[1, 2], [2, 4]]), (1, 0))


# ---------------------------------------------------------------------------
# the compiled fold, against brute force


@st.composite
def moduli_sets(draw):
    """2 to 4 moduli, all 2D or all 3D, each with |det| <= 6, whose lcrm has
    |det| <= 600 so that N(lcrm) can be scanned."""
    dim = draw(st.sampled_from((2, 3)))
    modulus = square_matrices(dim, 3 if dim == 2 else 2).filter(lambda m: 0 < abs(m.det) <= 6)
    ms = draw(st.lists(modulus, min_size=2, max_size=4))
    assume(abs(lcrm_many(ms).det) <= 600)
    return ms


@st.composite
def remainder_tuples(draw, ms):
    """One point of N(m) per modulus, drawn independently."""
    return [draw(st.sampled_from(sorted(brute_fpd(m)))) for m in ms]


class TestCompiledFold:
    @settings(max_examples=60, deadline=None)
    @given(moduli_sets(), st.data())
    def test_solution_is_f_mod_lcrm_in_any_fold_order(self, ms, data):
        f = tuple(data.draw(st.integers(-60, 60)) for _ in range(ms[0].dim))
        total = lcrm_many(ms)
        expected = reduce_mod(f, total)[1]
        congruences = [congruence_of(f, m) for m in ms]
        order = data.draw(st.permutations(range(len(ms))))
        for cs in (congruences, [congruences[i] for i in order]):
            sol = crt_solve(cs)
            assert sol.value == expected
            assert sol.lcrm == total

    @settings(max_examples=60, deadline=None)
    @given(moduli_sets(), st.data())
    def test_inconsistent_exactly_when_no_common_point(self, ms, data):
        rems = data.draw(remainder_tuples(ms))
        total = lcrm_many(ms)
        common = brute_common_points(ms, rems, total)
        congruences = [Congruence(m, r) for m, r in zip(ms, rems)]
        if not common:
            with pytest.raises(Inconsistent):
                crt_solve(congruences)
        else:
            assert common == [crt_solve(congruences).value]

    @settings(max_examples=30, deadline=None)
    @given(moduli_sets(), moduli_sets(), st.data())
    def test_repeated_and_interleaved_calls_match_a_fresh_plan(self, ms_a, ms_b, data):
        def outcome(plan_or_solve, rems):
            try:
                return plan_or_solve(rems)
            except Inconsistent:
                return "inconsistent"

        calls = []
        for _ in range(6):
            ms = data.draw(st.sampled_from((ms_a, ms_b)))
            calls.append((ms, data.draw(remainder_tuples(ms))))
        for ms, rems in calls + calls:
            cached = outcome(lambda r: crt_solve([Congruence(m, x) for m, x in zip(ms, r)]), rems)
            fresh = outcome(CrtPlan(ms).solve, rems)
            assert cached == fresh

    @settings(max_examples=60, deadline=None)
    @given(moduli_sets(), st.data())
    def test_into_any_lcrm_basis_from_any_representatives(self, ms, data):
        """Solving straight into D = R @ U (U unimodular) is reducing the
        N(R) solution into N(D); unreduced remainders r + M k solve as r."""

        def outcome(solve, *args):
            try:
                return solve(*args).value
            except Inconsistent:
                return "inconsistent"

        rems = data.draw(remainder_tuples(ms))
        total = lcrm_many(ms)
        into = total @ random_unimodular(data.draw(st.randoms(use_true_random=False)), total.dim)
        unreduced = [
            vec_add(r, m.apply([data.draw(st.integers(-20, 20)) for _ in r])) for m, r in zip(ms, rems)
        ]
        congruences = [Congruence(m, r) for m, r in zip(ms, rems)]
        plan = CrtPlan(ms)
        base = outcome(crt_solve, congruences)
        expected = base if base == "inconsistent" else reduce_mod(base, into)[1]
        assert outcome(crt_solve, congruences, into) == expected
        assert outcome(plan.solve, unreduced) == base
        assert outcome(plan.solve, unreduced, into) == expected
        if base != "inconsistent":
            assert crt_solve(congruences, into).lcrm == into

    def test_4d_three_non_hnf_moduli(self, rng):
        g = M([[2, 1, 0, 1], [0, 3, 1, 0], [1, 0, 2, 1], [0, 1, 1, 3]])
        ms = [g @ random_matrix(rng, 4, bound=3) for _ in range(3)]
        assert all(hnf(m) != m for m in ms)
        total = lcrm_many(ms)
        plan = CrtPlan(ms)
        for _ in range(20):
            f = tuple(rng.randint(-10**6, 10**6) for _ in range(4))
            congruences = [congruence_of(f, m) for m in ms]
            assert crt_solve(congruences).value == reduce_mod(f, total)[1]
            # one remainder off by a vector outside L(g): no common solution
            shifted = reduce_mod(vec_sub(congruences[1].remainder, (1, 0, 0, 0)), ms[1])[1]
            with pytest.raises(Inconsistent):
                plan.solve([congruences[0].remainder, shifted, congruences[2].remainder])

    def test_solve_checks_shape(self):
        plan = CrtPlan([IntMatrix.diag(2, 3), IntMatrix.diag(5, 7)])
        with pytest.raises(ValueError):
            plan.solve([(1, 2)])
        with pytest.raises(DimensionMismatch):
            plan.solve([(1, 2), (1, 2, 3)])

    def test_mixed_dimension_rejected(self):
        congruences = [Congruence(IntMatrix.diag(2, 3), (1, 2)), Congruence(IntMatrix.diag(2, 2, 2), (1, 0, 1))]
        with pytest.raises(DimensionMismatch):
            crt_solve(congruences)
        with pytest.raises(DimensionMismatch):
            crt_solve(congruences[::-1])

    def test_no_congruences_rejected(self):
        with pytest.raises(ValueError):
            crt_solve([])
