import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdcrt import crt_core
from mdcrt.crt_core import (
    Congruence,
    CrtPlan,
    congruence_of,
    crt_solve,
    gcld,
    is_coprime,
    lcrm,
)
from mdcrt.errors import DimensionMismatch, Inconsistent, SingularMatrix
from mdcrt.exact_linalg import IntMatrix, hnf, vec_add, vec_sub
from mdcrt.lattice import reduce_mod
from conftest import (
    FIG2_NONDIAG_MODULI,
    FIG3_MODULI,
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

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_membership(self, rng, dim):
        for _ in range(30):
            a = random_matrix(rng, dim, bound=6)
            b = random_matrix(rng, dim, bound=6)
            r = lcrm(a, b)
            for j in range(dim):
                col = r.column(j)
                assert in_lattice(a, col) and in_lattice(b, col)

    def test_minimality_oracle(self, rng):
        for dim, bound, det_cap in ((2, 4, 12), (3, 2, 6)):
            checked = 0
            for _ in range(40):
                a = random_matrix(rng, dim, bound=bound)
                b = random_matrix(rng, dim, bound=bound)
                if abs(a.det) > det_cap or abs(b.det) > det_cap:
                    continue
                checked += 1
                assert abs(lcrm(a, b).det) == brute_intersection_det(a, b)
            assert checked >= 10

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_determinant_identity(self, rng, dim):
        for _ in range(30):
            a = random_matrix(rng, dim, bound=6)
            b = random_matrix(rng, dim, bound=6)
            assert abs(gcld(a, b).det) * abs(lcrm(a, b).det) == abs(a.det * b.det)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_fold_order_immaterial(self, rng, dim):
        for _ in range(10):
            ms = [random_matrix(rng, dim, bound=5) for _ in range(4)]
            base = lcrm(*ms)
            assert lcrm(lcrm(*ms[:-1]), ms[-1]) == base
            for perm in itertools.permutations(ms):
                assert lcrm(*perm) == base

    def test_theorem_construction(self):
        mods = [
            IntMatrix.diag(3, 1),
            IntMatrix.diag(1, 3),
            IntMatrix.diag(4, 1),
            IntMatrix.diag(1, 4),
        ]
        assert lcrm(*mods) == IntMatrix.diag(12, 12)

    def test_group_of_three(self):
        e11 = M([[8, 1], [0, 8]])
        e12 = M([[8, 0], [1, 8]])
        got = lcrm(G1, G1 @ e11, G1 @ e12)
        assert got == hnf(G1 @ IntMatrix.diag(64, 64))

    def test_singleton(self, rng):
        m = random_matrix(rng, 2, bound=8)
        assert lcrm(m) == hnf(m)

    def test_shipped_groups(self):
        # configs/fig3.cfg, configs/fig2_nondiag.cfg and configs/fig2_diag.cfg:
        # all moduli and each declared group
        fig2_diag = [IntMatrix.diag(870, 870), M([[2030, 0], [290, 2030]]),
                     M([[3045, 435], [0, 3045]]), M([[13398, 1218], [0, 13398]])]
        cases = [
            (FIG3_MODULI, [[1780992, 0], [0, 1780992]]),
            (FIG3_MODULI[:3], [[256, 0], [81152, 197888]]),
            (FIG3_MODULI[3:], [[576, 0], [262656, 445248]]),
            (FIG2_NONDIAG_MODULI, [[1470, 0], [14292810, 156703470]]),
            (FIG2_NONDIAG_MODULI[:3], [[1470, 0], [47040, 1295070]]),
            (FIG2_NONDIAG_MODULI[3:], [[42, 0], [408366, 4477242]]),
            (fig2_diag, [[42630, 0], [468930, 5158230]]),
        ]
        for ms, expected in cases:
            assert lcrm(*ms) == M(expected)

    def test_operand_check(self):
        with pytest.raises(ValueError):
            lcrm()
        with pytest.raises(DimensionMismatch):
            lcrm(M([[2, 4]]))
        with pytest.raises(DimensionMismatch):
            lcrm(IntMatrix.diag(2, 3), IntMatrix.diag(2, 3, 5))
        with pytest.raises(SingularMatrix):
            lcrm(M([[1, 2], [2, 4]]))


class TestCrtSolve:
    def test_single_congruence(self):
        m = M([[1, 0], [1, 4]])  # already in HNF, so N(m) = N(hnf(m))
        r = reduce_mod((7, 3), m)[1]
        v = crt_solve([Congruence(m, r)])
        assert v == r
        assert reduce_mod(v, hnf(m))[1] == v

    def test_worked_pair(self):
        m1, m2 = M([[3, 1], [2, 2]]), M([[2, 2], [1, 3]])
        f = (2, 1)
        v = crt_solve([congruence_of(f, m1), congruence_of(f, m2)])
        assert v == f and type(v) is tuple and all(type(x) is int for x in v)
        assert reduce_mod(v, IntMatrix.diag(4, 4))[1] == v
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
                assert crt_solve([congruence_of(f, m1), congruence_of(f, m2)]) == f
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

    def test_plan_checks_remainder_shape(self):
        plan = CrtPlan((G1, G2))
        with pytest.raises(ValueError, match="^one remainder per modulus required$"):
            plan.solve([(0, 0)])
        with pytest.raises(DimensionMismatch, match=r"^remainders must have length 2, got lengths \[2, 3\]$"):
            plan.solve([(0, 0), (0, 0, 0)])


# ---------------------------------------------------------------------------
# the compiled fold, against brute force


@st.composite
def moduli_sets(draw):
    """2 to 4 moduli, all 2D or all 3D, each with |det| <= 6, whose lcrm has
    |det| <= 600 so that N(lcrm) can be scanned."""
    dim = draw(st.sampled_from((2, 3)))
    modulus = square_matrices(dim, 3 if dim == 2 else 2).filter(lambda m: 0 < abs(m.det) <= 6)
    ms = draw(st.lists(modulus, min_size=2, max_size=4))
    assume(abs(lcrm(*ms).det) <= 600)
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
        total = lcrm(*ms)
        expected = reduce_mod(f, total)[1]
        congruences = [congruence_of(f, m) for m in ms]
        order = data.draw(st.permutations(range(len(ms))))
        for cs in (congruences, [congruences[i] for i in order]):
            v = crt_solve(cs)
            assert v == expected
            assert reduce_mod(v, total)[1] == v

    @settings(max_examples=60, deadline=None)
    @given(moduli_sets(), st.data())
    def test_inconsistent_exactly_when_no_common_point(self, ms, data):
        rems = data.draw(remainder_tuples(ms))
        total = lcrm(*ms)
        common = brute_common_points(ms, rems, total)
        congruences = [Congruence(m, r) for m, r in zip(ms, rems)]
        if not common:
            with pytest.raises(Inconsistent):
                crt_solve(congruences)
        else:
            assert common == [crt_solve(congruences)]

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
                return solve(*args)
            except Inconsistent:
                return "inconsistent"

        rems = data.draw(remainder_tuples(ms))
        total = lcrm(*ms)
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
            v = crt_solve(congruences, into)
            assert reduce_mod(v, into)[1] == v

    def test_4d_three_non_hnf_moduli(self, rng):
        g = M([[2, 1, 0, 1], [0, 3, 1, 0], [1, 0, 2, 1], [0, 1, 1, 3]])
        ms = [g @ random_matrix(rng, 4, bound=3) for _ in range(3)]
        assert all(hnf(m) != m for m in ms)
        total = lcrm(*ms)
        plan = CrtPlan(ms)
        for _ in range(20):
            f = tuple(rng.randint(-10**6, 10**6) for _ in range(4))
            congruences = [congruence_of(f, m) for m in ms]
            assert crt_solve(congruences) == reduce_mod(f, total)[1]
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
        with pytest.raises(ValueError, match="at least one congruence"):
            crt_solve([])

    @settings(max_examples=60, deadline=None)
    @given(moduli_sets())
    def test_check_moduli_are_non_increasing(self, ms):
        moduli = [q for _, q in CrtPlan(ms).checks]
        assert all(q > 1 for q in moduli)
        assert moduli == sorted(moduli, reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: square_matrices(dim, 4)), st.data())
    def test_one_congruence_solves_to_its_reduced_remainder(self, m, data):
        assume(m.det != 0)
        r0 = tuple(data.draw(st.integers(-10**6, 10**6)) for _ in range(m.dim))
        into = hnf(m) @ random_unimodular(data.draw(st.randoms(use_true_random=False)), m.dim)
        plan = CrtPlan([m])
        assert plan.checks == ()
        assert plan.solve([r0]) == crt_solve([(m, r0)]) == reduce_mod(r0, hnf(m))[1]
        assert plan.solve([r0], into) == crt_solve([(m, r0)], into) == reduce_mod(r0, into)[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: st.tuples(*[square_matrices(dim, 9)] * 2)), st.data())
    def test_difference_in_the_gcld_lattice_is_consistent(self, pair, data):
        """The two-member robust group: the anchor's remainder is 0 and the
        other's is a point of L(gcld(A, B)), so the system always solves."""
        a, b = pair
        assume(a.det != 0 and b.det != 0)
        g = gcld(a, b)
        v = g.apply([data.draw(st.integers(-50, 50)) for _ in range(g.dim)])
        f = crt_solve([(a, (0,) * a.dim), (b, v)])
        assert in_lattice(a, f) and in_lattice(b, vec_sub(f, v))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(square_matrices(dim, 4).filter(lambda m: m.det != 0), min_size=1, max_size=4)
        ),
        st.data(),
    )
    def test_plan_reads_only_remainder_differences(self, ms, data):
        """The compile reads each row of the SNF's U on the stacked
        remainders as (-(sum of its D-blocks), row), so every check row's
        D-blocks sum to 0 mod its modulus, and moving every remainder by one
        vector v moves the solution by v and never changes consistency."""

        def outcome(rems):
            try:
                return plan.solve(rems)
            except Inconsistent:
                return "inconsistent"

        def vector(bound):
            return tuple(data.draw(st.integers(-bound, bound)) for _ in range(dim))

        dim = ms[0].dim
        plan = CrtPlan(ms)
        for row, q in plan.checks:
            assert all(sum(row[i::dim]) % q == 0 for i in range(dim))
        if data.draw(st.booleans()):  # a common solution f, unreduced
            f = vector(50)
            rems = [vec_add(f, m.apply(vector(5))) for m in ms]
        else:
            rems = [vector(50) for _ in ms]
        v = vector(10**6)
        base = outcome(rems)
        expected = base if base == "inconsistent" else reduce_mod(vec_add(base, v), plan.lcrm)[1]
        assert outcome([vec_add(r, v) for r in rems]) == expected

    def test_equal_new_moduli_hit_the_compiled_plan(self):
        rows = ([[7, 2], [-3, 11]], [[13, 0], [5, 17]])
        first = crt_solve([(M(r), (1, 2)) for r in rows])
        hits = crt_core._plan.cache_info().hits
        assert crt_solve([(M(r), (1, 2)) for r in rows]) == first
        assert crt_core._plan.cache_info().hits == hits + 1

    @settings(max_examples=60, deadline=None)
    @given(moduli_sets(), st.data())
    def test_pairs_of_any_representatives_solve_as_congruences(self, ms, data):
        """Plain ``(modulus, r + M k)`` pairs give the vector that the
        normalized ``Congruence``s give, and Inconsistent on the same
        inputs."""

        def outcome(congruences):
            try:
                return crt_solve(congruences)
            except Inconsistent:
                return "inconsistent"

        rems = data.draw(remainder_tuples(ms))
        pairs = [
            (m, vec_add(r, m.apply([data.draw(st.integers(-20, 20)) for _ in r]))) for m, r in zip(ms, rems)
        ]
        assert outcome(pairs) == outcome([Congruence(m, r) for m, r in zip(ms, rems)])
