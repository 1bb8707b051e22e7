import gc
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdcrt import lattice
from mdcrt.crt_core import gcld
from mdcrt.errors import DimensionMismatch, DimensionUnsupported, SingularMatrix
from mdcrt.exact_linalg import IntMatrix, hnf, snf, vec_add, vec_dot, vec_norm_sq, vec_sub
from mdcrt.lattice import (
    FpdSampler,
    FpdUnionRegion,
    LatticeBasis,
    closest_vector,
    nearest_region_point,
    reduce_mod,
    shortest_vector,
)
from mdcrt.multistage import build_plan
from mdcrt.robust import robust_reconstruct
from conftest import (
    FIG3_GROUPING,
    FIG3_MODULI,
    brute_closest_vectors,
    brute_fpd,
    brute_shortest_sq_sound,
    enumerate_fpd,
    random_matrix,
    rational_solve,
    square_matrices,
)

M = IntMatrix.from_rows
M1 = M([[3, 1], [2, 2]])


@st.composite
def bases_and_targets(draw):
    """A nonsingular D = 1, 2, 3 or 4 basis and a target whose entries share
    a denominator in {1, 2, 3, 9}."""
    dim = draw(st.sampled_from([1, 2, 3, 4]))
    m = draw(square_matrices(dim, 5 if dim <= 2 else 3).filter(lambda m: m.det != 0))
    den = draw(st.sampled_from([1, 2, 3, 9]))
    return m, tuple(Fraction(draw(st.integers(-60, 60)), den) for _ in range(dim))


@st.composite
def integer_targets_over_den(draw):
    """A nonsingular D = 1..4 basis, integer numerators and a denominator.
    Half the time the target is a lattice point plus half a lattice vector,
    ``(2v + w) / 2`` written over ``2k``: there two lattice vectors can tie
    and only the exact search, with its lexicographic tie-break, answers."""
    dim = draw(st.integers(1, 4))
    m = draw(square_matrices(dim, 5 if dim <= 2 else 3).filter(lambda m: m.det != 0))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        v = m.apply(draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)))
        w = m.apply(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
        return m, [k * (2 * a + b) for a, b in zip(v, w)], 2 * k
    return m, draw(st.lists(st.integers(-60, 60), min_size=dim, max_size=dim)), draw(st.integers(1, 6))


@st.composite
def moduli_and_vectors(draw):
    """A nonsingular D = 1..4 modulus (either sign of determinant) and a
    vector with entries up to 10^6 in absolute value."""
    dim = draw(st.integers(1, 4))
    m = draw(square_matrices(dim, 9 if dim <= 2 else 4).filter(lambda m: m.det != 0))
    return m, tuple(draw(st.lists(st.integers(-(10**6), 10**6), min_size=dim, max_size=dim)))


class TestReduceMod:
    def test_zero(self):
        q, r = reduce_mod((0, 0), M1)
        assert q == (0, 0) and r == (0, 0)

    def test_identity_modulus(self, rng):
        for _ in range(20):
            f = (rng.randint(-50, 50), rng.randint(-50, 50))
            q, r = reduce_mod(f, IntMatrix.identity(2))
            assert q == f and r == (0, 0)

    def test_worked_value_against_fpd(self):
        f = (5, 3)
        q, r = reduce_mod(f, M1)
        fpd = enumerate_fpd(M1)
        assert r in fpd
        # congruent means f - r = M1 @ k for an integer k (Cramer check)
        diff = vec_sub(f, r)
        d = M1.det
        coords = M1.adj.apply(diff)
        assert all(x % d == 0 for x in coords)
        # and r is the only FPD element congruent to f
        congruent = [
            p for p in fpd if all(x % d == 0 for x in M1.adj.apply(vec_sub(f, p)))
        ]
        assert congruent == [r]

    def test_idempotent(self, rng):
        for _ in range(50):
            m = random_matrix(rng, 2, bound=7)
            f = (rng.randint(-99, 99), rng.randint(-99, 99))
            _, r = reduce_mod(f, m)
            q2, r2 = reduce_mod(r, m)
            assert q2 == (0, 0) and r2 == r

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            reduce_mod((1, 1), M([[1, 2], [2, 4]]))

    @settings(max_examples=300, deadline=None)
    @given(case=moduli_and_vectors())
    @example(case=(M([[-3]]), (10**6,)))
    @example(case=(M([[0, 1], [1, 0]]), (-(10**6), 10**6)))
    @example(case=(M([[2, 1], [1, -3]]), (-999_999, 7)))
    @example(case=(M([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]), (1, -1, 10**6, -(10**6))))
    def test_matches_rational_floor(self, case):
        m, f = case
        q, r = reduce_mod(f, m)
        assert q == tuple(math.floor(x) for x in rational_solve(m, f))
        assert vec_add(m.apply(q), r) == f
        assert reduce_mod(r, m) == ((0,) * len(f), r)


class TestEnumerateFpd:
    def test_identity(self):
        assert enumerate_fpd(IntMatrix.identity(2)) == [(0, 0)]

    def test_axis_box(self):
        pts = enumerate_fpd(IntMatrix.diag(2, 3))
        assert set(pts) == {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)}
        assert len(pts) == 6

    def test_shifted_fpd_quotient(self):
        # N(M1^{-1} R) for R = diag(4,4)
        pts = enumerate_fpd(M([[2, -1], [-2, 3]]))
        assert set(pts) == {(0, 0), (1, 0), (0, 1), (1, -1)}

    def test_cardinality_and_distinct(self, rng):
        for _ in range(30):
            m = random_matrix(rng, 2, bound=6)
            pts = enumerate_fpd(m)
            assert len(pts) == abs(m.det)
            assert len(set(pts)) == len(pts)

    def test_partition(self, rng):
        # every integer point in a box reduces to exactly one FPD element
        for _ in range(10):
            m = random_matrix(rng, 2, bound=5)
            if abs(m.det) > 50:
                continue
            fpd = set(enumerate_fpd(m))
            span = 3 * max(abs(x) for r in m.rows for x in r) + 1
            for f in itertools.product(range(-span, span, 7), repeat=2):
                _, r = reduce_mod(f, m)
                assert r in fpd

    def test_cap(self):
        # the sampler addresses every point of a 4 * 10^6-point FPD, with no cap
        sampler = FpdSampler(IntMatrix.diag(2000, 2000))
        assert sampler.point(0) == (0, 0)
        assert sampler.point(4 * 10**6 - 1) == (1999, 1999)

    def test_point_index_checked(self):
        sampler = FpdSampler(IntMatrix.diag(2, 3))
        assert {sampler.point(i) for i in range(6)} == set(enumerate_fpd(IntMatrix.diag(2, 3)))
        for index in (-1, 6):
            with pytest.raises(IndexError):
                sampler.point(index)

    def test_sampler_covers(self, rng):
        m = M([[3, 1], [2, 2]])
        sampler = FpdSampler(m)
        gen = random.Random(11)
        seen = {sampler.sample(gen) for _ in range(200)}
        assert seen == set(enumerate_fpd(m))


class TestShortestVector:
    def test_identity(self):
        lsq, w = shortest_vector(LatticeBasis(IntMatrix.identity(2)))
        assert lsq == 1
        assert w in {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_paper_values(self):
        assert shortest_vector(LatticeBasis(M([[22, -17], [17, 22]])))[0] == 773
        assert shortest_vector(LatticeBasis(M([[1, 0], [32, 881]])))[0] == 1009

    def test_witness_achieves(self, rng):
        for _ in range(40):
            m = random_matrix(rng, 2, bound=20)
            lsq, w = shortest_vector(LatticeBasis(m))
            assert vec_norm_sq(w) == lsq
            assert any(w)  # nonzero

    def test_oracle_equivalence_2d(self, rng):
        checked = 0
        for _ in range(40):
            m = random_matrix(rng, 2, bound=20)
            oracle = brute_shortest_sq_sound(m)
            if oracle is None:
                continue
            checked += 1
            assert shortest_vector(LatticeBasis(m))[0] == oracle
        assert checked >= 25

    def test_dim3_oracle(self, rng):
        checked = 0
        for _ in range(14):
            m = random_matrix(rng, 3, bound=4)
            lsq, w = shortest_vector(LatticeBasis(m))
            assert vec_norm_sq(w) == lsq
            oracle = brute_shortest_sq_sound(m)
            if oracle is not None:
                checked += 1
                assert lsq == oracle
        assert checked >= 8

    def test_dim4_oracle(self, rng):
        checked = 0
        for _ in range(20):
            m = random_matrix(rng, 4, bound=3)
            lsq, w = shortest_vector(LatticeBasis(m))
            assert vec_norm_sq(w) == lsq
            assert all(x % m.det == 0 for x in m.adj.apply(w))
            oracle = brute_shortest_sq_sound(m, skip_above=40_000)
            if oracle is not None:
                checked += 1
                assert lsq == oracle
        assert checked >= 8

    def test_zero_babai_leaf(self):
        # the search's first leaf for SVP is always c = 0, which is skipped
        cases = [
            (IntMatrix.identity(3), 1, (-1, 0, 0)),
            (IntMatrix.identity(4), 1, (-1, 0, 0, 0)),
            (IntMatrix.diag(2, 3, 5), 4, (-2, 0, 0)),
            (IntMatrix.diag(7, 1, 1, 1), 1, (0, -1, 0, 0)),
        ]
        for m, lsq, witness in cases:
            assert shortest_vector(LatticeBasis(m)) == (lsq, witness)
            assert brute_shortest_sq_sound(m) == lsq

    @pytest.mark.parametrize(
        "entry",
        [shortest_vector, lambda l: closest_vector(l, (0,) * 5)],
        ids=["shortest_vector", "closest_vector"],
    )
    def test_dim_cap(self, entry):
        # the cap is raised when the basis is built, before either search
        with pytest.raises(DimensionUnsupported):
            entry(LatticeBasis(IntMatrix.identity(5)))

    def test_witness_rule(self):
        # D <= 2: min(b, -b) of the first reduced column; D >= 3: the
        # lexicographically smallest shortest vector
        assert shortest_vector(LatticeBasis(M([[3]]))) == (9, (-3,))
        assert shortest_vector(LatticeBasis(M([[-3]]))) == (9, (-3,))
        assert shortest_vector(LatticeBasis(M([[0, 1], [1, 0]]))) == (1, (0, -1))
        assert shortest_vector(LatticeBasis(M([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))) == (1, (-1, 0, 0))

    def test_reduced_basis_conditions(self, rng):
        # small random bases, and the Hermite forms of bases with entries up
        # to 10^4, whose last column is as long as |det|
        for dim in (2, 3, 4):
            for k in range(60):
                m = random_matrix(rng, dim, bound=15 if k % 2 else 10**4)
                basis = m if k % 2 else hnf(m)
                red = LatticeBasis(basis).reduced
                cols = [red.column(j) for j in range(dim)]
                norms = [vec_norm_sq(b) for b in cols]
                assert norms == sorted(norms)
                for i, j in itertools.combinations(range(dim), 2):
                    assert 2 * abs(vec_dot(cols[i], cols[j])) <= norms[i]
                # the same lattice: equal index, and every column in L(basis)
                assert abs(red.det) == abs(basis.det)
                basis.left_quotient(red)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_hermite_form_searches_like_its_lattice(self, dim):
        # SVP and CVP answer for the lattice, whichever basis it comes in:
        # the skewed Hermite form of a basis with entries up to 10^4 gives
        # the same minimum, witness and closest vectors as the basis itself
        gen = random.Random(dim)
        for _ in range(6):
            m = random_matrix(gen, dim, bound=10**4)
            raw, skewed = LatticeBasis(m), LatticeBasis(hnf(m))
            assert shortest_vector(skewed) == shortest_vector(raw)
            for _ in range(3):
                t = tuple(Fraction(gen.randint(-(10**6), 10**6), gen.choice([1, 2, 3])) for _ in range(dim))
                assert closest_vector(skewed, t) == closest_vector(raw, t)


class TestClosestVector:
    def test_member_is_fixed_point(self, rng):
        for _ in range(20):
            m = random_matrix(rng, 2, bound=9)
            coeff = (rng.randint(-4, 4), rng.randint(-4, 4))
            v = m.apply(coeff)
            assert closest_vector(LatticeBasis(m), v) == v

    def test_documented_tie_break(self):
        assert closest_vector(LatticeBasis(IntMatrix.diag(2, 2)), (1, 0)) == (0, 0)

    def test_oracle(self, rng):
        for _ in range(30):
            m = random_matrix(rng, 2, bound=7)
            if abs(m.det) > 50:
                continue
            t = (rng.randint(-20, 20), rng.randint(-20, 20))
            got = closest_vector(LatticeBasis(m), t)
            best, winners = brute_closest_vectors(m, t)
            assert got == min(winners)
            assert vec_norm_sq(vec_sub(got, t)) == best

    @pytest.mark.parametrize("dim", [3, 4])
    def test_oracle_higher_dim(self, rng, dim):
        checked = 0
        for _ in range(30):
            m = random_matrix(rng, dim, bound=3)
            t = tuple(Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3])) for _ in range(dim))
            oracle = brute_closest_vectors(m, t, skip_above=5_000)
            if oracle is None:
                continue
            checked += 1
            best, winners = oracle
            got = closest_vector(LatticeBasis(m), t)
            assert got == min(winners)
            assert vec_norm_sq(vec_sub(got, t)) == best
        assert checked >= 10

    def test_zero_babai_leaf_ties(self):
        # targets whose rounding is the zero leaf, with and without ties
        half = Fraction(1, 2)
        for m in (IntMatrix.identity(3), IntMatrix.identity(4), IntMatrix.diag(2, 3, 5)):
            n = m.dim
            for t in ((0,) * n, (half,) * n, (-half,) + (0,) * (n - 1), (Fraction(2, 5),) * n):
                best, winners = brute_closest_vectors(m, t)
                got = closest_vector(LatticeBasis(m), t)
                assert got == min(winners)
                assert vec_norm_sq(vec_sub(got, t)) == best

    def test_no_reference_cycles(self):
        # the search keeps its state on one object per call, which no closure
        # or method of its own refers back to, and caches its integer form
        # on the basis object, so a call leaves nothing that only the cyclic
        # collector can free: CVP on thirds, SVP in D = 3 on fresh bases, and
        # a whole reconstruction on stage-2-style (thirds) remainders
        l = LatticeBasis(M([[22, -17], [17, 22]]))
        targets = [(Fraction(7 * i, 3), Fraction(-5 * i, 3)) for i in range(100)]
        gen = random.Random(3)
        bases = [LatticeBasis(random_matrix(gen, 3, bound=6)) for _ in range(100)]
        plan = build_plan(FIG3_MODULI, FIG3_GROUPING)
        inst = plan.final.instance
        f = (891008, 895360)
        noisy = [
            [tuple(x + Fraction(gen.randint(-20, 20), 3) for x in reduce_mod(f, m)[1]) for m in inst.moduli]
            for _ in range(100)
        ]
        rounds = [
            lambda i: closest_vector(l, targets[i]),
            lambda i: shortest_vector(bases[i]),
            lambda i: robust_reconstruct(inst, noisy[i]),
        ]
        for call in rounds:
            call(0)
            gc.collect()
            gc.disable()
            try:
                for i in range(100):
                    call(i)
                assert gc.collect() == 0
            finally:
                gc.enable()

    @settings(max_examples=80, deadline=None)
    @given(bases_and_targets())
    # ties: 3/2 is equidistant from 0 and 3 (a one-level search), (1, 0)
    # from (0, 0) and (2, 0), the cube center from eight corners, and the
    # D = 4 target from four lattice vectors
    @example((M([[-3]]), (Fraction(3, 2),)))
    @example((IntMatrix.diag(2, 2), (1, 0)))
    @example((IntMatrix.identity(3), (Fraction(1, 2),) * 3))
    @example((M([[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [1, 1, 1, 9]]), (Fraction(3, 2),) * 4))
    def test_matches_oracle(self, case):
        # the integer-scaled search against exhaustive CVP: the minimum and
        # the lexicographically smallest of the vectors that reach it
        m, t = case
        oracle = brute_closest_vectors(m, t, skip_above=5_000)
        assume(oracle is not None)
        best, winners = oracle
        got = closest_vector(LatticeBasis(m), t)
        assert vec_norm_sq(vec_sub(got, t)) == best
        assert got == min(winners)

    @settings(max_examples=120, deadline=None)
    @given(integer_targets_over_den())
    @example((IntMatrix.diag(2, 2), [2, 0], 2))
    @example((IntMatrix.identity(3), [1, 1, 1], 2))
    def test_integers_over_den_match_fractions(self, case):
        # integers over den are the target of their Fractions; Fraction
        # entries over den are scaled by both denominators
        m, nums, den = case
        l = LatticeBasis(m)
        expected = closest_vector(l, [Fraction(x, den) for x in nums])
        assert closest_vector(l, nums, den) == expected
        assert closest_vector(l, [Fraction(x, 3) for x in nums], den) == closest_vector(
            l, [Fraction(x, 3 * den) for x in nums]
        )

    @pytest.mark.parametrize("den", [0, -2])
    def test_denominator_below_one_rejected(self, den):
        with pytest.raises(ValueError, match="denominator of at least 1"):
            closest_vector(LatticeBasis(M1), (1, 2), den)

    def test_target_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="2-dimensional"):
            closest_vector(LatticeBasis(M1), (1, 2, 3))

    def test_rational_target(self):
        l = LatticeBasis(IntMatrix.diag(3, 3))
        t = (Fraction(4, 3), Fraction(-5, 3))
        got = closest_vector(l, t)
        best, winners = brute_closest_vectors(IntMatrix.diag(3, 3), t)
        assert got == min(winners)


def elementary(dim: int, i: int, j: int, k: int) -> IntMatrix:
    """The identity plus k at (i, j) for i != j, or with row i negated for
    i == j: an integer matrix of determinant +-1."""
    rows = [[int(r == c) for c in range(dim)] for r in range(dim)]
    rows[i][j] = -1 if i == j else k
    return M(rows)


@st.composite
def unimodular_targets(draw):
    """A D = 1..4 basis of Z^D, a product of up to eight elementary
    matrices, with integer numerators over a denominator in 1..6. At an
    even denominator, half the time each coordinate is a half-integer with
    even chance, so exact ties at the midpoint between two integers come
    up in one or several coordinates."""
    dim = draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    m = IntMatrix.identity(dim)
    for _ in range(draw(st.integers(0, 8))):
        m = m @ elementary(dim, draw(index), draw(index), draw(st.integers(-3, 3)))
    den = draw(st.integers(1, 6))
    halves = den % 2 == 0 and draw(st.booleans())
    nums = [
        den // 2 * (2 * draw(st.integers(-20, 20)) + 1)
        if halves and draw(st.booleans())
        else draw(st.integers(-60, 60))
        for _ in range(dim)
    ]
    return m, nums, den


class TestUnimodular:
    """A basis of |det| 1 spans Z^D, and CVP rounds each coordinate of the
    target, a half down, which is the search's lexicographic tie-break. The
    target is given as integers over ``den`` and as the same Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(unimodular_targets())
    @example((IntMatrix.identity(1), [1], 2))
    @example((IntMatrix.identity(1), [-1], 3))
    @example((M([[1, 1], [0, 1]]), [3, -3], 6))
    @example((M([[2, 1, 0], [1, 1, 0], [0, 0, -1]]), [2, -2, 6], 4))
    @example((M([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, -3], [0, 0, 0, 1]]), [1, 3, -5, 7], 2))
    def test_matches_the_search(self, case):
        m, nums, den = case
        l = LatticeBasis(m)
        assert abs(m.det) == 1
        b, inv, det, _, _, _ = form = l._form
        x = inv.apply(nums)  # B^{-1} t = x / (det * den), det = 1
        expected = lattice._enum_best(form, x, det * den, skip_zero=False)
        assert closest_vector(l, nums, den) == expected
        assert closest_vector(l, [Fraction(t, den) for t in nums]) == expected

    def test_never_searches(self, monkeypatch):
        bases = [
            IntMatrix.identity(1),
            M([[-1]]),
            M([[2, 1], [1, 1]]),
            M([[1, 3, 0], [0, 1, 0], [2, 6, -1]]),
            IntMatrix.identity(4) @ elementary(4, 0, 3, 5) @ elementary(4, 2, 1, -2),
        ]
        lattices = [LatticeBasis(m) for m in bases]
        for l in lattices:
            shortest_vector(l)  # an SVP at D >= 3 searches, once per basis
        searches = []
        search = lattice._enum_best

        def counted(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(lattice, "_enum_best", counted)
        half = Fraction(1, 2)
        for l in lattices:
            n = l.dim
            for t in ((0,) * n, (half,) * n, (-half,) * n, (Fraction(7, 3),) * n, (5,) * n):
                assert closest_vector(l, t) == tuple(math.ceil(x - half) for x in t)  # a half down
        assert searches == []


def gram_schmidt_sq(basis: IntMatrix) -> list[Fraction]:
    """Squared Gram-Schmidt lengths of the columns, in order, by exact
    rational projection."""
    ortho: list[list[Fraction]] = []
    for col in basis.transpose().rows:
        v = [Fraction(x) for x in col]
        for u in ortho:
            mu = Fraction(vec_dot(col, u)) / vec_dot(u, u)
            v = [a - mu * b for a, b in zip(v, u)]
        ortho.append(v)
    return [vec_dot(v, v) for v in ortho]


@st.composite
def certified_targets(draw):
    """A D = 2, 3 or 4 lattice, one of its points v, and a target v + o whose
    offset o has denominator 1..3 and lies strictly within half the shortest
    lattice vector: 4 |o|^2 < lambda_1^2. Offsets beyond half the shortest
    Gram-Schmidt length are included: there round-off can miss v, and the
    search must answer."""
    dim = draw(st.sampled_from([2, 3, 4]))
    m = draw(square_matrices(dim, 5 if dim == 2 else 3).filter(lambda m: m.det != 0))
    m = m.scale(draw(st.integers(1, 4)))
    den = draw(st.integers(1, 3))
    bound = shortest_vector(LatticeBasis(m))[0] * den * den  # 4 |numerators|^2 < bound
    r = math.isqrt(bound // 4)  # 4 r^2 <= bound: one axis at most reaches it
    nums = [draw(st.integers(-r, r)) for _ in range(dim)]
    assume(4 * vec_norm_sq(nums) < bound)
    if draw(st.booleans()):
        # push the last numerator outward as far as it stays inside, toward
        # the band between the two radii
        k = math.isqrt((bound - 4 * vec_norm_sq(nums[:-1]) - 1) // 4)
        nums[-1] = k if nums[-1] >= 0 else -k
    v = m.apply(draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)))
    return m, v, vec_add(v, [Fraction(x, den) for x in nums])


class TestCertificate:
    """CVP returns its round-off point when that point is strictly within
    lambda_1 / 2 of the target, half the shortest lattice vector. Exactly at
    half, two vectors can tie and the round-off point need not be the
    lexicographically smallest: the full search must run."""

    BOUNDARY_LATTICE = gcld(M([[5632, -4352], [4352, 5632]]), M([[12672, 9792], [-9792, 12672]]))
    # shortest squared Gram-Schmidt length 6 < lambda^2 = 8
    SKEWED = M([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
    # fig3's anchor modulus, lambda^2 = 773
    ANCHOR = M([[22, -17], [17, 22]])

    @pytest.mark.parametrize(
        "basis, target, expected",
        [
            (IntMatrix.identity(2), (Fraction(1, 2), 0), (0, 0)),
            (IntMatrix.diag(2, 2), (1, 0), (0, 0)),
            # tests/test_robust.py::TestGuaranteeBoundary's gcld lattice,
            # shortest vector (-64, 0), at half of it
            (BOUNDARY_LATTICE, (-32, 0), (-64, 0)),
            # half of the shortest vector (0, 2, -2), whose round-off point
            # (-2, 2, 0) is farther than either of the tied vectors
            (SKEWED, (0, 1, -1), (0, 0, 0)),
        ],
        ids=["Z2", "diag22", "guarantee-boundary", "skewed-3d"],
    )
    def test_tie_at_half_the_shortest_gram_schmidt_length(self, basis, target, expected):
        l = LatticeBasis(basis)
        got = closest_vector(l, target)
        best, winners = brute_closest_vectors(basis, target)
        # the target sits exactly at the round-off test's threshold, on a tie
        assert 4 * best == shortest_vector(l)[0]
        assert len(winners) >= 2
        assert got == min(winners) == expected
        if basis.dim == 2:
            # the D = 2 closed form scales its threshold by den^2; at
            # equality only the search may answer
            for den in (2, 3):
                assert closest_vector(l, [den * x for x in target], den) == expected

    @settings(max_examples=80, deadline=None)
    @given(certified_targets())
    # the skewed basis between the two radii: round-off lands on v, and
    # round-off misses v, so the search answers
    @example((SKEWED, (4, -2, 8), (3, Fraction(-3, 2), Fraction(17, 2))))
    @example((SKEWED, (0, 0, 0), (Fraction(-2, 3), Fraction(-2, 3), 1)))
    def test_inside_the_threshold_returns_the_lattice_point(self, case):
        m, v, target = case
        assert closest_vector(LatticeBasis(m), target) == v
        oracle = brute_closest_vectors(m, target, skip_above=5_000)
        assume(oracle is not None)
        assert oracle[1] == [v]

    def test_round_off_inside_lambda_skips_the_search(self, monkeypatch):
        """An offset beyond half the shortest Gram-Schmidt length but within
        lambda / 2, on which round-off lands: no search runs. At D = 2, on
        fig3's anchor lattice, the same holds for an offset strictly inside
        lambda / 2, given as integers and as integer numerators over
        den = 3, as the final stage passes them."""
        l = LatticeBasis(self.SKEWED)
        offset = (-1, Fraction(1, 2), Fraction(1, 2))
        assert min(gram_schmidt_sq(l.reduced)) <= 4 * vec_norm_sq(offset) < shortest_vector(l)[0]
        v = self.SKEWED.apply((1, -2, 3))
        anchor = LatticeBasis(self.ANCHOR)
        assert shortest_vector(anchor)[0] == 773
        w = self.ANCHOR.apply((1, -2))
        searches = []
        search = lattice._enum_best

        def counted(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(lattice, "_enum_best", counted)
        assert closest_vector(l, vec_add(v, offset)) == v
        for numerators, den in (((9, 8), 1), ((28, -29), 3)):
            assert 4 * vec_norm_sq(numerators) < 773 * den * den
            assert closest_vector(anchor, [den * a + o for a, o in zip(w, numerators)], den) == w
        assert searches == []

    def test_skewed_basis_below_lambda(self, rng):
        """Here the shortest Gram-Schmidt length is below lambda, so targets
        between half of each are unique-closest, yet round-off on the reduced
        basis can miss them: whatever it misses, the full search must find."""
        m = self.SKEWED
        l = LatticeBasis(m)
        g = min(gram_schmidt_sq(l.reduced))
        lambda_sq = shortest_vector(l)[0]
        assert (g, lambda_sq) == (6, 8)
        in_band = 0
        for _ in range(300):
            t = tuple(Fraction(rng.randint(-24, 24), rng.choice([1, 2, 3, 4])) for _ in range(3))
            best, winners = brute_closest_vectors(m, t)
            got = closest_vector(l, t)
            assert got == min(winners)
            assert vec_norm_sq(vec_sub(got, t)) == best
            in_band += g <= 4 * best < lambda_sq
        assert in_band > 0


class TestRegions:
    def region(self):
        return FpdUnionRegion(anchor=M1, quotient=M([[2, -1], [-2, 3]]))

    def test_zero_in(self):
        assert self.region().contains((0, 0))

    def test_paper_membership(self):
        reg = self.region()
        assert reg.contains((2, 0))
        assert not reg.contains((1, 0))

    def test_decomposition_members(self, rng):
        reg = self.region()
        fpd = enumerate_fpd(M1)
        for k in enumerate_fpd(reg.quotient):
            for r in fpd:
                f = tuple(a + b for a, b in zip(M1.apply(k), r))
                assert reg.contains(f)

    def test_disjoint_copies(self):
        reg = self.region()
        fpd = enumerate_fpd(M1)
        pieces = []
        for k in enumerate_fpd(reg.quotient):
            pieces.append({tuple(a + b for a, b in zip(M1.apply(k), r)) for r in fpd})
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert not (pieces[i] & pieces[j])

    def test_region_contains_matches_membership(self, rng):
        reg = self.region()
        shifts = set(enumerate_fpd(reg.quotient))
        for f in itertools.product(range(-8, 9), repeat=2):
            assert reg.contains(f) == (reduce_mod(f, M1)[0] in shifts)

    def test_shift_index_checked(self):
        reg = FpdUnionRegion(anchor=M1, quotient=IntMatrix.diag(1, 3))
        assert len({reg.shift(i) for i in range(3)}) == 3
        for index in (-1, 3):
            with pytest.raises(IndexError):
                reg.shift(index)

    def test_size_and_sampling(self):
        reg = self.region()
        assert reg.size == 16
        gen = random.Random(3)
        pts = {reg.sample(gen) for _ in range(400)}
        assert all(reg.contains(p) for p in pts)
        assert len(pts) == 16  # every point reachable

    def test_nearest_region_point(self):
        reg = self.region()
        target = reg.centroid()
        p = nearest_region_point(reg, target)
        assert reg.contains(p)
        # no region point is strictly closer
        dist = sum((Fraction(a) - b) ** 2 for a, b in zip(p, target))
        for f in itertools.product(range(-10, 11), repeat=2):
            if reg.contains(f):
                other = sum((Fraction(a) - b) ** 2 for a, b in zip(f, target))
                assert other >= dist


@st.composite
def region_matrices(draw):
    """(anchor, quotient): 2D or 3D, |det quotient| <= 300, small anchor."""
    dim = draw(st.sampled_from((2, 3)))
    quotient = draw(square_matrices(dim, 12 if dim == 2 else 4))
    anchor = draw(square_matrices(dim, 2 if dim == 2 else 1))
    assume(0 < abs(quotient.det) <= 300 and anchor.det != 0)
    return anchor, quotient


class TestRegionGeometry:
    """Closed-form region geometry against enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(region_matrices())
    # non-cyclic quotients: more than one SNF digit above 1
    @example((M1, IntMatrix.diag(4, 6)))
    @example((M([[1, 1, 0], [0, 2, 0], [1, 0, 1]]), M([[2, 2, 0], [0, 4, 2], [2, 0, 6]])))
    def test_closed_form_matches_enumeration(self, matrices):
        anchor, quotient = matrices
        reg = FpdUnionRegion(anchor=anchor, quotient=quotient)
        shifts = brute_fpd(quotient)
        count = len(shifts)
        assert reg.size == count * len(brute_fpd(anchor))

        mean = [Fraction(sum(k[i] for k in shifts), count) + Fraction(1, 2) for i in range(anchor.dim)]
        assert reg.centroid() == anchor.apply(mean)

        # shift i is the i-th point of N(quotient) in lexicographic SNF-digit
        # order, the order the digits of a uniform draw come in
        listed = enumerate_fpd(quotient)
        dec = snf(quotient)
        uinv = dec.u.adj if dec.u.det == 1 else -dec.u.adj
        digits = itertools.product(*(range(x) for x in dec.diagonal()))
        for i, digit in enumerate(digits):
            assert reg.shift(i) == listed[i] == reduce_mod(uinv.apply(digit), quotient)[1]
        assert set(listed) == shifts

        # membership on every region point and its axis neighbours
        members = {vec_add(anchor.apply(k), r) for k in shifts for r in brute_fpd(anchor)}
        steps = [tuple(s if j == i else 0 for j in range(anchor.dim)) for i in range(anchor.dim) for s in (1, -1)]
        candidates = members | {vec_add(f, e) for f in members for e in steps}
        for f in candidates:
            assert reg.contains(f) == (f in members)


def brute_nearest_region_point(reg: FpdUnionRegion, target, radius: int):
    """Nearest region point by scanning the box of half-width ``radius``
    around the target with ``reg.contains``; ties go to the lexicographically
    smallest point. Exact when some region point lies within ``radius``."""
    ranges = [range(math.ceil(t - radius), math.floor(t + radius) + 1) for t in target]
    return min(
        (vec_norm_sq(vec_sub(p, target)), p) for p in itertools.product(*ranges) if reg.contains(p)
    )[1]


def members(reg: FpdUnionRegion) -> set:
    """Every region point, from the brute-force FPDs of both matrices."""
    return {vec_add(reg.anchor.apply(k), r) for k in brute_fpd(reg.quotient) for r in brute_fpd(reg.anchor)}


class TestNearestRegionPoint:
    @settings(max_examples=60, deadline=None)
    @given(
        region_matrices(),
        st.lists(st.tuples(st.integers(-8, 8), st.sampled_from((1, 2, 3))), min_size=3, max_size=3),
    )
    # ties between two region points at a half-integer target
    @example((M([[-2, 1], [-1, -1]]), M([[11, 0], [0, -7]])), [(-7, 2), (2, 1), (0, 1)])
    @example((M([[1, 1], [-2, 0]]), M([[8, 10], [-8, 2]])), [(-1, 2), (-5, 2), (0, 1)])
    def test_matches_box_scan(self, matrices, offset):
        anchor, quotient = matrices
        reg = FpdUnionRegion(anchor=anchor, quotient=quotient)
        target = tuple(math.floor(c) + Fraction(*o) for c, o in zip(reg.centroid(), offset))
        # the points anchor @ k, k in N(quotient), lie in the region; the
        # nearest of them bounds the distance of the answer
        corners = [anchor.apply(k) for k in brute_fpd(quotient)]
        radius = math.isqrt(math.ceil(min(vec_norm_sq(vec_sub(p, target)) for p in corners))) + 1
        assert nearest_region_point(reg, target) == brute_nearest_region_point(reg, target, radius)

    def test_far_target(self):
        reg = FpdUnionRegion(anchor=M1, quotient=M([[2, -1], [-2, 3]]))
        target = (Fraction(111, 2), -20)  # 55.5 from the nearest region point
        points = members(reg)
        assert min(vec_norm_sq(vec_sub(p, target)) for p in points) >= 50**2
        start = time.process_time()
        got = nearest_region_point(reg, target)
        assert time.process_time() - start < 1
        assert got == min(points, key=lambda p: (vec_norm_sq(vec_sub(p, target)), p))

    def test_dim4(self):
        anchor = M([[1, 1, 0, 0], [0, 2, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1]])
        quotient = M([[3, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]])
        reg = FpdUnionRegion(anchor=anchor, quotient=quotient)
        target = vec_add(reg.centroid(), (Fraction(3, 2), -2, Fraction(1, 3), 1))
        points = members(reg)
        assert len(points) == reg.size
        start = time.process_time()
        got = nearest_region_point(reg, target)
        assert time.process_time() - start < 1
        assert got == min(points, key=lambda p: (vec_norm_sq(vec_sub(p, target)), p))
