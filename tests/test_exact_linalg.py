import hashlib
import itertools
import math
import pickle
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from mdcrt.crt_core import gcld, is_coprime, lcrm
from mdcrt.errors import DimensionMismatch, RankDeficient, SingularMatrix
from mdcrt.exact_linalg import (
    IntMatrix,
    _bezout,
    _mix,
    adjugate,
    bareiss,
    det,
    hnf,
    parse_int_array,
    parse_matrix,
    parse_vector,
    snf,
    vec_add,
    vec_sub,
)
from mdcrt.lattice import reduce_mod
from conftest import generated_lattice_det, random_matrix, random_unimodular

M = IntMatrix.from_rows


def small_square(dim):
    return st.lists(
        st.lists(st.integers(-9, 9), min_size=dim, max_size=dim),
        min_size=dim,
        max_size=dim,
    ).map(M)


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(2)) == 1

    def test_cofactor_2x2(self):
        assert det(M([[3, 1], [2, 2]])) == 4

    def test_rotation_like(self):
        assert det(M([[22, -17], [17, 22]])) == 773

    def test_bareiss_matches_cofactor(self, rng):
        # 4x4 goes through Bareiss; compare against recursive expansion
        def expand(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0]
            total = 0
            for j in range(n):
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                term = rows[0][j] * expand(minor)
                total += term if j % 2 == 0 else -term
            return total

        for _ in range(25):
            m = random_matrix(rng, 4, bound=6, nonsingular=False)
            assert det(m) == expand([list(r) for r in m.rows])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            det(M([[1, 2, 3], [4, 5, 6]]))

    def test_bareiss_sign_follows_the_row_swap(self):
        # a zero first pivot: one row swap, so sign -1 and det -1
        p = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        a = [row[:] for row in p]
        assert bareiss(a) == -1
        assert a[3][3] == 1
        assert det(M(p)) == -1

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 1, 1]],  # no pivot in column 0
            [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 1, 0]],  # last minor 0
        ],
        ids=["zero-column", "dependent-rows"],
    )
    def test_bareiss_singular(self, rows):
        assert bareiss([row[:] for row in rows]) == 0
        assert det(M(rows)) == 0


class TestHash:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(small_square))
    def test_equal_rows_hash_equal(self, m):
        copy = M([list(r) for r in m.rows])
        assert copy is not m and copy == m
        assert hash(copy) == hash(m) == hash(m.rows)

    def test_hash_is_stable_and_survives_pickle(self):
        m = M([[22, -17], [17, 22]])
        first = hash(m)
        assert hash(m) == first and m._hash == first
        for pickled in (pickle.dumps(m), pickle.dumps(M([[22, -17], [17, 22]]))):
            back = pickle.loads(pickled)
            assert back == m and hash(back) == first
        assert {m: 1}[pickle.loads(pickle.dumps(m))] == 1


class TestLeftQuotient:
    def test_exact_quotient(self, rng):
        for _ in range(40):
            dim = rng.choice([2, 3])
            a, q = random_matrix(rng, dim, bound=5), random_matrix(rng, dim, bound=5)
            assert a.left_quotient(a @ q) == q
            assert a.divides_left(a @ q)

    def test_non_multiple_rejected(self):
        a = M([[3, 1], [2, 2]])
        with pytest.raises(ValueError, match="not a right multiple"):
            a.left_quotient(IntMatrix.identity(2))
        assert not a.divides_left(IntMatrix.identity(2))

    def test_singular_divisor_rejected(self):
        with pytest.raises(SingularMatrix):
            M([[1, 2], [2, 4]]).left_quotient(IntMatrix.identity(2))


class TestAdjugate:
    def test_identity(self):
        assert adjugate(IntMatrix.identity(2)) == IntMatrix.identity(2)

    def test_hand_value(self):
        assert adjugate(M([[3, 1], [2, 2]])) == M([[2, -1], [-2, 3]])

    @pytest.mark.parametrize("dim", [3, 4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_defining_identity(self, dim, data):
        m = data.draw(small_square(dim))
        d = det(m)
        prod = m @ adjugate(m)
        assert prod == IntMatrix.diag(*[d] * dim)


class TestSnf:
    def test_identity(self):
        dec = snf(IntMatrix.identity(2))
        assert dec.lam == IntMatrix.identity(2)

    def test_diag_4_6(self):
        dec = snf(M([[4, 0], [0, 6]]))
        assert dec.lam == IntMatrix.diag(2, 12)
        assert dec.u @ M([[4, 0], [0, 6]]) @ dec.v == dec.lam
        assert abs(dec.u.det) == 1 and abs(dec.v.det) == 1

    def test_rectangular_coprime_block(self):
        # stacked pair from the shifted-FPD worked example reduces to (I 0)
        block = M([[3, 1, 2, 2], [2, 2, 1, 3]])
        dec = snf(block)
        assert dec.diagonal() == (1, 1)
        assert dec.u @ block @ dec.v == dec.lam
        assert abs(dec.v.det) == 1

    def test_random_invariants(self, rng):
        for _ in range(120):
            dim = rng.choice([2, 3])
            m = random_matrix(rng, dim)
            dec = snf(m)
            assert dec.u @ m @ dec.v == dec.lam
            assert abs(dec.u.det) == 1
            assert abs(dec.v.det) == 1
            diag = dec.diagonal()
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if b:
                    assert b % a == 0


def _entries(rng, nrows, ncols, bound=300):
    return M([[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)])


class TestSnfBoundedCoefficients:
    """Stacked D x 2D blocks are where repeated quotient-and-swap blew up to
    million-bit entries; the Bezout elimination keeps u and v small."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("width", [1, 2], ids=["square", "stacked"])
    def test_invariants_and_size(self, dim, width):
        rng = random.Random(1000 * dim + width)
        for _ in range(8):
            m = _entries(rng, dim, width * dim)
            dec = snf(m)
            assert dec.u @ m @ dec.v == dec.lam
            assert abs(dec.u.det) == 1 and abs(dec.v.det) == 1
            assert all(x == 0 for i, r in enumerate(dec.lam.rows) for j, x in enumerate(r) if i != j)
            diag = dec.diagonal()
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a else b == 0
            assert all(abs(x) < 2**1024 for w in (dec.u, dec.v) for r in w.rows for x in r)

    def test_fig3_stacked_block(self):
        # moduli 0-2 of configs/fig3.cfg as one block (M_0 -M_1 0; M_0 0 -M_2)
        m = M([[22, -17, -335, 272, 0, 0], [17, 22, -294, -352, 0, 0],
               [22, -17, 0, 0, -352, 250], [17, 22, 0, 0, -272, -369]])
        dec = snf(m)
        assert dec.u @ m @ dec.v == dec.lam
        assert dec.diagonal() == (1, 1, 773, 773)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_pairs_agree_with_hnf_routes(self, dim):
        # the SNF routes: the p-parts of the kernel vectors (p; q) of (a -b)
        # give the intersection basis a @ P, and coprimality reads the SNF of
        # (a b); lcrm and gcld go through hnf
        rng = random.Random(dim)
        for k in range(6):
            a, b = _entries(rng, dim, dim), _entries(rng, dim, dim)
            if k % 2:  # a common left factor, so that some pairs are not coprime
                g = random_matrix(rng, dim, bound=3)
                a, b = g @ a, g @ b
            if a.det == 0 or b.det == 0:
                continue
            v = snf(a.hstack(-b)).v
            p = IntMatrix.from_columns([v.column(j)[:dim] for j in range(dim, 2 * dim)])
            assert lcrm(a, b) == hnf(a @ p)
            assert is_coprime(a, b) == (abs(gcld(a, b).det) == 1)


class TestHnf:
    def test_identity(self):
        assert hnf(IntMatrix.identity(2)) == IntMatrix.identity(2)

    def test_prime_column_form_is_fixed(self):
        for i in (0, 3, 970):
            n = M([[1, 0], [i, 3257]])
            assert hnf(n) == n

    def test_hand_reduction(self):
        m = M([[2, 4], [1, 3]])
        h = hnf(m)
        assert h == M([[2, 0], [0, 1]])
        u = h.left_quotient(m)
        assert h @ u == m
        assert abs(u.det) == 1

    def test_convention(self, rng):
        """H has the documented shape and spans the input's lattice, for
        square, D x 2D and D x 3D input with small and 10^9-sized entries,
        the first pivot-row entry zero or negative."""
        for dim, width, bound in itertools.product((2, 3, 4), (1, 2, 3), (9, 10**9)):
            checked = 0
            while checked < 20:
                cols = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim * width)]
                for col in rng.sample(cols, len(cols) // 2):
                    col[rng.randrange(dim)] = 0
                cols[0][0] = rng.choice([0, -abs(cols[0][0]) or -1])
                lattice_det = generated_lattice_det(cols, dim)
                if lattice_det == 0:
                    continue
                checked += 1
                block = IntMatrix.from_columns(cols)
                h = hnf(block)
                for i in range(dim):
                    assert h.rows[i][i] > 0
                    for j in range(dim):
                        if j > i:
                            assert h.rows[i][j] == 0
                        elif j < i:
                            assert 0 <= h.rows[i][j] < h.rows[i][i]
                u = h.left_quotient(block)  # ValueError unless integral
                if width == 1:
                    assert abs(u.det) == 1
                else:
                    assert abs(h.det) == lattice_det

    def test_lattice_invariance(self, rng):
        for _ in range(60):
            dim = rng.choice([2, 3])
            m = random_matrix(rng, dim)
            w = random_unimodular(rng, dim)
            assert hnf(m) == hnf(m @ w)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            hnf(M([[1, 2], [2, 4]]))

    def test_block_reduction(self):
        g = hnf(M([[2, 0, 2, 0], [0, 2, 0, 2]]))
        assert g == IntMatrix.diag(2, 2)

    def test_rank_deficient_block_rejected(self):
        with pytest.raises(RankDeficient):
            hnf(M([[1, 2, 3], [2, 4, 6]]))


class TestBezoutStep:
    """The one 2 x 2 step that ``hnf`` and ``snf`` eliminate with. Only
    ``hnf`` reaches a zero pivot (``snf`` pivots on a nonzero minimum), and
    neither calls it with x = 0."""

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
    @example(0, 7)
    @example(0, -7)
    @example(-4, 6)
    @example(-3, 9)
    @example(5, -10)
    @example(-6, -4)
    def test_step_is_unimodular_and_clears_x(self, pivot, x):
        s, c, p, q = _bezout(pivot, x)
        assert s * q - c * p in (1, -1)
        assert c or s == 1  # _mix leaves the pivot row as it is only then
        rows = [[pivot, 1, 0], [x, 0, 1]]
        _mix(rows, 0, 1, s, c, p, q)
        assert rows == [[s * pivot + c * x, s, c], [0, p, q]]
        assert abs(rows[0][0]) == math.gcd(pivot, x)


# sha256 of repr(_pinned_forms()), taken while hnf ran its own extended-gcd
# update and snf its own copy of the step; never recompute it from the code
# under test
PINNED_FORMS_SHA256 = "007c637fe4cc5c47a701a1518afeb09db7935285e643e257c91d25ae4ce022f3"


def _pinned_forms() -> list:
    """``hnf``'s H (or its error) and ``snf``'s (u, v, lam) on 400 seeded
    D x K blocks, D 1-4, K D to 4D, entries +-50; some have a row twice
    another (singular or rank-deficient) and some are mostly zeros, so that
    ``hnf`` meets zero pivots."""
    rng = random.Random(20250809)
    out = []
    for _ in range(400):
        d = rng.randint(1, 4)
        w = rng.randint(d, 4 * d)
        kind = rng.random()
        if kind < 0.2:
            rows = [[rng.choice((0, 0, 0, rng.randint(-50, 50))) for _ in range(w)] for _ in range(d)]
        else:
            rows = [[rng.randint(-50, 50) for _ in range(w)] for _ in range(d)]
        if d > 1 and kind > 0.85:
            rows[-1] = [2 * x for x in rows[0]]
        m = M(rows)
        try:
            h = hnf(m).rows
        except (SingularMatrix, RankDeficient) as e:
            h = type(e).__name__
        dec = snf(m)
        out.append((m.rows, h, dec.u.rows, dec.v.rows, dec.lam.rows))
    return out


class TestPinnedForms:
    """Output pins, beside the invariant tests above: H is canonical, but
    SNF's u and v are not. They are what ``mdcrt snf`` prints, and they set
    ``FpdSampler``'s point order, on which the per-trial goldens rest, so
    any change to the elimination's step sequence shows here."""

    def test_hnf_and_snf_outputs_are_pinned(self):
        out = _pinned_forms()
        assert sum(isinstance(h, str) for _, h, *_ in out) > 20
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == PINNED_FORMS_SHA256


BLOCK = M([[3, 1, -2, -2], [2, 2, -1, -3]])


class TestLengthChecks:
    """Every kernel that maps over two sequences rejects unequal lengths
    instead of stopping at the shorter one."""

    @pytest.mark.parametrize("short", [True, False], ids=["short", "long"])
    @pytest.mark.parametrize(
        "kernel, length, error",
        [
            (lambda v: reduce_mod(v, M([[3, 1], [2, 2]])), 2, DimensionMismatch),
            (lambda v: M([[3, 1], [2, 2]]).apply(v), 2, DimensionMismatch),
            (lambda v: BLOCK.apply(v), 4, DimensionMismatch),
            (lambda v: vec_add((1, 2, 3), v), 3, ValueError),
            (lambda v: vec_add(v, (1, 2, 3)), 3, ValueError),
            (lambda v: vec_sub((1, 2, 3), v), 3, ValueError),
            (lambda v: vec_sub(v, (1, 2, 3)), 3, ValueError),
        ],
        ids=["reduce_mod", "apply", "apply_block", "add_left", "add_right", "sub_left", "sub_right"],
    )
    def test_wrong_length_raises(self, kernel, length, error, short):
        v = tuple(range(1, length)) if short else tuple(range(1, length + 2))
        with pytest.raises(error):
            kernel(v)


class TestTextForm:
    def test_round_trip(self):
        m = M([[3, 1], [2, -2]])
        assert parse_matrix(str(m)) == m

    def test_malformed_names_offset(self):
        with pytest.raises(ValueError, match="offset"):
            parse_matrix("[[3,1],[2,")

    def test_vector_round_trip(self):
        assert parse_vector("[5,-3]") == (5, -3)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix("[[1,2],[3]]")

    @pytest.mark.parametrize("entry", [1.5, True, "1"])
    def test_constructors_do_not_coerce(self, entry):
        for build in (M, IntMatrix.from_columns):
            with pytest.raises(ValueError, match="non-integer entry"):
                build([[entry, 0], [0, 1]])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_columns([[1, 2], [3]])

    @pytest.mark.parametrize("text", ["[[1.5,0],[0,1]]", "[[False,0],[0,1]]"])
    def test_non_integer_matrix_literal_rejected(self, text):
        with pytest.raises(ValueError, match="^matrix must be a list of integer rows, found "):
            parse_matrix(text)

    @pytest.mark.parametrize("text", ["[True,0]", "[1.5,0]", "[[1],[2]]", "7"])
    def test_non_integer_vector_literal_rejected(self, text):
        with pytest.raises(ValueError, match="flat integer list"):
            parse_vector(text)

    @pytest.mark.parametrize(
        "text",
        [
            "foo",
            "{[1]}",
            # too deep for Python's parser: on CPython 3.11 ast.literal_eval
            # raises RecursionError on the first and MemoryError on the others
            pytest.param("[" + "-" * 5000 + "1]", id="5000-minus"),
            pytest.param("[" + "-" * 20000 + "1]", id="20000-minus"),
            pytest.param("[" + "not " * 100000 + "1]", id="100000-not"),
        ],
    )
    def test_vector_non_literal_names_text(self, text):
        with pytest.raises(ValueError, match=r"^malformed vector literal \(offset 0\): "):
            parse_vector(text)

    @pytest.mark.parametrize(
        "text, depth, expected",
        [("7", 0, 7), ("[]", 1, ()), ("[[1,-2],(3,4)]", 2, ((1, -2), (3, 4))), ("[[[0]]]", 3, (((0,),),))],
    )
    def test_int_array_depths(self, text, depth, expected):
        assert parse_int_array(text, depth, "value", "ints") == expected

    @pytest.mark.parametrize(
        "text, found", [("[[1],[[2]]]", "[2]"), ("[1,[2]]", "1"), ("[[1],2]", "2"), ("[[False]]", "False")]
    )
    def test_int_array_names_the_misplaced_value(self, text, found):
        with pytest.raises(ValueError, match=rf"^'x' must be a matrix, found {re.escape(found)}$"):
            parse_int_array(text, 2, "'x'", "a matrix")
