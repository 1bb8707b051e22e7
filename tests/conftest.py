"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own normal-form and
lattice code paths: they work by exhaustive enumeration and classical
integer row reduction, so they can certify the fast implementations.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import strategies as st

from mdcrt.drange import max_coprime_set
from mdcrt.errors import SingularMatrix
from mdcrt.exact_linalg import IntMatrix
from mdcrt.lattice import FpdSampler


# ---------------------------------------------------------------------------
# random instances


def random_matrix(rng: random.Random, dim: int, bound: int = 9, nonsingular: bool = True) -> IntMatrix:
    while True:
        m = IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)]
        )
        if not nonsingular or m.det != 0:
            return m


def random_unimodular(rng: random.Random, dim: int, steps: int = 8) -> IntMatrix:
    """Product of elementary column operations applied to the identity."""
    cols = [list(c) for c in zip(*IntMatrix.identity(dim).rows)]
    for _ in range(steps):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            if rng.random() < 0.5:
                cols[i] = [-x for x in cols[i]]
            continue
        q = rng.randint(-3, 3)
        cols[j] = [a + q * b for a, b in zip(cols[j], cols[i])]
    return IntMatrix.from_rows(list(zip(*cols)))


def square_matrices(dim: int, bound: int):
    """Hypothesis strategy: dim x dim integer matrices with entries in [-bound, bound]."""
    row = st.lists(st.integers(-bound, bound), min_size=dim, max_size=dim)
    return st.lists(row, min_size=dim, max_size=dim).map(IntMatrix.from_rows)


# configs/fig3.cfg: six moduli in two groups of three sharing the left
# factors [[22,-17],[17,22]] and [[22,17],[-17,22]], and its two-stage grouping
FIG3_MODULI = tuple(
    IntMatrix.from_rows(m)
    for m in (
        [[22, -17], [17, 22]], [[335, -272], [294, 352]], [[352, -250], [272, 369]],
        [[22, 17], [-17, 22]], [[545, 408], [-386, 528]], [[528, 430], [-408, 511]],
    )
)
FIG3_GROUPING = [[[0, 1, 2], [3, 4, 5]]]

# configs/fig2_nondiag.cfg: four moduli over the base [[1,0],[32,881]] and
# its two-stage grouping, the one shipped plan with a singleton group
FIG2_NONDIAG_MODULI = tuple(
    IntMatrix.from_rows(m)
    for m in (
        [[30, 0], [960, 26430]], [[70, 0], [11050, 61670]],
        [[105, 15], [3360, 92985]], [[462, 42], [14784, 408366]],
    )
)
FIG2_NONDIAG_GROUPING = [[[0, 1, 2], [3]]]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)


# ---------------------------------------------------------------------------
# oracle: triangular accumulation of a generated lattice (classical xgcd
# elimination, no library code)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y

def lattice_rows_from_generators(vectors, dim: int) -> list[list[int]]:
    """Row-style triangular basis of the lattice generated by the vectors."""
    basis: list[list[int] | None] = [None] * dim
    def insert(vec):
        vec = list(vec)
        for j in range(dim):
            if vec[j] == 0:
                continue
            if basis[j] is None:
                basis[j] = vec
                return
            a, b = basis[j][j], vec[j]
            g, x, y = _xgcd(a, b)
            new_row = [x * p + y * q for p, q in zip(basis[j], vec)]
            vec = [(a // g) * q - (b // g) * p for p, q in zip(basis[j], vec)]
            basis[j] = new_row
        return
    for v in vectors:
        insert(v)
    return [row for row in basis if row is not None]


def generated_lattice_det(vectors, dim: int) -> int:
    rows = lattice_rows_from_generators(vectors, dim)
    if len(rows) < dim:
        return 0
    det = 1
    for j in range(dim):
        det *= rows[j][j]
    return abs(det)


def brute_intersection_det(a: IntMatrix, b: IntMatrix) -> int:
    """|det| of L(a) meet L(b), by scanning coefficient vectors of a.

    The intersection contains det(b) * L(a), so coefficients in
    [-|det b|, |det b|] generate it.
    """
    d = a.dim
    bound = abs(b.det)
    members = []
    rng_range = range(-bound, bound + 1)
    import itertools

    for coeff in itertools.product(rng_range, repeat=d):
        if all(c == 0 for c in coeff):
            continue
        v = a.apply(coeff)
        if _in_lattice(b, v):
            members.append(v)
    return generated_lattice_det(members, d)


def _in_lattice(m: IntMatrix, v) -> bool:
    det = m.det
    coords = m.adj.apply(v)
    return all(x % det == 0 for x in coords)


# ---------------------------------------------------------------------------
# oracle: exhaustive CVP within a provably sufficient coefficient box


def brute_closest_vectors(
    basis: IntMatrix, target, skip_above: int | None = None
) -> tuple[Fraction, list[tuple[int, ...]]] | None:
    """All closest lattice vectors to the target, by exhausting a coefficient
    box that provably contains every candidate at least as close as the
    rounded point ``B c0``, ``c0 = round(B^{-1} t)``.

    Returns None when ``skip_above`` is given and the box holds more points.
    """
    import itertools
    import math

    t = [Fraction(x) for x in target]
    det = basis.det
    c0 = [math.floor(Fraction(x, det) + Fraction(1, 2)) for x in basis.adj.apply(t)]
    r_sq = sum((Fraction(a) - b) ** 2 for a, b in zip(basis.apply(c0), t))
    # ||B c - t|| <= r  implies  ||B (c - c0)|| <= 2 r, so by Cauchy-Schwarz
    # |c_i - c0_i| <= ||adj row i|| * 2 r / |det|
    bounds = [
        (math.isqrt(math.ceil(4 * r_sq * sum(x * x for x in row))) + 1) // abs(det) + 1
        for row in basis.adj.rows
    ]
    if skip_above is not None and math.prod(2 * k + 1 for k in bounds) > skip_above:
        return None
    best = None
    winners: list[tuple[int, ...]] = []
    for offset in itertools.product(*(range(-k, k + 1) for k in bounds)):
        v = basis.apply([a + b for a, b in zip(c0, offset)])
        dist = sum((Fraction(a) - b) ** 2 for a, b in zip(v, t))
        if best is None or dist < best:
            best, winners = dist, [v]
        elif dist == best:
            winners.append(v)
    return best, winners


def brute_shortest_sq_sound(basis: IntMatrix, skip_above: int = 500_000) -> int | None:
    """Exhaustive SVP with a provably sufficient coefficient box.

    Any vector no longer than the shortest basis column has coefficients
    bounded through the adjugate; returns None when that box is too large
    to scan.
    """
    import itertools
    import math

    d = basis.dim
    det = abs(basis.det)
    col_norm = min(
        math.isqrt(sum(x * x for x in basis.column(j))) + 1 for j in range(d)
    )
    bounds = [
        (sum(abs(x) for x in basis.adj.rows[i]) * col_norm) // det + 1 for i in range(d)
    ]
    size = 1
    for k in bounds:
        size *= 2 * k + 1
    if size > skip_above:
        return None
    best = None
    for coeff in itertools.product(*(range(-k, k + 1) for k in bounds)):
        if all(c == 0 for c in coeff):
            continue
        n = sum(x * x for x in basis.apply(coeff))
        if best is None or n < best:
            best = n
    return best


# ---------------------------------------------------------------------------
# oracle: all common left divisors of a 2x2 pair, via HNF-form enumeration


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def brute_common_left_divisors(a: IntMatrix, b: IntMatrix) -> list[IntMatrix]:
    """Every cld of two 2x2 matrices, one representative per column lattice."""
    import math

    assert a.dim == 2
    g = math.gcd(abs(a.det), abs(b.det))
    out = []
    for d in _divisors(g):
        for p in _divisors(d):
            q = d // p
            for c in range(q):
                h = IntMatrix.from_rows([[p, 0], [c, q]])
                if _left_divides(h, a) and _left_divides(h, b):
                    out.append(h)
    return out


def _left_divides(g: IntMatrix, m: IntMatrix) -> bool:
    det = g.det
    prod = g.adj @ m
    return all(x % det == 0 for r in prod.rows for x in r)


# ---------------------------------------------------------------------------
# oracle: exact rational solve by Gauss-Jordan elimination (no adjugate)


def rational_solve(m: IntMatrix, f) -> list[Fraction]:
    """The rational x with ``m x = f`` for a nonsingular square m."""
    n = len(m.rows)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(m.rows, f, strict=True)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [row[n] for row in a]


# ---------------------------------------------------------------------------
# oracle: fundamental parallelepiped by scanning its bounding box (no SNF)


def brute_fpd(m: IntMatrix) -> set[tuple[int, ...]]:
    """Integer points k with m^{-1} k in [0, 1)^D, by exact rational test of
    every point in the bounding box of the parallelepiped's vertices."""
    import itertools

    d = m.det
    corners = [m.apply(c) for c in itertools.product((0, 1), repeat=m.dim)]
    box = [range(min(v[i] for v in corners), max(v[i] for v in corners) + 1) for i in range(m.dim)]
    return {
        k
        for k in itertools.product(*box)
        if all(0 <= Fraction(x, d) < 1 for x in m.adj.apply(k))
    }


ENUM_CAP = 10**6  # most points enumerate_fpd will list


def fpd_size(m: IntMatrix) -> int:
    d = m.det
    if d == 0:
        raise SingularMatrix("FPD of a singular matrix is undefined")
    return abs(d)


def enumerate_fpd(m: IntMatrix) -> list[tuple[int, ...]]:
    """All ``|det m|`` integer points of N(m), in ``FpdSampler.point`` order.

    Unlike the brute-force oracles this lists through the library's
    ``FpdSampler``; tests that need the order use it, and ``brute_fpd``
    certifies the point set."""
    count = fpd_size(m)
    assert count <= ENUM_CAP, f"|det| = {count} exceeds enumeration cap {ENUM_CAP}"
    fpd = FpdSampler(m)
    return [fpd.point(i) for i in range(count)]


def brute_common_points(moduli, remainders, r: IntMatrix) -> list[tuple[int, ...]]:
    """Points g of N(r) with g - remainders[i] in L(moduli[i]) for every i.

    When r is a common right multiple of the moduli, every common solution
    reduces mod r to one of these, so an empty list means none exists.
    """
    return sorted(
        g
        for g in brute_fpd(r)
        if all(_in_lattice(m, [x - y for x, y in zip(g, rem)]) for m, rem in zip(moduli, remainders))
    )


# ---------------------------------------------------------------------------
# oracle: integer points of a closed ball, by filtering the bounding cube


def brute_ball(tau, dim: int) -> list[tuple[int, ...]]:
    """Sorted integer points of Z^dim whose squared norm is at most tau^2,
    compared as exact Fractions, from the cube [-floor(tau), floor(tau)]^dim."""
    import itertools
    import math

    tau_sq = Fraction(tau) ** 2
    r = math.floor(Fraction(tau))
    return sorted(
        p for p in itertools.product(range(-r, r + 1), repeat=dim) if Fraction(sum(x * x for x in p)) <= tau_sq
    )


# oracle: every error tuple strictly inside per-modulus bounds


def error_tuples(bounds_sq, dim: int):
    """Every tuple ``(e_0, ..., e_{L-1})`` of integer vectors in Z^dim with
    ``|e_j|^2 < bounds_sq[j]``, strictly: the guarantee's error set, listed
    through ``ErrorBallSampler.point``. Each ball has the integer budget
    ``ceil(bound) - 1``, the largest squared norm below the bound."""
    import itertools

    from mdcrt.simkit import ErrorBallSampler

    q = 1 << 20
    balls = []
    for bound in bounds_sq:
        budget = math.ceil(bound) - 1
        tau = Fraction(math.isqrt(budget * q * q) + 1, q)  # budget <= tau^2 < budget + 1
        assert math.floor(tau * tau) == budget
        ball = ErrorBallSampler(tau, dim)
        balls.append([ball.point(i) for i in range(ball.count)])
    return itertools.product(*balls)


# ---------------------------------------------------------------------------
# oracles for the dynamic-range and prime-determinant searches


def lcm_range(q: int) -> int:
    """Independent lcm(1..q) for cross-checking the prime-power construction."""
    return reduce(math.lcm, range(1, q + 1), 1)


def diagonal_moduli_construction(q: int, d: int) -> list[IntMatrix]:
    """Moduli achieving the maximum range: for each co-prime member m and
    each position j, the identity with m at (j, j)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    out = []
    for m in max_coprime_set(q).members:
        for j in range(d):
            entries = [1] * d
            entries[j] = m
            out.append(IntMatrix.diag(*entries))
    return out


def hnf_lattice_matrix(i: int, p: int) -> IntMatrix:
    """The basis ``[[1,0],[i,p]]`` of the i-th lattice ``svp_search`` scans."""
    return IntMatrix.from_rows([[1, 0], [i, p]])
