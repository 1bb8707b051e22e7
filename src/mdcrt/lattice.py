"""Lattice geometry: modular reduction, fundamental parallelepipeds, exact
shortest/closest vector computation, and unions of shifted parallelepipeds.

All lengths are handled as exact squared norms; SVP/CVP search a quadratic
form scaled to integers, so neither builds a Fraction for an integer
target, and square roots appear only in display code elsewhere. Nothing
here lists the points of a parallelepiped: ``FpdSampler`` addresses them by
index, and a union of shifted parallelepipeds is stored as its anchor and
quotient matrix, with closed-form size, centroid, membership test and i-th
shift. SVP/CVP search a pairwise-reduced basis at every dimension up to the
cap ``MAX_DIM``, so the reduced basis, not a skewed input basis such as a
Hermite normal form, bounds their search. On a basis of |det| 1, a basis of
Z^D, CVP rounds each target coordinate in closed form, a half down. On any
other basis it first rounds off, on plain row tuples cached on the basis,
and returns the rounded point when it lies strictly within lambda_1 / 2 of
the target, half the lattice's shortest-vector length (cached per basis):
it is then the unique closest vector. The test is strict because at exactly
lambda_1 / 2 two lattice vectors can tie, and only the full search applies
the lexicographic tie-break. That search is a recursive Schnorr-Euchner
enumeration, one call per level; the cap is checked once, when a
``LatticeBasis`` is built. The nearest-region-point search is bounded by
the distance of a region point computed in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterator, Sequence

from .errors import DimensionMismatch, DimensionUnsupported, SingularMatrix
from .exact_linalg import (
    IntMatrix,
    IntVec,
    Scalar,
    bareiss,
    snf,
    vec_add,
    vec_dot,
    vec_norm_sq,
    vec_scale,
    vec_sub,
)

MAX_DIM = 4  # exact SVP/CVP enumeration, and so robust reconstruction, stop here


# ---------------------------------------------------------------------------
# modular reduction


def reduce_mod(f: Sequence[int], m: IntMatrix) -> tuple[IntVec, IntVec]:
    """Split ``f = m @ quotient + remainder`` with the remainder in N(m).

    The quotient is the elementwise floor of the exact rational
    ``m^{-1} f = adj(m) f / det(m)``. Raises SingularMatrix for a singular
    modulus and DimensionMismatch unless ``len(f)`` equals the size of m.
    """
    d = m.det
    if d == 0:
        raise SingularMatrix("modulus must be nonsingular")
    rows = m.rows
    if len(f) != len(rows):
        raise DimensionMismatch(f"{len(rows)}x{len(rows)} modulus applied to length-{len(f)} vector")
    # Python floordiv floors for either sign of d
    quotient = tuple([sum(map(mul, row, f)) // d for row in m.adj.rows])
    remainder = tuple([x - sum(map(mul, row, quotient)) for x, row in zip(f, rows)])
    return quotient, remainder


# ---------------------------------------------------------------------------
# fundamental parallelepiped sampling


class FpdSampler:
    """Integer points of N(m) addressed by their SNF digits, without
    enumeration.

    With ``m = u^{-1} diag(d_1..d_D) v^{-1}``, the points of N(m) are the
    reductions mod m of ``u^{-1} @ digits`` for digit vectors in
    ``[0, d_1) x ... x [0, d_D)``.
    """

    def __init__(self, m: IntMatrix):
        if m.det == 0:
            raise SingularMatrix("cannot sample the FPD of a singular matrix")
        self.m = m
        dec = snf(m)
        self._uinv = dec.u.adj if dec.u.det == 1 else -dec.u.adj
        self._diag = dec.diagonal()

    def _from_digits(self, digits: Sequence[int]) -> IntVec:
        return reduce_mod(self._uinv.apply(digits), self.m)[1]

    def point(self, index: int) -> IntVec:
        """Point number ``index`` in ``[0, |det m|)``: a mixed-radix decode
        over the SNF diagonal, last digit fastest (lexicographic digits).
        Raises IndexError for any other index."""
        count = abs(self.m.det)
        if not 0 <= index < count:
            raise IndexError(f"point index {index} outside [0, {count})")
        digits = [0] * len(self._diag)
        for i in reversed(range(len(self._diag))):
            index, digits[i] = divmod(index, self._diag[i])
        return self._from_digits(digits)

    def sample(self, rng) -> IntVec:
        """Uniform point; one ``rng.randrange`` draw per SNF digit."""
        return self._from_digits([rng.randrange(x) for x in self._diag])


# ---------------------------------------------------------------------------
# lattice basis with cached reduction


def _pairwise_reduce(columns: Sequence[IntVec]) -> list[IntVec]:
    """Pairwise Lagrange-Gauss reduction of any number of columns.

    Sort the columns stably by squared norm, shorten each column by the
    nearest multiple of each shorter column b_j while
    ``2 |<b_i, b_j>| > ||b_j||^2``, and repeat until nothing changes. Each
    step lowers an integer squared norm, so the loop ends. On two columns
    this is the Lagrange-Gauss algorithm, except that an exact tie
    ``2 <b_1, b_2> = ||b_1||^2`` keeps b_2 instead of taking b_2 - b_1.
    """
    b = sorted(columns, key=vec_norm_sq)
    changed = True
    while changed:
        changed = False
        for i in range(1, len(b)):
            for j in range(i):
                nj = vec_norm_sq(b[j])
                dot = vec_dot(b[i], b[j])
                if 2 * abs(dot) > nj:
                    b[i] = vec_sub(b[i], vec_scale((2 * dot + nj) // (2 * nj), b[j]))
                    changed = True
        b.sort(key=vec_norm_sq)
    return b


@dataclass(frozen=True)
class LatticeBasis:
    """Nonsingular integer basis with its cached pairwise-reduced basis
    (sorted by norm, ``2 |<b_i, b_j>| <= ||b_i||^2`` for i < j), the cached
    integer form that SVP/CVP search on it, its cached shortest vector, and
    the rows CVP's round-off reads, cached as plain tuples. CVP's round-off
    test compares against that vector's squared length lambda_1^2: a
    rounded point strictly within lambda_1 / 2 of the target is the unique
    closest vector.

    Building one raises DimensionUnsupported above ``MAX_DIM``, the limit of
    the exact search, and SingularMatrix for a singular basis; SVP and CVP
    check neither again.

    The shortest-vector witness is min(b, -b) of the first reduced column
    for D <= 2 and the lexicographically smallest shortest vector for
    D >= 3.
    """

    basis: IntMatrix

    def __post_init__(self) -> None:
        if self.basis.dim > MAX_DIM:
            raise DimensionUnsupported(f"exact SVP/CVP supports dim <= {MAX_DIM}, got {self.basis.dim}")
        if self.basis.det == 0:
            raise SingularMatrix("lattice basis must be nonsingular")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def reduced(self) -> IntMatrix:
        return IntMatrix.from_columns(_pairwise_reduce(self.basis.transpose().rows))

    @cached_property
    def _form(self) -> tuple:
        """``(B, |det B| B^{-1}, |det B|, delta, m, weight)`` for the search
        basis B, the reduced one: the fraction-free LDL of ``B^T B``
        (``bareiss``) that ``_enum_best`` describes."""
        b = self.reduced
        n = b.dim
        a = [list(r) for r in (b.transpose() @ b).rows]
        bareiss(a)  # a Gram matrix is positive definite: no row moves
        delta = [1] + [a[k][k] for k in range(n)]
        p = math.lcm(*(delta[i] * delta[i + 1] for i in range(n)))
        weight = [p // (delta[i] * delta[i + 1]) for i in range(n)]
        return b, (b.adj if b.det > 0 else -b.adj), abs(b.det), delta, a, weight

    @cached_property
    def _round_off(self) -> tuple:
        """``(rows of B, rows of |det B| B^{-1}, |det B|, lambda_1^2)`` for
        the search basis B, as plain row tuples: what ``closest_vector``
        reads before any search."""
        b, inv, det, *_ = self._form
        return b.rows, inv.rows, det, self._shortest[0]

    @cached_property
    def _shortest(self) -> tuple[int, IntVec]:
        """``shortest_vector``'s result, computed once: lambda_1^2 and the
        witness. ``closest_vector`` reads lambda_1^2 for its round-off test."""
        n = self.dim
        if n <= 2:
            b1 = self.reduced.column(0)
            return vec_norm_sq(b1), min(b1, vec_scale(-1, b1))
        v = _enum_best(self._form, [0] * n, 1, skip_zero=True)
        return vec_norm_sq(v), v


# ---------------------------------------------------------------------------
# exact SVP / CVP by depth-first enumeration of the LDL quadratic form


class _Search:
    """One exact search: the coefficients ``c``, the offsets
    ``z[j] = s c[j] - x[j]`` of the levels above the current one, and the
    best leaf so far (scaled form ``best_q`` and vector ``best_v``)."""

    __slots__ = ("form", "x", "s", "skip_zero", "c", "z", "best_q", "best_v")

    def __init__(self, form: tuple, x: Sequence[Scalar], s: int, skip_zero: bool):
        self.form, self.x, self.s, self.skip_zero = form, x, s, skip_zero
        self.c = [0] * len(x)
        self.z = [0] * len(x)
        self.best_q: int | None = None
        self.best_v: IntVec | None = None

    def level(self, i: int, partial: int) -> None:
        """Search level i and below, given ``partial``, the scaled form
        summed over the levels above."""
        basis, _, _, delta, m, weight = self.form
        x, s, c, z = self.x, self.s, self.c, self.z
        den = s * delta[i + 1]
        row = m[i]
        t = delta[i + 1] * x[i] - sum([row[j] * z[j] for j in range(i + 1, len(c))])
        base = (2 * t + den) // (2 * den)
        for step, ci in ((1, base), (-1, base - 1)):
            while True:
                e = ci * den - t
                total = partial + weight[i] * e * e
                if self.best_q is not None and total > self.best_q:
                    break
                c[i] = ci
                if i > 0:
                    z[i] = s * ci - x[i]
                    self.level(i - 1, total)
                elif not (self.skip_zero and not any(c)):
                    # not pruned, so total <= best_q: a tie goes to the smaller vector
                    v = basis.apply(c)
                    if self.best_q is None or total < self.best_q or v < self.best_v:
                        self.best_q, self.best_v = total, v
                ci += step


def _enum_best(form: tuple, x: Sequence[Scalar], s: int, skip_zero: bool) -> IntVec:
    """Minimize ||B c - B x / s||^2 over integer c (c != 0 when skip_zero),
    for an integer or rational vector x (the trial path passes integers) and s > 0.

    Schnorr-Euchner depth-first search (Schnorr and Euchner, Math.
    Programming 66, 1994), one recursive call per level from level n - 1
    down to level 0, so the recursion depth is D <= ``MAX_DIM``. Each level
    computes its center once, tries coefficients from the rounded center
    upward, then from one below it downward, so the first descent is the
    Babai point and sets the bound (when that leaf is the skipped zero, the
    level-0 loop moves on to the next coefficient). Pruning is strict, so
    every vector tying the minimum is visited. Returns B @ c for the
    minimum, ties broken by the lexicographically smallest resulting vector.

    For integer x everything is an integer (a rational x takes the same exact
    steps). With ``delta[k]`` the k-th leading principal minor of
    ``G = B^T B`` (``delta[0] = 1``), the LDL pivots of G are
    ``delta[i + 1] / delta[i]`` and ``m[i][j] = mu_ij * delta[i + 1]`` is an
    integer. Level i's center is ``N_i / den_i`` with
    ``den_i = s * delta[i + 1]`` and
    ``N_i = delta[i + 1] * x_i - sum_{j > i} m[i][j] * (s c_j - x_j)``,
    rounded as ``(2 N_i + den_i) // (2 den_i)``. With P the lcm of the
    ``delta[i] * delta[i + 1]`` and ``weight[i] = P / (delta[i] delta[i + 1])``,
    the search minimizes ``P s^2 ||B c - B x / s||^2``, which is
    ``sum_i weight[i] * (c_i den_i - N_i)^2``.
    """
    search = _Search(form, x, s, skip_zero)
    search.level(len(x) - 1, 0)
    assert search.best_v is not None
    return search.best_v


def shortest_vector(l: LatticeBasis) -> tuple[int, IntVec]:
    """Exact squared minimum distance of the lattice and a witness vector,
    computed once per basis. The dimension cap was checked when the basis
    was built.

    For D <= 2 the first reduced column is a shortest vector, and the
    witness is min(b, -b) of it (``(-|g|,)`` in D = 1). For D >= 3 it is
    the lexicographically smallest shortest vector.
    """
    return l._shortest


def closest_vector(l: LatticeBasis, target: Sequence[Scalar], den: int = 1) -> IntVec:
    """Exact closest lattice vector to the integer or rational target
    ``target / den``.

    A caller holding integers over one denominator passes them with
    ``den`` and builds no ``Fraction``; rational entries take the same exact
    steps. Raises ValueError for ``den`` below 1 and DimensionMismatch for
    a target of the wrong length; the dimension cap was checked when the
    basis was built.

    Ties are broken by the lexicographically smallest lattice vector.

    A basis of |det| 1 spans Z^D: the closest vector to ``t / q`` rounds
    each coordinate to ``ceil(t / q - 1/2)``, exact for rational t too. At
    a half it takes the lower integer, the lexicographic tie-break, since
    every coordinate ties independently. No search runs.

    On every other basis, first the round-off point ``v = B round(B^{-1} t)`` on the reduced basis
    B (Babai, Combinatorica 6, 1986). If ``4 ||v - t||^2 < lambda_1^2``,
    every other lattice vector w has ``||w - t|| >= lambda_1 - ||v - t||``,
    which exceeds ``lambda_1 / 2 > ||v - t||``, so v is the unique closest
    vector and is returned. The test is strict: at exactly half a shortest
    vector two lattice vectors can tie, and only the full search applies the
    lexicographic tie-break. Every other target takes that exact search,
    ``_enum_best``. The round-off reads B's rows, the rows of
    ``|det B| B^{-1}``, |det B| and lambda_1^2 (the basis's cached
    ``shortest_vector``) as plain tuples cached once per basis.
    """
    n = l.dim
    if len(target) != n:
        raise DimensionMismatch(f"target has length {len(target)}, the lattice is {n}-dimensional")
    if den < 1:
        raise ValueError(f"closest_vector needs a denominator of at least 1, got {den}")
    b, inv, det, lambda_sq = l._round_off
    if det == 1:
        # the lattice is Z^D: round each coordinate, a half down
        return tuple([-((den - 2 * t) // (2 * den)) for t in target])
    x = [sum(map(mul, row, target)) for row in inv]  # B^{-1} t = x / s
    s = det * den
    c = [(2 * xi + s) // (2 * s) for xi in x]
    v = tuple([sum(map(mul, row, c)) for row in b])
    if 4 * sum([(den * a - t) ** 2 for a, t in zip(v, target)]) < lambda_sq * den * den:
        return v
    return _enum_best(l._form, x, s, skip_zero=False)


# ---------------------------------------------------------------------------
# unions of shifted fundamental parallelepipeds


@dataclass(frozen=True)
class FpdUnionRegion:
    """Disjoint union of the copies ``anchor @ k + N(anchor)`` for every
    shift k in N(quotient).

    This is how a robustly determinable range is described: for an lcrm R
    with ``R = anchor @ quotient``, f is recoverable exactly when the
    quotient ``floor(anchor^{-1} f)`` lies in N(quotient). The shifts are
    never listed; every query below is closed form in the two matrices.
    """

    anchor: IntMatrix
    quotient: IntMatrix

    def __post_init__(self) -> None:
        if self.anchor.det == 0 or self.quotient.det == 0:
            raise SingularMatrix("region matrices must be nonsingular")

    @property
    def size(self) -> int:
        return abs(self.quotient.det) * abs(self.anchor.det)

    @cached_property
    def _shifts(self) -> FpdSampler:
        return FpdSampler(self.quotient)

    @cached_property
    def _anchor_fpd(self) -> FpdSampler:
        return FpdSampler(self.anchor)

    def shift(self, index: int) -> IntVec:
        """Shift number ``index`` in ``[0, |det quotient|)``: the point
        ``FpdSampler(quotient).point(index)`` of N(quotient). Raises
        IndexError for any other index."""
        return self._shifts.point(index)

    def contains(self, f: Sequence[int]) -> bool:
        """Exact membership: ``quotient^{-1} floor(anchor^{-1} f)`` in [0, 1)^D."""
        k, _ = reduce_mod(f, self.anchor)
        d = self.quotient.det
        sign = 1 if d > 0 else -1
        return all(0 <= sign * x < abs(d) for x in self.quotient.adj.apply(k))

    def sample(self, rng) -> IntVec:
        """Uniform point: one draw for the shift, then one per anchor SNF digit."""
        k = self.shift(rng.randrange(abs(self.quotient.det)))
        r = self._anchor_fpd.sample(rng)
        return tuple(a + b for a, b in zip(self.anchor.apply(k), r))

    def centroid(self) -> tuple[Fraction, ...]:
        """Continuous centroid: anchor @ (mean shift + (1/2, ..., 1/2)).

        The shifts are ``quotient @ x`` for x in the group
        ``quotient^{-1} Z^D mod 1``, whose coordinate i is uniform over the
        multiples of 1/n_i, with ``n_i = |det| / gcd(|det|, row i of adj)``.
        Coordinate i of x therefore averages ``(n_i - 1) / (2 n_i)``.
        """
        d = abs(self.quotient.det)
        orders = [d // math.gcd(d, *row) for row in self.quotient.adj.rows]
        mean_shift = self.quotient.apply([Fraction(n - 1, 2 * n) for n in orders])
        return self.anchor.apply([x + Fraction(1, 2) for x in mean_shift])


def nearest_region_point(region: FpdUnionRegion, target: Sequence[Scalar]) -> IntVec:
    """Region point minimizing exact Euclidean distance to a rational target;
    ties broken lexicographically.

    Expanding-ring search around the rounded target g. The search starts
    from a region point found in closed form: with ``g = anchor k + r``,
    r in N(anchor), the seed ``anchor k' + r`` with k' the reduction of k
    into N(quotient) lies in the region. Ring r holds the points at
    Chebyshev distance r from g; every point outside rings 0..r lies more
    than r from the target, so the search stops after the first ring r with
    best squared distance <= r^2. The seed's distance bounds that r; the
    time grows with the square of the target's distance from the region
    (D = 2, a 900-point region: 0.06 s at (60,60), 8.3 s at (400,400),
    CPython 3.11 on a 2-core x86-64 host). Only centroid targets reach it.
    """
    n = region.anchor.dim
    target = tuple(Fraction(t) for t in target)
    base = tuple(math.floor(t + Fraction(1, 2)) for t in target)
    # squared distances in units of 1 / den^2, exact in integers
    den = math.lcm(*(t.denominator for t in target))
    scaled = tuple(int(t * den) for t in target)
    k, r = reduce_mod(base, region.anchor)
    best = vec_add(region.anchor.apply(reduce_mod(k, region.quotient)[1]), r)
    best_sq = sum((den * x - y) ** 2 for x, y in zip(best, scaled))
    radius = 0
    while True:
        for offset in _ring_offsets(n, radius):
            pt = vec_add(base, offset)
            dsq = sum((den * x - y) ** 2 for x, y in zip(pt, scaled))
            if (dsq < best_sq or (dsq == best_sq and pt < best)) and region.contains(pt):
                best, best_sq = pt, dsq
        if best_sq <= (radius * den) ** 2:
            return best
        radius += 1


def _ring_offsets(n: int, radius: int) -> Iterator[tuple[int, ...]]:
    """The (2r+1)^n - (2r-1)^n offsets of Chebyshev norm exactly r, listed
    by the first coordinate k that reaches +-r: coordinates before k lie
    strictly inside, coordinates after it anywhere in [-r, r]."""
    if radius == 0:
        yield (0,) * n
        return
    inner = range(-radius + 1, radius)
    full = range(-radius, radius + 1)
    for k in range(n):
        for head in itertools.product(inner, repeat=k):
            for tail in itertools.product(full, repeat=n - k - 1):
                yield head + (-radius,) + tail
                yield head + (radius,) + tail
