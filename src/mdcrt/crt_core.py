"""Matrix gcld / lcrm, coprimality, and the error-free vector CRT solver.

gcld and lcrm outputs are HNF-normalized so equality is testable; the lcrm of
two moduli is computed as a basis of the intersection lattice, obtained from
the integer kernel of the stacked block ``(a  -b)``.

A congruence system depends on its moduli only through one Smith normal
form: all L congruences become one stacked block system for the quotient
vectors, and a ``CrtPlan`` takes its SNF once per ordered tuple of moduli
(the matrix analogue of Garner's precomputed CRT). ``crt_solve`` keeps the
most recently used plans, so solving one more set of remainders costs a few
divisibility checks, one integer matrix-vector product and one reduction
into N(``into``), any basis of the lcrm lattice (the HNF lcrm R by default).
A ``Congruence`` accepts any representative of its class and stores the one
in N(modulus), so callers need not reduce before they build one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, Inconsistent, SingularMatrix
from .exact_linalg import IntMatrix, IntVec, hnf, snf
from .lattice import reduce_mod


def _check_pair(a: IntMatrix, b: IntMatrix) -> None:
    if not (a.is_square and b.is_square) or a.dim != b.dim:
        raise DimensionMismatch(f"matrices must be square of equal size, got {a.nrows}x{a.ncols} and {b.nrows}x{b.ncols}")


def gcld(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Greatest common left divisor, HNF-normalized.

    Column-reduces the block ``(a b)`` to ``(G 0)``; both ``G^{-1} a`` and
    ``G^{-1} b`` are integer matrices and every common left divisor
    left-divides G.
    """
    _check_pair(a, b)
    if a.det == 0 or b.det == 0:
        raise SingularMatrix("gcld requires nonsingular operands")
    return hnf(a.hstack(b))


def is_coprime(a: IntMatrix, b: IntMatrix) -> bool:
    """Left coprimality: the SNF of ``(a b)`` equals ``(I 0)``."""
    _check_pair(a, b)
    dec = snf(a.hstack(b))
    coprime = all(x == 1 for x in dec.diagonal())
    if __debug__ and a.det != 0 and b.det != 0:
        assert coprime == (abs(gcld(a, b).det) == 1)
    return coprime


def lcrm(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Least common right multiple, HNF-normalized.

    A basis of L(a) intersected with L(b): kernel vectors (p; q) of the block
    ``(a -b)`` satisfy ``a p = b q``, and the p-parts give the intersection
    basis ``a @ P``.
    """
    _check_pair(a, b)
    if a.det == 0 or b.det == 0:
        raise SingularMatrix("lcrm requires nonsingular operands")
    d = a.dim
    block = a.hstack(-b)
    dec = snf(block)
    if dec.rank != d:
        raise SingularMatrix("stacked block lost rank")  # cannot happen for nonsingular a
    kernel_cols = [dec.v.column(j) for j in range(d, 2 * d)]
    p = IntMatrix.from_columns([col[:d] for col in kernel_cols])
    return hnf(a @ p)


def lcrm_many(ms: Sequence[IntMatrix]) -> IntMatrix:
    """Left fold of pairwise lcrm over the list, HNF-normalized.

    The result is independent of fold order: all lcrms of the set share one
    lattice, and HNF is canonical per lattice.
    """
    if not ms:
        raise ValueError("lcrm_many needs at least one matrix")
    acc = hnf(ms[0])
    for m in ms[1:]:
        acc = lcrm(acc, m)
    return acc


# ---------------------------------------------------------------------------
# congruences


@dataclass(frozen=True)
class Congruence:
    """``f = modulus @ n + remainder``. Any representative of the class may
    be given; the stored remainder is its reduction into N(modulus), so two
    representatives of one class give equal congruences. Raises
    SingularMatrix for a singular modulus and DimensionMismatch for a
    remainder of the wrong length."""

    modulus: IntMatrix
    remainder: IntVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "remainder", reduce_mod(self.remainder, self.modulus)[1])


def congruence_of(f: Sequence[int], modulus: IntMatrix) -> Congruence:
    return Congruence(modulus, reduce_mod(f, modulus)[1])


@dataclass(frozen=True)
class CrtSolution:
    """The common solution ``value``, reduced into N(``lcrm``); ``lcrm`` is
    the basis of the lcrm lattice it was reduced into."""

    value: IntVec
    lcrm: IntMatrix


class CrtPlan:
    """The congruence system of one ordered tuple of moduli, compiled.

    With ``d_k = r_k - r_0``, the congruences ``f = M_k n_k + r_k`` have a
    common solution exactly when ``M_0 n_0 - M_k n_k = d_k`` (k >= 1) does,
    one stacked block system ``B n = d`` of size (L-1)D x LD. The plan takes
    the SNF ``U B V = (Lam 0)`` once: the system is solvable exactly when
    ``Lam_i`` divides ``(U d)_i`` for every i, and then
    ``f = r_0 + M_0 n_0 = r_0 + K d / Lam_max`` with
    ``K = M_0 V_{0,.} diag(Lam_max / Lam) U``, where ``V_{0,.}`` is the first
    D rows and (L-1)D columns of V and ``Lam_max`` is the last diagonal entry
    (a multiple of all of them).

    Only what a solve reads is kept: the rows of U with ``Lam_i > 1``, each
    reduced mod ``Lam_i`` (the others always pass), and K with every column
    reduced modulo the lattice of ``Lam_max * R``, which changes f by a
    vector of L(R) alone. ``lcrm`` is R, the HNF-normalized lcrm of all
    moduli, and every solution is reduced once, into N(``into``), R by
    default. The remainders may be any representatives of their classes:
    moving ``r_k`` by ``M_k n`` moves d by a vector of B's image, which
    changes f by a vector of L(R) alone.
    """

    def __init__(self, moduli: Sequence[IntMatrix]):
        if not moduli:
            raise ValueError("need at least one congruence")
        m0 = moduli[0]
        d = m0.dim
        if any(m.dim != d for m in moduli):
            raise DimensionMismatch("congruences of mixed dimension")
        self.count, self.dim = len(moduli), d
        self.lcrm = lcrm_many(moduli)
        self.checks, self.kernel, self.scale = (), ((),) * d, 1  # one congruence: f = r_0
        if self.count == 1:
            return
        width = self.count * d
        block = []
        for k, m in enumerate(moduli[1:], start=1):
            for r0, rk in zip(m0.rows, m.rows):
                row = [0] * width
                row[:d] = r0
                row[k * d : (k + 1) * d] = [-x for x in rk]
                block.append(row)
        dec = snf(IntMatrix.from_rows(block))
        lam = dec.diagonal()  # no zero: lcrm_many has rejected singular moduli
        self.scale = big = lam[-1]
        self.checks = tuple(
            (tuple(x % q for x in row), q) for row, q in zip(dec.u.rows, lam) if q > 1
        )
        weighted = IntMatrix.from_rows(
            [x * (big // q) for x, q in zip(row, lam)] for row in dec.v.rows[:d]
        )
        kernel = m0 @ weighted @ dec.u
        period = self.lcrm.scale(big)
        columns = [reduce_mod(col, period)[1] for col in zip(*kernel.rows)]
        self.kernel = tuple(zip(*columns))

    def solve(self, remainders: Sequence[IntVec], into: IntMatrix | None = None) -> CrtSolution:
        """Representative in N(into) of the common solution of the
        congruences ``f = M_k n_k + remainders[k]``; Inconsistent when there
        is none. ``into`` must be a basis of L(R), any lcrm of the moduli
        (it is not checked); it defaults to R. Reducing into it once is
        exact: ``reduce_mod`` depends only on the class of f mod L(R)."""
        if len(remainders) != self.count:
            raise ValueError("one remainder per congruence required")
        if any(len(r) != self.dim for r in remainders):
            raise DimensionMismatch(f"remainders must have length {self.dim}")
        r0 = remainders[0]
        diff = [x - y for r in remainders[1:] for x, y in zip(r, r0)]
        for row, q in self.checks:
            if sum(map(mul, row, diff)) % q:
                raise Inconsistent("incompatible remainders: no common solution")
        big = self.scale
        f = tuple([x + sum(map(mul, row, diff)) // big for x, row in zip(r0, self.kernel)])
        if into is None:
            into = self.lcrm
        return CrtSolution(value=reduce_mod(f, into)[1], lcrm=into)


_PLANS_KEPT = 32  # tuples of moduli whose compiled plans crt_solve keeps


@lru_cache(maxsize=_PLANS_KEPT)
def _plan(moduli: tuple[IntMatrix, ...]) -> CrtPlan:
    return CrtPlan(moduli)


def crt_solve(congruences: Sequence[Congruence], into: IntMatrix | None = None) -> CrtSolution:
    """Unique representative in N(R) congruent to every remainder, R the
    HNF-normalized lcrm of all moduli; with ``into``, a basis of the same
    lattice (an lcrm representative such as a designated lcrm), the unique
    representative in N(into) instead, from the same single reduction.

    The system is solved by the ``CrtPlan`` of the moduli in input order,
    built on first use and kept for the ``_PLANS_KEPT`` most recently used
    tuples of moduli. The result does not depend on that order: the common
    solution is unique modulo the lcrm, which is one lattice whatever the
    order, and both R and the representative in N(R) are canonical for it.
    Raises ValueError for no congruences, DimensionMismatch for moduli of
    mixed dimension, and Inconsistent when the system has no integer
    solution.
    """
    plan = _plan(tuple(c.modulus for c in congruences))
    return plan.solve([c.remainder for c in congruences], into)
