"""Matrix gcld / lcrm, coprimality, and the error-free vector CRT solver.

gcld and lcrm outputs are HNF-normalized so equality is testable; the lcrm of
two moduli is computed as a basis of the intersection lattice, obtained from
the integer kernel of the stacked block ``(a  -b)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, Inconsistent, SingularMatrix
from .exact_linalg import (
    IntMatrix,
    IntVec,
    hnf,
    snf,
    solve_diophantine,
    vec_add,
    vec_sub,
)
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
    """``f = modulus @ n + remainder`` with the remainder inside N(modulus)."""

    modulus: IntMatrix
    remainder: IntVec

    def __post_init__(self) -> None:
        q, _ = reduce_mod(self.remainder, self.modulus)
        if any(q):
            raise ValueError(f"remainder {self.remainder} is not in the FPD of {self.modulus}")


def congruence_of(f: Sequence[int], modulus: IntMatrix) -> Congruence:
    return Congruence(modulus, reduce_mod(f, modulus)[1])


@dataclass(frozen=True)
class CrtSolution:
    value: IntVec
    lcrm: IntMatrix


def crt_solve(congruences: Sequence[Congruence]) -> CrtSolution:
    """Unique representative in N(R) congruent to every remainder, R the
    HNF-normalized lcrm of all moduli.

    Pairs are folded in input order: each step solves
    ``R a - M b = r - x`` in integers, lifts, and reduces modulo the combined
    lcrm. Raises Inconsistent when a step has no integer solution.
    """
    if not congruences:
        raise ValueError("need at least one congruence")
    first = congruences[0]
    r_acc = hnf(first.modulus)
    x = reduce_mod(first.remainder, r_acc)[1]
    for cong in congruences[1:]:
        if cong.modulus.dim != r_acc.dim:
            raise DimensionMismatch("congruences of mixed dimension")
        block = r_acc.hstack(-cong.modulus)
        rhs = vec_sub(cong.remainder, x)
        sol = solve_diophantine(block, rhs)
        if sol is None:
            raise Inconsistent("incompatible remainders: difference not in the gcld lattice")
        alpha = sol[: r_acc.dim]
        x = vec_add(x, r_acc.apply(alpha))
        r_acc = lcrm(r_acc, cong.modulus)
        x = reduce_mod(x, r_acc)[1]
    return CrtSolution(value=x, lcrm=r_acc)
