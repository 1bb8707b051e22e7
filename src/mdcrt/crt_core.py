"""Matrix gcld / lcrm, coprimality, and the error-free vector CRT solver.

gcld and lcrm outputs are HNF-normalized so equality is testable; the lcrm of
two moduli is computed as a basis of the intersection lattice, obtained from
the integer kernel of the stacked block ``(a  -b)``.

The CRT fold depends on the moduli only through normal forms that never
change while the moduli do not: a ``CrtPlan`` computes them once per ordered
tuple of moduli (the matrix analogue of Garner's precomputed CRT), and
``crt_solve`` keeps the most recently used plans, so solving one more set of
remainders costs matrix-vector products, divisibility tests and reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import DimensionMismatch, Inconsistent, SingularMatrix
from .exact_linalg import (
    DiophantineSolver,
    IntMatrix,
    IntVec,
    hnf,
    snf,
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


class CrtPlan:
    """The CRT fold of one ordered tuple of moduli, compiled.

    Folding congruence k into the running solution x, which is known modulo
    ``R_{k-1}``, solves ``R_{k-1} a - M_k b = r_k - x`` in integers, lifts
    ``x + R_{k-1} a`` and reduces it modulo ``R_k = lcrm(R_{k-1}, M_k)``.
    The plan holds everything in that step that depends on the moduli
    alone: ``R_1 = hnf(M_1)``, every running lcrm ``R_k``, and a
    ``DiophantineSolver`` (the SNF of ``(R_{k-1} | -M_k)``) per step.
    ``lcrm`` is the final ``R_L``, the HNF-normalized lcrm of all moduli.
    """

    def __init__(self, moduli: Sequence[IntMatrix]):
        if not moduli:
            raise ValueError("need at least one congruence")
        acc = self.first = hnf(moduli[0])
        steps = []
        for m in moduli[1:]:
            if m.dim != acc.dim:
                raise DimensionMismatch("congruences of mixed dimension")
            nxt = lcrm(acc, m)
            steps.append((acc, DiophantineSolver(acc.hstack(-m)), nxt))
            acc = nxt
        self.steps = tuple(steps)
        self.lcrm = acc

    def solve(self, remainders: Sequence[IntVec]) -> CrtSolution:
        """Representative in N(lcrm) of the common solution of the
        congruences ``f = M_k n_k + remainders[k]``; Inconsistent when there
        is none."""
        x = reduce_mod(remainders[0], self.first)[1]
        for (acc, solver, nxt), rem in zip(self.steps, remainders[1:], strict=True):
            sol = solver.solve(vec_sub(rem, x))
            if sol is None:
                raise Inconsistent("incompatible remainders: difference not in the gcld lattice")
            x = reduce_mod(vec_add(x, acc.apply(sol[: acc.nrows])), nxt)[1]
        return CrtSolution(value=x, lcrm=self.lcrm)


_PLANS_KEPT = 32  # tuples of moduli whose compiled plans crt_solve keeps


@lru_cache(maxsize=_PLANS_KEPT)
def _plan(moduli: tuple[IntMatrix, ...]) -> CrtPlan:
    return CrtPlan(moduli)


def crt_solve(congruences: Sequence[Congruence]) -> CrtSolution:
    """Unique representative in N(R) congruent to every remainder, R the
    HNF-normalized lcrm of all moduli.

    The congruences are folded in input order by the ``CrtPlan`` of their
    moduli, built on first use and kept for the ``_PLANS_KEPT`` most recently
    used tuples of moduli. The result does not depend on the fold order: the
    common solution is unique modulo the lcrm, which is one lattice whatever
    the order, and both R and the representative in N(R) are canonical for
    it. Raises ValueError for no congruences, DimensionMismatch for moduli of
    mixed dimension, and Inconsistent when a fold step has no integer
    solution.
    """
    plan = _plan(tuple(c.modulus for c in congruences))
    return plan.solve([c.remainder for c in congruences])
