"""Matrix gcld / lcrm, coprimality, and the error-free vector CRT solver.

gcld and lcrm are the sum and the intersection of lattices, each one HNF of
a stacked block, so both are HNF-normalized and equality is testable: gcld
stacks the moduli, and lcrm stacks their (scaled) duals L(M^{-T}), since the
intersection of lattices is the dual of the sum of their duals (Micciancio
and Goldwasser, Complexity of Lattice Problems, 2002).

A congruence system depends on its moduli only through one Smith normal
form: all L congruences become one stacked block system for the quotient
vectors, and a ``CrtPlan`` takes its SNF once per ordered tuple of moduli
(the matrix analogue of Garner's precomputed CRT). The plan compiles the
SNF into dot products over the caller's remainders stacked into one vector
of length LD, with the differences ``r_k - r_0`` folded into the SNF's rows,
so no difference vector or matrix is built: check rows, largest modulus
first, and a kernel K' whose product with that vector is an exact multiple
of the largest invariant factor on a consistent system. ``crt_solve``
keeps the most recently used plans, looked up by the cached hashes of the
moduli, so solving one more set of remainders costs a few divisibility
checks (one, when the largest fails), one integer matrix-vector product
with one exact division, and one reduction into N(``into``), any basis of
the lcrm lattice (the HNF lcrm R by default).
``crt_solve`` and ``CrtPlan.solve`` return that vector alone, an int tuple:
the basis it was reduced into is ``into``, or ``lcrm`` of the moduli.
``crt_solve`` reads each congruence as a ``(modulus, remainder)`` pair and
accepts any representative of each class, so a caller that only solves
passes its remainders unreduced. A ``Congruence`` is the normalized pair:
it stores the representative in N(modulus), for callers that compare or
print congruences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import lcm
from operator import mul
from typing import Iterator, Sequence

from .errors import DimensionMismatch, Inconsistent, SingularMatrix
from .exact_linalg import IntMatrix, IntVec, Scalar, hnf, snf
from .lattice import reduce_mod


def _check_square(ms: Sequence[IntMatrix]) -> None:
    if any(not m.is_square or m.nrows != ms[0].nrows for m in ms):
        shapes = ", ".join(f"{m.nrows}x{m.ncols}" for m in ms)
        raise DimensionMismatch(f"matrices must be square of equal size, got {shapes}")


def _check_moduli(ms: Sequence[IntMatrix], what: str) -> None:
    """The operand check of gcld and lcrm: ValueError for no matrices,
    DimensionMismatch unless all are square of one size, SingularMatrix
    unless all are nonsingular."""
    if not ms:
        raise ValueError(f"{what} needs at least one matrix")
    _check_square(ms)
    if any(m.det == 0 for m in ms):
        raise SingularMatrix(f"{what} requires nonsingular operands")


def gcld(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Greatest common left divisor, HNF-normalized: a basis of the lattice
    sum L(a) + L(b).

    Column-reduces the block ``(a b)`` to ``(G 0)``; both ``G^{-1} a`` and
    ``G^{-1} b`` are integer matrices and every common left divisor
    left-divides G.
    """
    _check_moduli((a, b), "gcld")
    return hnf(a.hstack(b))


def is_coprime(a: IntMatrix, b: IntMatrix) -> bool:
    """Left coprimality: the SNF of ``(a b)`` equals ``(I 0)``."""
    _check_square((a, b))
    return all(x == 1 for x in snf(a.hstack(b)).diagonal())


def lcrm(*moduli: IntMatrix) -> IntMatrix:
    """Least common right multiple of one or more moduli, HNF-normalized: a
    basis of the intersection of their lattices, so it does not depend on
    their order.

    The dual of L(M) is L(M^{-T}). With n the lcm of the |det M_k|, each
    ``n M_k^{-T} = (n / det M_k) adj(M_k)^T`` is an integer matrix, and the
    HNF G of their stack is n times a basis B of the sum of the duals. The
    result is the HNF of ``n adj(G)^T / det G = B^{-T}``. That division is
    exact entry by entry: B^{-T} is a basis of the dual of the sum, which is
    the intersection lattice, and that lies in Z^D.
    """
    _check_moduli(moduli, "lcrm")
    n = lcm(*(m.det for m in moduli))
    g = hnf(reduce(IntMatrix.hstack, [m.adj.transpose().scale(n // m.det) for m in moduli]))
    q = g.det
    return hnf(IntMatrix(tuple(tuple(n * x // q for x in row) for row in g.adj.transpose().rows)))


# ---------------------------------------------------------------------------
# congruences


def check_remainder_shape(remainders: Sequence[Sequence[Scalar]], count: int, dim: int) -> None:
    """Raise ValueError unless there are ``count`` remainders, and
    DimensionMismatch unless each has length ``dim``."""
    if len(remainders) != count:
        raise ValueError("one remainder per modulus required")
    for r in remainders:
        if len(r) != dim:
            raise DimensionMismatch(f"remainders must have length {dim}, got lengths {[*map(len, remainders)]}")


@dataclass(frozen=True)
class Congruence:
    """``f = modulus @ n + remainder`` as a normalized pair. Any
    representative of the class may be given; the stored remainder is its
    reduction into N(modulus), so two representatives of one class give
    equal congruences. It unpacks as ``modulus, remainder``, the pair that
    ``crt_solve`` reads. Raises SingularMatrix for a singular modulus and
    DimensionMismatch for a remainder of the wrong length."""

    modulus: IntMatrix
    remainder: IntVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "remainder", reduce_mod(self.remainder, self.modulus)[1])

    def __iter__(self) -> Iterator[IntMatrix | IntVec]:
        return iter((self.modulus, self.remainder))


def congruence_of(f: Sequence[int], modulus: IntMatrix) -> Congruence:
    return Congruence(modulus, reduce_mod(f, modulus)[1])


class CrtPlan:
    """The congruence system of one ordered tuple of moduli, compiled into
    dot products over the stacked remainders ``r = (r_0, ..., r_{L-1})``, a
    vector of length LD.

    With ``d_k = r_k - r_0``, the congruences ``f = M_k n_k + r_k`` have a
    common solution exactly when ``M_0 n_0 - M_k n_k = d_k`` (k >= 1) does,
    one stacked block system ``B n = d`` of size (L-1)D x LD. The plan takes
    the SNF ``U B V = (Lam 0)`` once: the system is solvable exactly when
    ``Lam_i`` divides ``(U d)_i`` for every i, and then
    ``f = r_0 + M_0 n_0 = r_0 + K d / Lam_max`` with
    ``K = M_0 V_{0,.} diag(Lam_max / Lam) U``, where ``V_{0,.}`` is the first
    D rows and (L-1)D columns of V and ``Lam_max`` is the last diagonal entry
    (a multiple of all of them).

    Neither d nor the difference map E (``d = E r``) is built. A solve reads
    r alone, and the compile writes each row u of U over r directly: its
    D-blocks ``u_1, ..., u_{L-1}`` act on ``d_1, ..., d_{L-1}``, so
    ``u E = (-(u_1 + ... + u_{L-1}), u_1, ..., u_{L-1})``. Each check row is
    a row of ``U E``, and the kernel is ``K' = K E + Lam_max (I 0)``, so
    ``K' r = Lam_max r_0 + K d`` and ``f = K' r / Lam_max``. That division is
    exact on a consistent system, since K d is then a multiple of
    ``Lam_max``, and it floors to the same integers as
    ``r_0 + K d // Lam_max`` on any input.

    Only what a solve reads is kept: the rows of U E with ``Lam_i > 1``, each
    reduced mod ``Lam_i`` (the others always pass), and K' with every column
    reduced modulo the lattice of ``Lam_max * R``, which changes f by a
    vector of L(R) alone. The checks are stored largest modulus first, the
    reverse of the SNF's divisibility order. Which check fails first does not
    change whether one does, but the large ones are the ones that fail: on
    fig3's single-stage sweep (checks mod 49472, 49472, 773, 773; seed
    20250809, 400 trials per tau) every one of the 3993 inconsistent systems
    failed the first check in this order, and the first check in SNF order
    never failed, so a failed solve stops after one dot product.
    ``lcrm`` is R, the HNF-normalized lcrm of all moduli, and every solution
    is reduced once, into N(``into``), R by default. The remainders may be
    any representatives of their classes: moving ``r_k`` by ``M_k n`` moves
    d by a vector of B's image, which changes f by a vector of L(R) alone.
    """

    def __init__(self, moduli: Sequence[IntMatrix]):
        self.lcrm = lcrm(*moduli)  # checks the moduli
        m0 = moduli[0]
        d = m0.dim
        self.count, self.dim = len(moduli), d
        # one congruence: f = r_0
        self.checks, self.kernel, self.scale = (), IntMatrix.identity(d).rows, 1
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
        lam = dec.diagonal()  # no zero: lcrm has rejected singular moduli
        self.scale = big = lam[-1]
        # each row u of U read on r: u E = (-(sum of u's D-blocks), u)
        ue = IntMatrix.from_rows([-sum(u[i::d]) for i in range(d)] + list(u) for u in dec.u.rows)
        self.checks = tuple(
            (tuple(x % q for x in row), q) for row, q in zip(ue.rows[::-1], lam[::-1]) if q > 1
        )
        weighted = IntMatrix.from_rows(
            [x * (big // q) for x, q in zip(row, lam)] for row in dec.v.rows[:d]
        )
        kernel = [list(row) for row in (m0 @ weighted @ ue).rows]
        for i, row in enumerate(kernel):
            row[i] += big
        period = self.lcrm.scale(big)
        columns = [reduce_mod(col, period)[1] for col in zip(*kernel)]
        self.kernel = tuple(zip(*columns))

    def solve(self, remainders: Sequence[IntVec], into: IntMatrix | None = None) -> IntVec:
        """The vector in N(into) that solves every congruence
        ``f = M_k n_k + remainders[k]``; Inconsistent when there is none.
        ``into`` must be a basis of L(R), any lcrm of the moduli (it is not
        checked); it defaults to R. Reducing into it once is exact:
        ``reduce_mod`` depends only on the class of f mod L(R)."""
        check_remainder_shape(remainders, self.count, self.dim)
        r = [x for v in remainders for x in v]
        for row, q in self.checks:
            if sum(map(mul, row, r)) % q:
                raise Inconsistent("incompatible remainders: no common solution")
        big = self.scale
        f = tuple([sum(map(mul, row, r)) // big for row in self.kernel])
        return reduce_mod(f, self.lcrm if into is None else into)[1]


_PLANS_KEPT = 32  # tuples of moduli whose compiled plans crt_solve keeps


@lru_cache(maxsize=_PLANS_KEPT)
def _plan(moduli: tuple[IntMatrix, ...]) -> CrtPlan:
    return CrtPlan(moduli)


def crt_solve(
    congruences: Sequence[tuple[IntMatrix, Sequence[int]] | Congruence], into: IntMatrix | None = None
) -> IntVec:
    """The unique vector in N(R) congruent to every remainder, R the
    HNF-normalized lcrm of all moduli; with ``into``, a basis of the same
    lattice (an lcrm representative such as a designated lcrm), the unique
    vector in N(into) instead, from the same single reduction.

    Each congruence is a ``(modulus, remainder)`` pair, a ``Congruence``
    included. The remainder may be any representative of its class: the
    solution is reduced once, at the end, so no remainder is reduced first.

    The system is solved by the ``CrtPlan`` of the moduli in input order,
    built on first use and kept for the ``_PLANS_KEPT`` most recently used
    tuples of moduli. The result does not depend on that order: the common
    solution is unique modulo the lcrm, which is one lattice whatever the
    order, and both R and the representative in N(R) are canonical for it.
    Raises ValueError for no congruences, DimensionMismatch for moduli of
    mixed dimension, and Inconsistent when the system has no integer
    solution.
    """
    if not congruences:
        raise ValueError("crt_solve needs at least one congruence")
    moduli, remainders = zip(*congruences)
    return _plan(moduli).solve(remainders, into)
