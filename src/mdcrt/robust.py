"""Single-stage robust reconstruction from erroneous vector remainders.

Given moduli M_1..M_L, an anchor index is chosen to maximize the smallest
shortest-vector length among the gcld lattices paired with it. Reconstruction
snaps remainder differences onto those gcld lattices by exact closest-vector
computation, solves the resulting error-free congruence system, and averages.

Remainders are read over one denominator T = ``den``: later stages of the
multi-stage scheme feed averaged estimates back in without rounding, as the
integer numerators of the earlier stage's output with its denominator
passed as ``den``. The differences, folds and sums are then integers, and
so is the output: the estimate is held as integer numerators over one
denominator ``n T``. Its ``Fraction`` coordinates, and the folds, are built
only when read. Rational remainders take the same steps, each exact on
rationals, and give rational numerators over ``n T``, read the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import sub
from typing import NamedTuple, Sequence

from .crt_core import check_remainder_shape, crt_solve, gcld, lcrm
from .errors import DimensionMismatch, DimensionUnsupported, DuplicateModuli, NotAnLcrm, SingularMatrix
from .exact_linalg import IntMatrix, IntVec, Scalar
from .lattice import MAX_DIM, FpdUnionRegion, LatticeBasis, closest_vector, shortest_vector

# Unused: reconstruction reduces only inside ``crt_solve``. Tools that count
# ``reduce_mod`` (bench/tracer.py) rebind it in every module holding it, and
# their harness test asserts that this module is one of them.
from .lattice import reduce_mod  # noqa: F401


@dataclass(frozen=True, eq=False)
class RobustInstance:
    """Precomputed data for one set of moduli: anchor, bound, lcrm, and the
    gcld lattices ``anchor_lattices[j] = L(gcld(M_anchor, M_j))`` that
    reconstruction snaps onto.

    ``tau_bound_sq`` is min over j != anchor of lambda^2(L(G_{anchor,j})) / 16,
    the square of lambda / 4. The guarantee is strict: reconstruction
    succeeds whenever every error has squared norm below ``tau_bound_sq``.
    At equality it can fail, since two errors of norm lambda / 4 in
    opposite directions differ by half a shortest vector, a tie no decoder
    can break. A one-modulus instance has no pairs, so its bound is the
    minimum over an empty set, +infinity, written ``None``: its estimate is
    its remainder.
    """

    moduli: tuple[IntMatrix, ...]
    anchor: int
    tau_bound_sq: Fraction | None  # None means +infinity (one modulus)
    lcrm: IntMatrix
    anchor_lattices: dict[int, LatticeBasis]

    @property
    def count(self) -> int:
        return len(self.moduli)


def build_instance(moduli: Sequence[IntMatrix], anchor: int | None = None) -> RobustInstance:
    """Select the anchor, build its gcld lattices, and fix the error bound.

    The anchor maximizes min_{j != i} lambda(L(G_{i,j})), smallest index on
    ties, which reads all k(k-1)/2 pair lattices, each built once; pass
    ``anchor`` explicitly to pin it (multi-stage groups do) and build only
    its k - 1.
    One modulus M gives the degenerate instance: anchor 0, bound ``None``,
    lcrm hnf(M) and no lattices. Raises ValueError for no moduli,
    DimensionMismatch for moduli of mixed dimension and
    DimensionUnsupported above ``lattice.MAX_DIM``.
    """
    moduli = tuple(moduli)
    if not moduli:
        raise ValueError("a robust instance needs at least one modulus")
    d = moduli[0].dim
    if any(m.dim != d for m in moduli):
        raise DimensionMismatch("moduli of mixed dimension")
    if d > MAX_DIM:
        raise DimensionUnsupported(f"robust reconstruction supports dim <= {MAX_DIM}")
    if len(set(moduli)) != len(moduli):
        raise DuplicateModuli("moduli must be distinct")

    n = len(moduli)
    if anchor is not None and not 0 <= anchor < n:
        raise ValueError(f"anchor index {anchor} out of range")

    @cache
    def pair(i: int, j: int) -> LatticeBasis:
        return LatticeBasis(gcld(moduli[i], moduli[j]))

    def row(i: int) -> dict[int, LatticeBasis]:
        return {j: pair(min(i, j), max(i, j)) for j in range(n) if j != i}

    def row_min(i: int) -> int | None:
        return min((shortest_vector(g)[0] for g in row(i).values()), default=None)

    if anchor is None:
        anchor = max(range(n), key=lambda i: (row_min(i), -i))
    lambda_sq = row_min(anchor)
    tau_bound_sq = None if lambda_sq is None else Fraction(lambda_sq, 16)
    return RobustInstance(
        moduli=moduli,
        anchor=anchor,
        tau_bound_sq=tau_bound_sq,
        lcrm=lcrm(*moduli),
        anchor_lattices=row(anchor),
    )


class RobustOutput(NamedTuple):
    """Averaged estimate ``numerators / den`` (integers for integer
    remainders, rationals for rational ones; ``den`` not reduced) and the
    recovered fold terms M_i n_i, which are ``anchor_fold - snapped[i]``
    (the anchor's snapped difference is zero), as an immutable named tuple.

    ``estimate``, the exact rationals, and ``folds`` are built on each
    read; a later stage reads ``numerators`` and ``den`` instead. Two
    outputs are equal, and hash alike, when their estimates and folds are
    ((1, 2) over 3 equals (2, 4) over 6), and never equal a plain tuple.
    """

    numerators: tuple[Scalar, ...]
    den: int
    anchor_fold: IntVec
    snapped: tuple[IntVec, ...]

    @property
    def estimate(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(x, den) for x in self.numerators])

    @property
    def folds(self) -> tuple[IntVec, ...]:
        a = self.anchor_fold
        return tuple([tuple([x - y for x, y in zip(a, v)]) for v in self.snapped])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RobustOutput) and self.estimate == other.estimate and self.folds == other.folds

    def __ne__(self, other: object) -> bool:  # tuple's own would compare fields
        return not self == other

    def __hash__(self) -> int:
        return hash((self.estimate, self.folds))


def robust_reconstruct(
    instance: RobustInstance,
    noisy_remainders: Sequence[Sequence[Scalar]],
    designated_lcrm: IntMatrix | None = None,
    den: int = 1,
) -> RobustOutput:
    """Five-step robust reconstruction of the remainders
    ``noisy_remainders / den``.

    Snap each remainder difference onto its gcld lattice (exact CVP), solve
    the congruence system for the anchor fold inside N(R), recover the other
    folds, and average: with T = ``den``, the estimate is
    ``(T * sum of folds + sum of the remainders) / (n T)``. ``den`` need
    not be reduced against the remainders. ``designated_lcrm`` picks which
    lcrm representative R the anchor fold is reduced into, ``instance.lcrm``
    (the HNF-normalized lcrm) by default. ``crt_solve`` gets one
    ``(modulus, remainder)`` pair per member, the anchor's ``(M_anchor, 0)``
    and each snapped difference unreduced, and reduces straight into that
    lcrm, once. Each difference is snapped over T (``closest_vector``'s
    ``den``), with no ``Fraction`` per coordinate for integer remainders,
    and the output holds the estimate as numerators over ``n T``: integers
    for integer remainders, rationals for rational ones. A one-modulus
    instance solves nothing: its estimate is its remainder over ``den``,
    and its one fold is zero, the reduction of zero into any lcrm basis;
    ``designated_lcrm`` is still checked as that reduction would check it.
    Raises ValueError for ``den`` below 1, SingularMatrix or
    DimensionMismatch for a singular or wrong-size ``designated_lcrm``, and
    Inconsistent when the snapped values are incompatible, which callers
    treat as a failed trial.
    """
    if den < 1:
        raise ValueError(f"robust_reconstruct needs a denominator of at least 1, got {den}")
    l0 = instance.anchor
    moduli = instance.moduli
    n = len(moduli)
    check_remainder_shape(noisy_remainders, n, moduli[0].dim)
    base = noisy_remainders[l0]
    zero = (0,) * len(base)
    if n == 1:
        if designated_lcrm is not None:
            if designated_lcrm.det == 0:
                raise SingularMatrix("modulus must be nonsingular")
            if designated_lcrm.nrows != len(base):
                raise DimensionMismatch(f"{designated_lcrm.nrows}-row lcrm for length-{len(base)} remainders")
        return RobustOutput(tuple(base), den, zero, (zero,))
    lattices = instance.anchor_lattices
    snapped = tuple(
        [
            zero if j == l0 else closest_vector(lattices[j], [*map(sub, r, base)], den)
            for j, r in enumerate(noisy_remainders)
        ]
    )
    anchor_fold = crt_solve([*zip(moduli, snapped)], into=designated_lcrm)
    # the folds sum to n * anchor_fold - sum(snapped)
    numerators = tuple(
        [
            den * (n * a - sum(vs)) + sum(rs)
            for a, vs, rs in zip(anchor_fold, zip(*snapped), zip(*noisy_remainders))
        ]
    )
    return RobustOutput(numerators, n * den, anchor_fold, snapped)


def robustly_determinable_region(
    instance: RobustInstance, designated_lcrm: IntMatrix
) -> FpdUnionRegion:
    """Union of shifted anchor FPDs covering every robustly reconstructible f
    for the chosen lcrm representative. Raises NotAnLcrm unless
    ``designated_lcrm`` is an lcrm of the instance moduli."""
    for m in instance.moduli:
        if not m.divides_left(designated_lcrm):
            raise NotAnLcrm(f"{designated_lcrm} is not a right multiple of {m}")
    if abs(designated_lcrm.det) != abs(instance.lcrm.det):
        raise NotAnLcrm(
            f"|det| = {abs(designated_lcrm.det)} but the intersection lattice has index {abs(instance.lcrm.det)}"
        )
    anchor = instance.moduli[instance.anchor]
    return FpdUnionRegion(anchor, anchor.left_quotient(designated_lcrm))
