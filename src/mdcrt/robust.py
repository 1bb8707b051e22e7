"""Single-stage robust reconstruction from erroneous vector remainders.

Given moduli M_1..M_L, an anchor index is chosen to maximize the smallest
shortest-vector length among the gcld lattices paired with it. Reconstruction
snaps remainder differences onto those gcld lattices by exact closest-vector
computation, solves the resulting error-free congruence system, and averages.

Remainders may carry exact rational entries: later stages of the multi-stage
scheme feed averaged estimates back in without rounding. Reconstruction
scales them once to integer vectors over their common denominator T, so the
differences, folds and sums are integers and each estimate coordinate is one
``Fraction`` built at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crt_core import Congruence, crt_solve, gcld, lcrm_many
from .errors import DimensionMismatch, DimensionUnsupported, DuplicateModuli, NotAnLcrm
from .exact_linalg import IntMatrix, IntVec, Scalar, vec_sub
from .lattice import MAX_DIM, FpdUnionRegion, LatticeBasis, closest_vector, shortest_vector

# Reconstruction reduces only inside ``Congruence`` and ``crt_solve``. The
# name stays bound here because tools that count or time ``reduce_mod``
# (bench/tracer.py) rebind it in every module that holds it, and its
# harness test asserts this module is one of them.
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
    can break.

    ``anchor_congruence`` is the anchor's constant congruence
    ``f = M_anchor n + 0``, built once for every reconstruction.
    """

    moduli: tuple[IntMatrix, ...]
    anchor: int
    tau_bound_sq: Fraction
    lcrm: IntMatrix
    anchor_lattices: dict[int, LatticeBasis]
    anchor_congruence: Congruence

    @property
    def count(self) -> int:
        return len(self.moduli)

    @property
    def dim(self) -> int:
        return self.moduli[0].dim


def build_instance(moduli: Sequence[IntMatrix], anchor: int | None = None) -> RobustInstance:
    """Compute the gcld table, select the anchor, and fix the error bound.

    The anchor maximizes min_{j != i} lambda(L(G_{i,j})), smallest index on
    ties; pass ``anchor`` explicitly to pin it (multi-stage groups do).
    Raises DimensionMismatch for moduli of mixed dimension and
    DimensionUnsupported above ``lattice.MAX_DIM``.
    """
    moduli = tuple(moduli)
    if len(moduli) < 2:
        raise ValueError("a robust instance needs at least two moduli")
    d = moduli[0].dim
    if any(m.dim != d for m in moduli):
        raise DimensionMismatch("moduli of mixed dimension")
    if d > MAX_DIM:
        raise DimensionUnsupported(f"robust reconstruction supports dim <= {MAX_DIM}")
    if len(set(moduli)) != len(moduli):
        raise DuplicateModuli("moduli must be distinct")

    pair_lattice: dict[tuple[int, int], LatticeBasis] = {}
    pair_lambda_sq: dict[tuple[int, int], int] = {}
    n = len(moduli)
    for i in range(n):
        for j in range(i + 1, n):
            g = pair_lattice[(i, j)] = LatticeBasis(gcld(moduli[i], moduli[j]))
            pair_lambda_sq[(i, j)] = shortest_vector(g)[0]

    def row_min(i: int) -> int:
        return min(pair_lambda_sq[(min(i, j), max(i, j))] for j in range(n) if j != i)

    if anchor is None:
        anchor = max(range(n), key=lambda i: (row_min(i), -i))
    elif not 0 <= anchor < n:
        raise ValueError(f"anchor index {anchor} out of range")

    tau_bound_sq = Fraction(row_min(anchor), 16)
    lattices = {j: pair_lattice[(min(anchor, j), max(anchor, j))] for j in range(n) if j != anchor}
    return RobustInstance(
        moduli=moduli,
        anchor=anchor,
        tau_bound_sq=tau_bound_sq,
        lcrm=lcrm_many(moduli),
        anchor_lattices=lattices,
        anchor_congruence=Congruence(moduli[anchor], (0,) * d),
    )


@dataclass(frozen=True)
class RobustOutput:
    """Averaged estimate (exact rational) and the recovered fold terms M_i n_i."""

    estimate: tuple[Fraction, ...]
    folds: tuple[IntVec, ...]


def robust_reconstruct(
    instance: RobustInstance,
    noisy_remainders: Sequence[Sequence[Scalar]],
    designated_lcrm: IntMatrix | None = None,
) -> RobustOutput:
    """Five-step robust reconstruction.

    Snap each remainder difference onto its gcld lattice (exact CVP), solve
    the congruence system for the anchor fold inside N(R), recover the other
    folds, and average: the estimate is ``(T * sum of folds + sum of the
    T * remainders) / (n T)`` for the remainders' common denominator T.
    ``designated_lcrm`` picks which lcrm representative R the anchor fold is
    reduced into, ``instance.lcrm`` (the HNF-normalized lcrm) by default;
    ``crt_solve`` reduces straight into it, once. Each snapped difference
    is its congruence's remainder as it stands: ``Congruence`` reduces it.
    Raises Inconsistent when the snapped values are incompatible, which
    callers treat as a failed trial.
    """
    l0 = instance.anchor
    n = instance.count
    d = instance.dim
    if len(noisy_remainders) != n:
        raise ValueError("one remainder per modulus required")
    if any(len(r) != d for r in noisy_remainders):
        lengths = [len(r) for r in noisy_remainders]
        raise DimensionMismatch(f"remainders must have length {d}, got lengths {lengths}")
    # every remainder as an integer vector over one denominator t
    t = math.lcm(*(x.denominator for r in noisy_remainders for x in r))
    scaled = [tuple(x.numerator * (t // x.denominator) for x in r) for r in noisy_remainders]

    snapped: dict[int, IntVec] = {}
    for j in range(n):
        if j == l0:
            continue
        diff = vec_sub(scaled[j], scaled[l0])
        if t > 1:
            diff = tuple(Fraction(x, t) for x in diff)
        snapped[j] = closest_vector(instance.anchor_lattices[j], diff)

    congruences = [
        instance.anchor_congruence if j == l0 else Congruence(m, snapped[j])
        for j, m in enumerate(instance.moduli)
    ]
    anchor_fold = crt_solve(congruences, into=designated_lcrm).value

    folds = tuple(anchor_fold if j == l0 else vec_sub(anchor_fold, snapped[j]) for j in range(n))
    estimate = tuple(
        [Fraction(t * sum(fk) + sum(rk), n * t) for fk, rk in zip(zip(*folds), zip(*scaled))]
    )
    return RobustOutput(estimate=estimate, folds=folds)


def verify_lcrm(instance: RobustInstance, candidate: IntMatrix) -> None:
    """Raise NotAnLcrm unless ``candidate`` is an lcrm of the instance moduli."""
    for m in instance.moduli:
        if not m.divides_left(candidate):
            raise NotAnLcrm(f"{candidate} is not a right multiple of {m}")
    if abs(candidate.det) != abs(instance.lcrm.det):
        raise NotAnLcrm(
            f"|det| = {abs(candidate.det)} but the intersection lattice has index {abs(instance.lcrm.det)}"
        )


def robustly_determinable_region(
    instance: RobustInstance, designated_lcrm: IntMatrix
) -> FpdUnionRegion:
    """Union of shifted anchor FPDs covering every robustly reconstructible f
    for the chosen lcrm representative."""
    verify_lcrm(instance, designated_lcrm)
    anchor = instance.moduli[instance.anchor]
    return FpdUnionRegion(anchor, anchor.left_quotient(designated_lcrm))
