"""Multi-stage robust reconstruction.

A plan is a chain of stages. Within each declared group the single-stage
scheme runs with the group's first member as anchor, and the group's lcrm is
rebased so that the group's robustly determinable range is exactly one FPD.
That rebasing is possible precisely when the Hermite normal form of
``anchor^{-1} lcrm(group)`` is diagonal, which is the admission test for a
group. Group estimates (exact rationals, never rounded) become the next
stage's remainders, handed on as integer numerators over one denominator.
The last stage of every plan is one final group that combines the surviving
lcrms with a free anchor choice; with no declared stages it takes the moduli
themselves, so single-stage reconstruction is the zero-stage plan.

Every group, a singleton included, is one ``RobustInstance``. A singleton
group is the one-modulus instance: its bound is +infinity (``None``), its
lcrm is its modulus and its estimate is its remainder.

Per-group error bounds follow the path map ``phi``: the bound of an initial
group is the minimum of its own stage-1 bound and the bounds of every later
group its output flows through, the final group included; a singleton on
the path adds no limit. Every bound is strict, as in ``RobustInstance``:
errors whose squared norm lies below it are corrected, and an error at it
can be lost to a CVP tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crt_core import check_remainder_shape, lcrm
from .errors import (
    CoverageIncomplete,
    DuplicateOutput,
    GroupConditionFailed,
)
from .exact_linalg import IntMatrix, Scalar, hnf
from .lattice import FpdUnionRegion
from .robust import (
    RobustInstance,
    RobustOutput,
    build_instance,
    robust_reconstruct,
    robustly_determinable_region,
)

Grouping = Sequence[Sequence[Sequence[int]]]


def check_group_condition(moduli: Sequence[IntMatrix], anchor_index: int) -> IntMatrix | None:
    """Admission test for a group: returns the rebased lcrm ``anchor @ D``
    when HNF(anchor^{-1} lcrm(moduli)) is a diagonal D, else None.

    A singleton group passes and returns its only modulus, since
    HNF(M^{-1} hnf(M)) = I.
    """
    if not 0 <= anchor_index < len(moduli):
        raise ValueError("anchor index out of range")
    return _rebased_lcrm(moduli[anchor_index], lcrm(*moduli))


def _rebased_lcrm(anchor: IntMatrix, total: IntMatrix) -> IntMatrix | None:
    """``anchor @ D`` when HNF(anchor^{-1} total) is a diagonal D, else None."""
    h = hnf(anchor.left_quotient(total))
    return anchor @ h if h.is_diagonal() else None


@dataclass(frozen=True, eq=False)
class StageGroup:
    """One group within a stage, always a robust instance (one modulus for
    a singleton). Its anchor is ``instance.anchor``: the first member in a
    declared group, the free choice in the final one. Its bound is
    ``instance.tau_bound_sq``."""

    member_indices: tuple[int, ...]
    designated_lcrm: IntMatrix
    instance: RobustInstance


@dataclass(frozen=True)
class PerGroupBound:
    """Errors of the initial group at this index of ``per_group_bounds`` are
    corrected while their squared norms are strictly below ``tau_max_sq``."""

    tau_max_sq: Fraction | None  # None means +infinity


@dataclass(frozen=True, eq=False)
class GroupingPlan:
    moduli: tuple[IntMatrix, ...]
    stages: tuple[tuple[StageGroup, ...], ...]  # the last stage is the final group alone
    phi: tuple[dict[int, frozenset[int]], ...]  # phi[s-2] maps initial group -> stage-s groups
    per_group_bounds: tuple[PerGroupBound, ...]

    @property
    def final(self) -> StageGroup:
        return self.stages[-1][0]


def build_plan(moduli: Sequence[IntMatrix], grouping: Grouping) -> GroupingPlan:
    """Validate a declared grouping and precompute every stage bound.

    ``grouping`` lists the declared stages; each stage is a list of groups,
    each group a list of indices into the previous stage's outputs with the
    anchor first. Groups may overlap, but every stage must cover all of its
    inputs. The plan appends the final group; with ``grouping == ()`` it is
    the single-stage instance of ``moduli``. Each per-group bound is the
    strict limit tau^2 < ``tau_max_sq`` on that group's errors. Raises
    GroupConditionFailed naming the offending group, CoverageIncomplete, or
    DuplicateOutput when two group lcrms generate the same lattice.
    """
    moduli = tuple(moduli)
    if not all(grouping):
        raise CoverageIncomplete("every declared stage must have a group")
    if not grouping and len(moduli) < 2:
        raise ValueError("a robust instance needs at least two moduli")

    stages: list[tuple[StageGroup, ...]] = []
    inputs: tuple[IntMatrix, ...] = moduli
    for s, stage_spec in enumerate(grouping, start=1):
        seen: set[int] = set()
        groups: list[StageGroup] = []
        for g, member_idx in enumerate(stage_spec):
            member_idx = tuple(member_idx)
            if not member_idx:
                raise CoverageIncomplete(f"stage {s} group {g} is empty")
            if any(not 0 <= i < len(inputs) for i in member_idx):
                raise CoverageIncomplete(f"stage {s} group {g} references an unknown modulus")
            if len(set(member_idx)) != len(member_idx):
                raise CoverageIncomplete(f"stage {s} group {g} repeats a member")
            seen.update(member_idx)
            members = [inputs[i] for i in member_idx]
            inst = build_instance(members, anchor=0)
            designated = _rebased_lcrm(members[0], inst.lcrm)
            if designated is None:
                raise GroupConditionFailed(
                    f"stage {s} group {g} (members {list(member_idx)}): "
                    "HNF of anchor^-1 lcrm is not diagonal"
                )
            groups.append(StageGroup(member_idx, designated, inst))
        if seen != set(range(len(inputs))):
            missing = sorted(set(range(len(inputs))) - seen)
            raise CoverageIncomplete(f"stage {s} leaves moduli {missing} uncovered")
        canon = [grp.instance.lcrm for grp in groups]  # = hnf(designated_lcrm)
        for i in range(len(canon)):
            for j in range(i + 1, len(canon)):
                if canon[i] == canon[j]:
                    raise DuplicateOutput(
                        f"stage {s} groups {i} and {j} produce the same lattice"
                    )
        stages.append(tuple(groups))
        inputs = tuple(grp.designated_lcrm for grp in groups)

    inst = build_instance(inputs)
    stages.append((StageGroup(tuple(range(len(inputs))), inst.lcrm, inst),))

    # phi: which later-stage groups consume each initial group's output
    phi: list[dict[int, frozenset[int]]] = []
    reach = {i: frozenset([i]) for i in range(len(stages[0]))}
    for stage in stages[1:]:
        reach = {
            i: frozenset(k for k, grp in enumerate(stage) if r.intersection(grp.member_indices))
            for i, r in reach.items()
        }
        phi.append(reach)

    bounds = []
    for i, grp in enumerate(stages[0]):
        path = [grp] + [stages[s][k] for s, step in enumerate(phi, start=1) for k in step[i]]
        finite = [g.instance.tau_bound_sq for g in path if g.instance.tau_bound_sq is not None]
        bounds.append(PerGroupBound(min(finite, default=None)))

    return GroupingPlan(
        moduli=moduli,
        stages=tuple(stages),
        phi=tuple(phi),
        per_group_bounds=tuple(bounds),
    )


def multistage_reconstruct(
    plan: GroupingPlan, noisy_remainders: Sequence[Sequence[Scalar]]
) -> RobustOutput:
    """Run every stage and return the final group's output.

    Group estimates stay exact rationals between stages, as integers over
    one denominator: each stage's outputs are brought to the lcm of their
    ``den`` and passed to the next stage with that ``den``, so no
    ``Fraction`` is built before the final estimate is read. A singleton
    group's estimate is its remainder, with one zero fold. Raises
    DimensionMismatch for a remainder of the wrong length; Inconsistent
    propagates from the congruence solver and marks a failed trial.
    """
    check_remainder_shape(noisy_remainders, len(plan.moduli), plan.moduli[0].dim)
    current: Sequence[Sequence[Scalar]] = noisy_remainders
    den = 1
    for stage in plan.stages:
        outputs = [
            robust_reconstruct(
                grp.instance, [current[i] for i in grp.member_indices], grp.designated_lcrm, den
            )
            for grp in stage
        ]
        # the next stage's remainders: every estimate over one denominator
        den = math.lcm(*[out.den for out in outputs])
        current = [nums if d == den else [x * (den // d) for x in nums] for nums, d, _, _ in outputs]
    return outputs[0]


def final_region(plan: GroupingPlan) -> FpdUnionRegion:
    """Shifted-FPD union of the final anchor that the last stage can recover.
    A singleton final group M recovers one FPD: its quotient M^{-1} hnf(M)
    is unimodular, so the union has one shift."""
    final = plan.final
    return robustly_determinable_region(final.instance, final.designated_lcrm)
