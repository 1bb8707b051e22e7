"""Multi-stage robust reconstruction.

A plan is a chain of stages. Within each declared group the single-stage
scheme runs with the group's first member as anchor, and the group's lcrm is
rebased so that the group's robustly determinable range is exactly one FPD.
That rebasing is possible precisely when the Hermite normal form of
``anchor^{-1} lcrm(group)`` is diagonal, which is the admission test for a
group. Group estimates (exact rationals, never rounded) become the next
stage's remainders. The last stage of every plan is one final group that
combines the surviving lcrms with a free anchor choice (a singleton when one
lcrm survives). With no declared stages the final group takes the moduli
themselves, so single-stage reconstruction is the zero-stage plan.

Per-group error bounds follow the path map ``phi``: the bound of an initial
group is the minimum of its own stage-1 bound and the bounds of every later
group its output flows through, the final group included. Singleton groups
impose no bound (represented as ``None`` for +infinity). Every bound is
strict, as in ``RobustInstance``: errors whose squared norm lies below it
are corrected, and an error at it can be lost to a CVP tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crt_core import lcrm_many
from .errors import (
    CoverageIncomplete,
    DimensionMismatch,
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

    Singleton groups pass trivially and return their only modulus.
    """
    if not 0 <= anchor_index < len(moduli):
        raise ValueError("anchor index out of range")
    if len(moduli) == 1:
        return moduli[0]
    return _rebased_lcrm(moduli[anchor_index], lcrm_many(moduli))


def _rebased_lcrm(anchor: IntMatrix, total: IntMatrix) -> IntMatrix | None:
    """``anchor @ D`` when HNF(anchor^{-1} total) is a diagonal D, else None."""
    h = hnf(anchor.left_quotient(total))
    return anchor @ h if h.is_diagonal() else None


@dataclass(frozen=True, eq=False)
class StageGroup:
    """One group within a stage. Its anchor is ``instance.anchor``: the
    first member in a declared group, the free choice in the final one."""

    member_indices: tuple[int, ...]
    designated_lcrm: IntMatrix
    delta_sq: Fraction | None  # None means +infinity (singleton group)
    instance: RobustInstance | None  # None for singletons


@dataclass(frozen=True)
class PerGroupBound:
    """Reconstruction succeeds when every error of initial group
    ``group_index`` has squared norm strictly below ``tau_max_sq``."""

    group_index: int
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
            if len(members) == 1:
                groups.append(StageGroup(member_idx, members[0], None, None))
                continue
            inst = build_instance(members, anchor=0)
            designated = _rebased_lcrm(members[0], inst.lcrm)
            if designated is None:
                raise GroupConditionFailed(
                    f"stage {s} group {g} (members {list(member_idx)}): "
                    "HNF of anchor^-1 lcrm is not diagonal"
                )
            groups.append(StageGroup(member_idx, designated, inst.tau_bound_sq, inst))
        if seen != set(range(len(inputs))):
            missing = sorted(set(range(len(inputs))) - seen)
            raise CoverageIncomplete(f"stage {s} leaves moduli {missing} uncovered")
        outputs = tuple(grp.designated_lcrm for grp in groups)
        canon = [hnf(r) for r in outputs]
        for i in range(len(canon)):
            for j in range(i + 1, len(canon)):
                if canon[i] == canon[j]:
                    raise DuplicateOutput(
                        f"stage {s} groups {i} and {j} produce the same lattice"
                    )
        stages.append(tuple(groups))
        inputs = outputs

    if len(inputs) >= 2 or not stages:
        inst = build_instance(inputs)
        final = StageGroup(tuple(range(len(inputs))), inst.lcrm, inst.tau_bound_sq, inst)
    else:
        final = StageGroup((0,), inputs[0], None, None)
    stages.append((final,))

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
        path = [grp.delta_sq] + [
            stages[s][k].delta_sq for s, step in enumerate(phi, start=1) for k in step[i]
        ]
        finite = [d for d in path if d is not None]
        bounds.append(PerGroupBound(group_index=i, tau_max_sq=min(finite, default=None)))

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

    Group estimates stay exact rationals between stages; singleton groups
    pass their remainder through unchanged, with no folds. Raises
    DimensionMismatch for a remainder whose length is not the moduli's
    size; Inconsistent propagates from the congruence solver and marks a
    failed trial.
    """
    if len(noisy_remainders) != len(plan.moduli):
        raise ValueError("one remainder per modulus required")
    d = plan.moduli[0].dim
    if any(len(r) != d for r in noisy_remainders):
        lengths = [len(r) for r in noisy_remainders]
        raise DimensionMismatch(f"remainders must have length {d}, got lengths {lengths}")
    current: Sequence[Sequence[Scalar]] = noisy_remainders
    for stage in plan.stages:
        outputs = []
        for grp in stage:
            rems = [current[i] for i in grp.member_indices]
            if grp.instance is None:
                outputs.append(RobustOutput(estimate=tuple(Fraction(x) for x in rems[0]), folds=()))
            else:
                outputs.append(
                    robust_reconstruct(grp.instance, rems, designated_lcrm=grp.designated_lcrm)
                )
        current = [out.estimate for out in outputs]
    return outputs[0]


def final_region(plan: GroupingPlan) -> FpdUnionRegion:
    """Shifted-FPD union of the final anchor that the last stage can recover;
    a singleton final group recovers one FPD of its lcrm."""
    final = plan.final
    if final.instance is None:
        return FpdUnionRegion(final.designated_lcrm, IntMatrix.identity(final.designated_lcrm.dim))
    return robustly_determinable_region(final.instance, final.designated_lcrm)
