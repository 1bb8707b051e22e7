"""Multi-stage robust reconstruction.

Moduli are processed in stages: within each declared group the single-stage
scheme runs with the group's first member as anchor, and the group's lcrm is
rebased so that the group's robustly determinable range is exactly one FPD.
That rebasing is possible precisely when the Hermite normal form of
``anchor^{-1} lcrm(group)`` is diagonal, which is the admission test for a
group. Group estimates (exact rationals, never rounded) become the next
stage's remainders; the final stage combines the surviving lcrms with a free
anchor choice.

Per-group error bounds follow the path map ``phi``: the bound of an initial
group is the minimum of its own stage-1 bound, the bounds of every later
group its output flows through, and the final-stage bound. Singleton groups
impose no bound (represented as ``None`` for +infinity).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crt_core import lcrm_many
from .errors import (
    CoverageIncomplete,
    DuplicateOutput,
    GroupConditionFailed,
)
from .exact_linalg import IntMatrix, Scalar, hnf
from .lattice import FpdUnionRegion
from .robust import RobustInstance, RobustOutput, build_instance, robust_reconstruct

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
    """One group within a stage; the first member index is the anchor."""

    member_indices: tuple[int, ...]
    designated_lcrm: IntMatrix
    delta_sq: Fraction | None  # None means +infinity (singleton group)
    instance: RobustInstance | None  # None for singletons

    @property
    def anchor_index(self) -> int:
        return self.member_indices[0]

    @property
    def is_singleton(self) -> bool:
        return len(self.member_indices) == 1


@dataclass(frozen=True)
class PerGroupBound:
    group_index: int
    tau_max_sq: Fraction | None  # None means +infinity


@dataclass(frozen=True, eq=False)
class GroupingPlan:
    moduli: tuple[IntMatrix, ...]
    stages: tuple[tuple[StageGroup, ...], ...]
    final_inputs: tuple[IntMatrix, ...]
    final_anchor: int
    final_lcrm: IntMatrix
    final_instance: RobustInstance | None  # None when a single matrix survives
    delta_final_sq: Fraction | None
    phi: tuple[dict[int, frozenset[int]], ...]  # phi[s-2] maps initial group -> stage-s groups
    per_group_bounds: tuple[PerGroupBound, ...]


def _min_bound(values: list[Fraction | None]) -> Fraction | None:
    finite = [v for v in values if v is not None]
    return min(finite) if finite else None


def build_plan(moduli: Sequence[IntMatrix], grouping: Grouping) -> GroupingPlan:
    """Validate a declared grouping and precompute every stage bound.

    ``grouping`` lists the non-final stages; each stage is a list of groups,
    each group a list of indices into the previous stage's outputs with the
    anchor first. Groups may overlap, but every stage must cover all of its
    inputs. Raises GroupConditionFailed naming the offending group,
    CoverageIncomplete, or DuplicateOutput when two group lcrms generate the
    same lattice.
    """
    moduli = tuple(moduli)
    if not grouping or not all(stage for stage in grouping):
        raise CoverageIncomplete("grouping must declare at least one non-empty stage")

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

    if len(inputs) >= 2:
        final_instance = build_instance(inputs)
        final_anchor = final_instance.anchor
        final_lcrm = final_instance.lcrm
        delta_final_sq: Fraction | None = final_instance.tau_bound_sq
    else:
        final_instance = None
        final_anchor = 0
        final_lcrm = inputs[0]
        delta_final_sq = None

    # phi: which later-stage groups consume each initial group's output
    phi: list[dict[int, frozenset[int]]] = []
    reach = {i: frozenset([i]) for i in range(len(stages[0]))}
    for s in range(1, len(stages)):
        step: dict[int, frozenset[int]] = {}
        for i in reach:
            step[i] = frozenset(
                k for k, grp in enumerate(stages[s]) if reach[i] & set(grp.member_indices)
            )
        phi.append(step)
        reach = step

    bounds = []
    for i, grp in enumerate(stages[0]):
        chain: list[Fraction | None] = [grp.delta_sq]
        for s_idx, step in enumerate(phi):
            for k in step[i]:
                chain.append(stages[s_idx + 1][k].delta_sq)
        chain.append(delta_final_sq)
        bounds.append(PerGroupBound(group_index=i, tau_max_sq=_min_bound(chain)))

    return GroupingPlan(
        moduli=moduli,
        stages=tuple(stages),
        final_inputs=inputs,
        final_anchor=final_anchor,
        final_lcrm=final_lcrm,
        final_instance=final_instance,
        delta_final_sq=delta_final_sq,
        phi=tuple(phi),
        per_group_bounds=tuple(bounds),
    )


def multistage_reconstruct(
    plan: GroupingPlan, noisy_remainders: Sequence[Sequence[Scalar]]
) -> RobustOutput:
    """Run every stage and return the final averaged estimate.

    Group estimates stay exact rationals between stages; singleton groups
    pass their remainder through unchanged. Inconsistent propagates from the
    congruence solver and marks a failed trial.
    """
    if len(noisy_remainders) != len(plan.moduli):
        raise ValueError("one remainder per stage-1 modulus required")
    current: list[Sequence[Scalar]] = list(noisy_remainders)
    for stage in plan.stages:
        nxt: list[Sequence[Scalar]] = []
        for grp in stage:
            rems = [current[i] for i in grp.member_indices]
            if grp.is_singleton:
                nxt.append(tuple(Fraction(x) for x in rems[0]))
            else:
                out = robust_reconstruct(grp.instance, rems, designated_lcrm=grp.designated_lcrm)
                nxt.append(out.estimate)
        current = nxt
    if plan.final_instance is None:
        est = tuple(Fraction(x) for x in current[0])
        return RobustOutput(estimate=est, folds=())
    return robust_reconstruct(plan.final_instance, current)


def final_region(plan: GroupingPlan) -> FpdUnionRegion:
    """Shifted-FPD union of the final anchor that the last stage can recover."""
    anchor = plan.final_inputs[plan.final_anchor]
    return FpdUnionRegion(anchor, anchor.left_quotient(plan.final_lcrm))
