"""Exact integer-matrix Chinese remainder theorem toolkit.

Vector remainders modulo nonsingular integer matrices, Hermite/Smith normal
forms, matrix gcld/lcrm, exact lattice SVP/CVP, robust single-stage and
multi-stage reconstruction, and seeded Monte-Carlo sweeps.
"""

from .crt_core import Congruence, crt_solve, gcld, is_coprime, lcrm
from .exact_linalg import IntMatrix, adjugate, det, hnf, parse_matrix, snf
from .lattice import FpdUnionRegion, LatticeBasis, closest_vector, reduce_mod, shortest_vector
from .multistage import GroupingPlan, build_plan, check_group_condition, final_region, multistage_reconstruct
from .robust import RobustInstance, RobustOutput, build_instance, robust_reconstruct, robustly_determinable_region
from .svp_search import SearchResult, best_diagonal_svp, search_max_svp

__all__ = [
    "Congruence",
    "FpdUnionRegion",
    "GroupingPlan",
    "IntMatrix",
    "LatticeBasis",
    "RobustInstance",
    "RobustOutput",
    "SearchResult",
    "adjugate",
    "best_diagonal_svp",
    "build_instance",
    "build_plan",
    "check_group_condition",
    "closest_vector",
    "crt_solve",
    "det",
    "final_region",
    "gcld",
    "hnf",
    "is_coprime",
    "lcrm",
    "multistage_reconstruct",
    "parse_matrix",
    "reduce_mod",
    "robust_reconstruct",
    "robustly_determinable_region",
    "search_max_svp",
    "shortest_vector",
    "snf",
]

__version__ = "0.1.0"
