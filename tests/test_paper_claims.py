"""The source paper's abstract, claim by claim, as exact tests.

Claims tested elsewhere are pointed to, not repeated:

* "they generate lattices with longer shortest vectors [...] compared to
  diagonal ones": ``tests/test_svp_search.py::TestSearch::
  test_termination_bound_and_strictness`` asserts, for every prime
  p < 200, that the best HNF lattice ``[[1,0],[i,p]]`` has a shortest
  vector longer than the best diagonal modulus of determinant p.
"""

from fractions import Fraction

import pytest

from mdcrt.crt_core import lcrm
from mdcrt.drange import max_coprime_set, max_dynamic_range
from mdcrt.exact_linalg import IntMatrix
from mdcrt.lattice import LatticeBasis, shortest_vector
from mdcrt.multistage import build_plan, final_region
from mdcrt.svp_search import search_max_svp

from conftest import FIG2_NONDIAG_GROUPING, FIG2_NONDIAG_MODULI, FIG3_GROUPING, FIG3_MODULI


def hnf_sublattices(q):
    """Every sublattice of Z^2 of index at most q, once each, by its Hermite
    form ``[[a,0],[b,c]]`` with ``0 <= b < c``: sigma(1) + ... + sigma(q)
    lattices."""
    return [
        IntMatrix.from_rows([[a, 0], [b, c]])
        for a in range(1, q + 1)
        for c in range(1, q // a + 1)
        for b in range(c)
    ]


@pytest.mark.parametrize("q, count", [(6, 33), (10, 87), (16, 220)])
def test_non_diagonal_moduli_do_not_increase_the_dynamic_range(q, count):
    """Abstract: "We show that under the same determinant constraint,
    non-diagonal matrices do not increase the dynamic range".

    The dynamic range of a set of moduli is |det| of their lcrm. Any set of
    moduli with |det| at most q spans lattices among the ``count``
    sublattices of Z^2 of index at most q, so its lcrm lattice contains the
    intersection of all of them, and its dynamic range divides that
    intersection's index. That index is lcm(1..q)^2, which diagonal moduli
    already reach (``max_dynamic_range``)."""
    lattices = hnf_sublattices(q)
    assert len(lattices) == count
    bound = max_dynamic_range(q, 2)
    assert abs(lcrm(*lattices).det) == bound
    diagonal = [IntMatrix.diag(m, m) for m in max_coprime_set(q).members]
    assert abs(lcrm(*diagonal).det) == bound


def minima_ratio(basis):
    """lambda_2^2 / lambda_1^2 of a 2D lattice: the squared norms of its
    Lagrange-Gauss-reduced basis, the successive minima, in order."""
    lattice = LatticeBasis(basis)
    first, second = (sum(x * x for x in col) for col in zip(*lattice.reduced.rows))
    assert first == shortest_vector(lattice)[0] <= second
    return Fraction(second, first)


@pytest.mark.parametrize(
    "p, achiever_ratio", [(211, Fraction(233, 229)), (881, Fraction(1018, 1009)), (3257, Fraction(3733, 3730))]
)
def test_non_diagonal_moduli_give_better_conditioned_sampling_patterns(p, achiever_ratio):
    """Abstract: "non-diagonal matrices [...] yield more balanced and
    better-conditioned sampling patterns".

    Measured by lambda_2^2 / lambda_1^2 of the sampling lattice, 1 for a
    square grid. At prime determinant p the first lattice ``[[1,0],[i,p]]``
    with the longest shortest vector is within 2% of square, while
    diag(1, p), the only diagonal basis of determinant p up to order, has
    ratio p^2."""
    first = min(search_max_svp(p).achievers)
    ratio = minima_ratio(IntMatrix.from_rows([[1, 0], [first, p]]))
    assert ratio == achiever_ratio < Fraction(102, 100)
    assert minima_ratio(IntMatrix.diag(1, p)) == p * p


@pytest.mark.parametrize(
    "moduli, grouping, single, two_stage, size",
    [
        (FIG3_MODULI, FIG3_GROUPING, Fraction(1, 16), [Fraction(773, 16)] * 2, 3171932504064),
        (
            FIG2_NONDIAG_MODULI,
            FIG2_NONDIAG_GROUPING,
            Fraction(9081, 4),
            [Fraction(25225, 4), Fraction(444969, 4)],
            230354100900,
        ),
    ],
    ids=["fig3", "fig2_nondiag"],
)
def test_multi_stage_improves_robustness_without_reducing_dynamic_range(
    moduli, grouping, single, two_stage, size
):
    """Abstract: "we develop a multi-stage robust MD-CRT framework that
    improves the robustness level without reducing the dynamic range".

    Every per-group bound of the shipped two-stage plan (tau^2 below it is
    corrected) beats the single-stage bound, and the two-stage final region
    holds as many points as the single-stage one."""
    one_stage = build_plan(moduli, ())
    plan = build_plan(moduli, grouping)
    assert [b.tau_max_sq for b in one_stage.per_group_bounds] == [single]
    assert [b.tau_max_sq for b in plan.per_group_bounds] == two_stage
    assert min(two_stage) > single
    assert final_region(plan).size == final_region(one_stage).size == size
