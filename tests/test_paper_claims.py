"""The source paper's abstract, claim by claim, as exact tests.

Claims tested elsewhere are pointed to, not repeated:

* "they generate lattices with longer shortest vectors [...] compared to
  diagonal ones": ``tests/test_svp_search.py::TestSearch::
  test_termination_bound_and_strictness`` asserts, for every prime
  p < 200, that the best HNF lattice ``[[1,0],[i,p]]`` has a shortest
  vector longer than the best diagonal modulus of determinant p.
"""

import pytest

from mdcrt.crt_core import lcrm
from mdcrt.drange import max_coprime_set, max_dynamic_range
from mdcrt.exact_linalg import IntMatrix


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
