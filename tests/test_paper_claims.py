"""The source paper's abstract, claim by claim, as exact tests.

"they generate lattices with longer shortest vectors [...] compared to
diagonal ones" is tested here at every determinant d <= 100, against the
best diagonal modulus of the same determinant. It holds with equality at
d in {1, 4, 9, 16, 25, 36, 49}, where diag(sqrt(d), sqrt(d)) is already
optimal, and strictly at every other d, other squares (64, 81, 100)
included. ``tests/test_svp_search.py::TestSearch::
test_termination_bound_and_strictness`` checks the prime case through the
search itself: for every prime p < 200, the best HNF lattice
``[[1,0],[i,p]]`` has a shortest vector longer than the best diagonal
modulus of determinant at most p.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdcrt.crt_core import lcrm
from mdcrt.drange import max_coprime_set, max_dynamic_range
from mdcrt.errors import Inconsistent
from mdcrt.exact_linalg import IntMatrix
from mdcrt.lattice import LatticeBasis, shortest_vector
from mdcrt.multistage import build_plan, final_region
from mdcrt.robust import build_instance, robust_reconstruct
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


def test_non_diagonal_moduli_give_longer_shortest_vectors_at_every_determinant():
    """Abstract: "they generate lattices with longer shortest vectors [...]
    compared to diagonal ones".

    For every d <= 100, the longest shortest vector over all sublattices of
    Z^2 of index d is at least that of the best diagonal modulus of
    determinant d, diag(a, d/a) with lambda_1^2 = min(a, d/a)^2. The two
    tie exactly at the squares d <= 49; every other d, 64, 81 and 100
    included, is strict. Every best lambda_1^2 obeys Hermite's bound
    3 lambda_1^4 <= 4 d^2."""
    best: dict[int, int] = {}
    for m in hnf_sublattices(100):
        d = abs(m.det)
        best[d] = max(best.get(d, 0), shortest_vector(LatticeBasis(m))[0])
    assert sorted(best) == list(range(1, 101))
    ties = []
    for d, lambda_sq in best.items():
        diagonal_sq = max(min(a, d // a) ** 2 for a in range(1, d + 1) if d % a == 0)
        assert lambda_sq >= diagonal_sq
        if lambda_sq == diagonal_sq:
            ties.append(d)
        assert 3 * lambda_sq * lambda_sq <= 4 * d * d
    assert sorted(ties) == [1, 4, 9, 16, 25, 36, 49]


def robust_crt_1d(moduli, remainders):
    """Robust CRT on integers with anchor 0, written without the library:
    snap each r_j - r_0 to the nearest multiple of gcd(M_0, M_j), a half
    going down; solve x = 0 (mod M_0), x = snap_j (mod M_j) into
    [0, lcm); average the remainders plus their folds x - snap_j. Returns
    (estimate, folds) shaped as a D = 1 decode, or None when the snaps are
    inconsistent."""
    m0, r0 = moduli[0], remainders[0]
    snaps = [0]
    x, lcm_ = 0, m0
    for m, r in zip(moduli[1:], remainders[1:]):
        g = math.gcd(m0, m)
        snap = -((g - 2 * (r - r0)) // (2 * g)) * g
        snaps.append(snap)
        h = math.gcd(lcm_, m)
        if (snap - x) % h:
            return None
        t = (snap - x) // h * pow(lcm_ // h, -1, m // h) % (m // h)
        x, lcm_ = x + lcm_ * t, lcm_ * m // h
    x %= lcm_
    folds = tuple((x - snap,) for snap in snaps)
    return (Fraction(sum(remainders) + x * len(snaps) - sum(snaps), len(snaps)),), folds


def anchored_decode(moduli, remainders):
    """(estimate, folds) of ``robust_reconstruct`` with the anchor pinned at
    0, or None when it raises Inconsistent."""
    try:
        out = robust_reconstruct(build_instance(moduli, anchor=0), remainders)
    except Inconsistent:
        return None
    return out.estimate, out.folds


@st.composite
def diagonal_systems(draw):
    """2 to 4 moduli diag(g_x a_i, g_y b_i), with factors distinct per axis so
    that neither axis repeats a modulus, and one remainder per modulus."""
    count = draw(st.integers(2, 4))
    factors = st.lists(st.integers(1, 15), min_size=count, max_size=count, unique=True)
    gx, xs, gy, ys = draw(st.integers(1, 12)), draw(factors), draw(st.integers(1, 12)), draw(factors)
    coord = st.integers(-50, 200)
    remainders = draw(st.lists(st.tuples(coord, coord), min_size=count, max_size=count))
    return [(gx * a, gy * b) for a, b in zip(xs, ys)], remainders


@settings(max_examples=150, deadline=None)
@given(diagonal_systems())
def test_diagonal_moduli_decode_as_independent_one_dimensional_crts(system):
    """Abstract: "When all matrix moduli are diagonal, the system is
    equivalent to applying the one-dimensional CRT independently along each
    dimension".

    The robust decode of diagonal moduli equals, coordinate by coordinate,
    the D = 1 decodes of the two axis projections: the same estimate and
    folds, and Inconsistent exactly when one axis is inconsistent. Each
    D = 1 decode is checked against a 1D robust CRT written out here. The
    anchor is pinned: a free one is chosen from the smaller axis's lambda_1
    and can differ from an axis's own choice. ``configs/fig2_diag.cfg`` is
    not such a system: its moduli are diag(29, 29) times non-diagonal
    matrices."""
    sides, remainders = system
    axes = []
    for k in (0, 1):
        moduli, rems = [s[k] for s in sides], [r[k] for r in remainders]
        axis = anchored_decode([IntMatrix.diag(m) for m in moduli], [(r,) for r in rems])
        assert axis == robust_crt_1d(moduli, rems)
        axes.append(axis)
    two_d = anchored_decode([IntMatrix.diag(x, y) for x, y in sides], remainders)
    assert (two_d is None) == (None in axes)
    if two_d is not None:
        (ex, fx), (ey, fy) = axes
        assert two_d == ((ex[0], ey[0]), tuple((a[0], b[0]) for a, b in zip(fx, fy)))
