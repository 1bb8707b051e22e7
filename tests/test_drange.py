import pytest

from mdcrt.crt_core import is_coprime, lcrm
from mdcrt.drange import max_coprime_set, max_dynamic_range
from mdcrt.exact_linalg import IntMatrix
from conftest import brute_intersection_det, diagonal_moduli_construction, lcm_range


class TestCoprimeSet:
    def test_cap_one(self):
        cs = max_coprime_set(1)
        assert cs.members == ()
        assert cs.product == 1

    def test_cap_four(self):
        cs = max_coprime_set(4)
        assert set(cs.members) == {4, 3}
        assert cs.product == 12 == lcm_range(4)

    def test_cap_ten(self):
        cs = max_coprime_set(10)
        assert set(cs.members) == {8, 9, 5, 7}
        assert cs.product == 2520 == lcm_range(10)

    def test_lcm_across_caps(self):
        import math

        for q in range(1, 61):
            cs = max_coprime_set(q)
            assert cs.product == lcm_range(q)
            assert all(m <= q for m in cs.members)
            for i in range(len(cs.members)):
                for j in range(i + 1, len(cs.members)):
                    assert math.gcd(cs.members[i], cs.members[j]) == 1


class TestDynamicRange:
    def test_trivial(self):
        assert max_dynamic_range(1, 3) == 1

    def test_examples(self):
        assert max_dynamic_range(4, 2) == 144
        assert max_dynamic_range(10, 2) == 2520**2


class TestConstruction:
    def test_cap_one_empty(self):
        assert diagonal_moduli_construction(1, 2) == []

    def test_q4_d2(self):
        mods = diagonal_moduli_construction(4, 2)
        assert {str(m) for m in mods} == {
            "[[4,0],[0,1]]",
            "[[1,0],[0,4]]",
            "[[3,0],[0,1]]",
            "[[1,0],[0,3]]",
        }
        assert lcrm(*mods) == IntMatrix.diag(12, 12)

    def test_pairwise_coprime(self):
        mods = diagonal_moduli_construction(10, 2)
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                assert is_coprime(mods[i], mods[j])

    def test_achieves_range(self):
        for q in range(2, 13):
            mods = diagonal_moduli_construction(q, 2)
            assert abs(lcrm(*mods).det) == max_dynamic_range(q, 2)

    def test_pairwise_lcrm_matches_brute_intersection(self):
        mods = diagonal_moduli_construction(4, 2)
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                assert abs(lcrm(mods[i], mods[j]).det) == brute_intersection_det(
                    mods[i], mods[j]
                )

    def test_upper_bound_right_multiple(self):
        # diag(lcm, lcm) is a right multiple of every matrix with |det| <= q,
        # checked over all 2x2 HNF representatives
        for q in (4, 6):
            l = lcm_range(q)
            r = IntMatrix.diag(l, l)
            for det in range(1, q + 1):
                for a in range(1, det + 1):
                    if det % a:
                        continue
                    b = det // a
                    for c in range(b):
                        h = IntMatrix.from_rows([[a, 0], [c, b]])
                        assert h.divides_left(r)
