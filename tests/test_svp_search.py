import random

import pytest

from mdcrt.errors import NotPrime
from mdcrt.exact_linalg import IntMatrix
from mdcrt.lattice import LatticeBasis, shortest_vector
from mdcrt.svp_search import (
    best_diagonal_svp,
    is_prime,
    primes_below,
    search_max_svp,
)
from conftest import hnf_lattice_matrix


class TestPrimality:
    def test_small(self):
        assert [p for p in range(25) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]

    def test_sieve_agrees(self):
        sieve = set(primes_below(500))
        for n in range(500):
            assert is_prime(n) == (n in sieve)

    def test_large(self):
        assert is_prime(3257)
        assert not is_prime(3257 * 3259)


class TestSearch:
    def test_p2_exhaustive(self):
        # both lattices brute-forced: N_0 has lambda^2 = 1, N_1 has 2
        res = search_max_svp(2)
        assert (res.d, res.achievers) == (2, frozenset({1}))
        assert shortest_vector(LatticeBasis(hnf_lattice_matrix(0, 2)))[0] == 1
        assert shortest_vector(LatticeBasis(hnf_lattice_matrix(1, 2)))[0] == 2

    def test_paper_example(self):
        res = search_max_svp(3257)
        assert res.d == 3730
        assert 971 in res.achievers

    def test_certification(self):
        res = search_max_svp(211)
        for i in sorted(res.achievers):
            assert shortest_vector(LatticeBasis(hnf_lattice_matrix(i, 211)))[0] == res.d
        gen = random.Random(1)
        others = [i for i in range(211) if i not in res.achievers]
        for i in gen.sample(others, 20):
            assert shortest_vector(LatticeBasis(hnf_lattice_matrix(i, 211)))[0] < res.d

    def test_matches_generic_svp_below_100(self):
        # every lattice the search scans, for every prime p < 100, through
        # the generic SVP path: the maximum and the indices reaching it
        for p in primes_below(100):
            lengths = [shortest_vector(LatticeBasis(hnf_lattice_matrix(i, p)))[0] for i in range(p)]
            d = max(lengths)
            res = search_max_svp(p)
            assert (res.d, res.achievers) == (d, frozenset(i for i, x in enumerate(lengths) if x == d))

    def test_membership_rule(self):
        # [x, y] lies in the lattice of [[1,0],[i,p]] iff x*i = y (mod p)
        gen = random.Random(2)
        p = 101
        for _ in range(100):
            i = gen.randrange(p)
            x, y = gen.randint(-200, 200), gen.randint(-200, 200)
            basis = hnf_lattice_matrix(i, p)
            member = all(
                v % basis.det == 0 for v in basis.adj.apply((x, y))
            )
            assert member == ((x * i - y) % p == 0)

    def test_termination_bound_and_strictness(self):
        for p in primes_below(200):
            res = search_max_svp(p)
            assert res.d < p * p
            assert res.d > best_diagonal_svp(p) ** 2

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            search_max_svp(10)


class TestBestDiagonal:
    def test_examples(self):
        assert best_diagonal_svp(1) == 1
        assert best_diagonal_svp(881) == 29
        assert best_diagonal_svp(3257) == 57
