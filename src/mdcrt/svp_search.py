"""Search for the prime-determinant HNF lattice with the longest shortest
vector.

Among the lattices generated by ``[[1,0],[i,p]]`` for ``0 <= i < p`` (p
prime), find the largest shortest-nonzero-vector length and the indices that
achieve it. Squared lengths only; the perfect-square test is exact, and
each modular inverse is one ``pow(x, -1, p)``, kept per x for the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotPrime

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# deterministic for n < 3.3 * 10^24, far beyond any searched range


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SearchResult:
    p: int
    d: int  # squared max-min shortest vector length
    achievers: frozenset[int]

    @property
    def sqrt_d(self) -> float:
        return math.sqrt(self.d)


def search_max_svp(p: int) -> SearchResult:
    """Ascending-radius search: grow d until every residue index has produced
    a lattice vector of squared length <= d; the last batch of new indices
    achieves the maximum."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    seen: set[int] = set()
    inverses: dict[int, int] = {}
    d = 1
    while True:
        new: set[int] = set()
        for x in range(1, math.isqrt(d) + 1):
            if x % p == 0:
                continue
            y_sq = d - x * x
            y = math.isqrt(y_sq)
            if y * y != y_sq:
                continue
            inv = inverses.get(x)
            if inv is None:
                inv = inverses[x] = pow(x, -1, p)
            for y_signed in {y, -y}:
                a = (y_signed * inv) % p
                if a not in seen:
                    new.add(a)
        seen |= new
        if len(seen) == p:
            assert d < p * p
            return SearchResult(p=p, d=d, achievers=frozenset(new))
        d += 1


def best_diagonal_svp(p: int) -> int:
    """Longest shortest vector achievable by diagonal bases of determinant
    at most p: floor(sqrt(p))."""
    if p < 1:
        raise ValueError("p must be positive")
    return math.isqrt(p)


def primes_below(limit: int) -> list[int]:
    if limit <= 2:
        return []
    sieve = bytearray(limit)  # 1 marks a composite; a repeat failing to allocate prints a SystemError
    sieve[0] = sieve[1] = 1
    for i in range(2, math.isqrt(limit - 1) + 1):
        if not sieve[i]:
            sieve[i * i :: i] = b"\x01" * len(range(i * i, limit, i))
    return [i for i in range(limit) if not sieve[i]]
