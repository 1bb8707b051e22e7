"""Dynamic-range analysis under a determinant cap.

With every modulus determinant bounded by q, the achievable dynamic range is
``lcm(1..q)^D``, realized by pairwise co-prime prime powers placed one at a
time on each diagonal position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .svp_search import primes_below


@dataclass(frozen=True)
class CoprimeSet:
    """Pairwise co-prime integers <= cap whose product is lcm(1..cap).

    The canonical maximizer: for each prime r <= cap, the largest power
    r^n <= cap. The member 1 is dropped (it never changes the product).
    """

    cap: int
    members: tuple[int, ...]
    product: int


def max_coprime_set(q: int) -> CoprimeSet:
    if q < 1:
        raise ValueError("cap must be >= 1")
    members = []
    for r in primes_below(q + 1):
        power = r
        while power * r <= q:
            power *= r
        members.append(power)
    product = reduce(lambda a, b: a * b, members, 1)
    return CoprimeSet(cap=q, members=tuple(members), product=product)


def max_dynamic_range(q: int, d: int) -> int:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return max_coprime_set(q).product ** d
