"""Monte-Carlo trial machinery: integer-disk error sampling, seeded sweeps
over the error bound tau, and per-tau statistics.

Randomness is fully pinned: every trial draws from an xorshift64* generator
whose state is derived with splitmix64 from (seed, tau index, trial index),
so serial and parallel runs produce identical output byte for byte. The
mixing folds its indices left to right, so a sweep mixes (seed, tau index)
once per tau and each trial only mixes its index into that prefix. Within a
trial the draw order is: the true vector f (when re-sampled per trial), then
one error vector per modulus in modulus order. The generator's step is
written once, in ``XorShift64Star.draws``, which draws a trial's errors in
one batch.

Error vectors come from ``ErrorBallSampler``, which lists no points: a
draw decodes a uniform index into the ball's lexicographic order through
per-level tables, two O(tau) lists per visited prefix of leading
coordinates, so a ball of dimension 2 holds one pair of lists. The last two
coordinates are decoded in one place, ``_disk_add``; ``perturb`` adds a
trial's draws onto its remainders in one call.

Every sweep runs one pipeline: ``build_plan`` -> ``multistage_reconstruct``,
with f drawn from and checked against ``final_region``. Per
``config.declared_stages``, the "single" reconstructor is the zero-stage
plan and "multistage" the config's declared grouping.

Each tau is reduced to its summary row where it runs, so a sweep holds one
trial at a time unless its per-trial records are asked for (``keep_raw``).
A record keeps the decoder's estimate as integer numerators over one
denominator and builds its ``Fraction``s only when ``estimate`` is read; the
raw CSV never reads it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import NamedTuple, Sequence

from .config import declared_stages
from .errors import ConfigInvalid, Inconsistent
from .exact_linalg import IntMatrix, IntVec, Scalar
from .lattice import nearest_region_point, reduce_mod
from .multistage import build_plan, final_region, multistage_reconstruct

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_seed(seed: int, *indices: int) -> int:
    """splitmix64-style mixing of a base seed with stream indices, folded
    left to right: ``stream_seed(stream_seed(s, a), b) == stream_seed(s, a, b)``."""
    x = seed & _MASK
    for idx in indices:
        x = _mix64((x + _GOLDEN + (idx & _MASK)) & _MASK)
    return x


class XorShift64Star:
    """xorshift64* generator (Vigna 2016); uniform ints via rejection
    sampling. ``draws`` holds the one step loop: ``next_u64`` and
    ``randrange`` are single draws of it."""

    def __init__(self, seed: int):
        self._s = (seed & _MASK) or _GOLDEN

    def draws(self, n: int, k: int) -> list[int]:
        """The values of k calls of ``randrange(n)``, leaving the generator
        where they would. For n <= 2^64 an attempt is one xorshift64* step,
        kept as ``v mod n`` unless v falls in the top 2^64 mod n values; the
        limit is computed once per call. A larger n joins
        w = ceil(bitlen(n - 1) / 64) words per attempt, first word most
        significant, into v < 2^(64w), and rejects the top 2^(64w) mod n."""
        if n <= 0:
            raise ValueError(f"draws need a range n >= 1, got {n}")
        out: list[int] = []
        if n > _SPAN:
            words = -(-(n - 1).bit_length() // 64)
            span = 1 << (64 * words)
            limit = span - span % n
            while len(out) < k:
                v = 0
                for _ in range(words):
                    v = (v << 64) | self.next_u64()
                if v < limit:
                    out.append(v % n)
            return out
        limit = _SPAN - _SPAN % n
        mask = _MASK
        s = self._s
        while len(out) < k:
            s ^= s >> 12
            s ^= (s << 25) & mask
            s ^= s >> 27
            v = (s * 0x2545F4914F6CDD1D) & mask
            if v < limit:
                out.append(v % n)
        self._s = s
        return out

    def next_u64(self) -> int:
        return self.draws(_SPAN, 1)[0]

    def randrange(self, n: int) -> int:
        """Uniform in [0, n): one value of ``draws``."""
        return self.draws(n, 1)[0]


def trial_rng(seed: int, tau_index: int, trial_index: int) -> XorShift64Star:
    return XorShift64Star(stream_seed(seed, tau_index, trial_index))


# ---------------------------------------------------------------------------
# error sampling


class ErrorBallSampler:
    """Uniform over the integer points of the closed ball of radius tau in Z^dim.

    A point is inside when its squared norm is at most ``floor(tau^2)``: the
    squared norm is an integer, so this exact test equals the rational one.
    Points are numbered ``0 .. count - 1`` in lexicographic order, the order
    of ``sorted`` on the tuples, and ``point(i)``, the one decoder, turns an
    index into its point without any table of points, with one bisect per
    level; ``perturb`` calls it off dim 2.

    A level is a prefix of fixed leading coordinates, named by the dimension
    and the squared norm it leaves, ``(dim, budget)``. Its table is two lists
    over the next coordinate x = -r .. r, r = isqrt(budget), built in one
    pass: the running totals of the points that the values up to x leave for
    the rest of the ball, and the offset that an index in x's block sheds at
    that level. At dim 2 the offset includes the last coordinate's
    ``isqrt(budget - x^2)``, so the last coordinate is the index minus the
    offset, and ``_disk_add`` decodes it for ``point``, ``sample`` and
    ``perturb`` alike. ``__init__`` builds the top level and reads ``count``
    from its last total, so a ball of dim 2 holds one table and its draws
    build none; a ball of dim 1 needs no table. At dim >= 3 each lower level
    is built on the first decode that visits it and kept: two O(tau) lists
    per visited prefix, beside the sub-ball counts memoized per (dimension,
    squared norm), O(D·tau^2) integers. The zero vector is always included.
    """

    def __init__(self, tau: Fraction | int, dim: int = 2):
        tau = Fraction(tau)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._budget = budget = math.floor(tau * tau)
        self._counts: dict[tuple[int, int], int] = {}
        self._levels: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        if dim == 1:
            self._r = math.isqrt(budget)
            self.count = 2 * self._r + 1
        else:
            self._totals, self._offsets = self._level(dim, budget)
            self.count = self._totals[-1]

    def _count(self, dim: int, budget: int) -> int:
        """Points of Z^dim with squared norm at most ``budget``."""
        if dim == 1:
            return 2 * math.isqrt(budget) + 1
        key = (dim, budget)
        n = self._counts.get(key)
        if n is None:
            r = math.isqrt(budget)
            n = self._count(dim - 1, budget) + 2 * sum(
                self._count(dim - 1, budget - x * x) for x in range(1, r + 1)
            )
            self._counts[key] = n
        return n

    def _level(self, dim: int, budget: int) -> tuple[list[int], list[int]]:
        """Level ``(dim, budget)``, ``dim >= 2``: entry k of the totals counts
        the points whose next coordinate is at most -r + k, and an index
        below ``totals[k]`` (and not below ``totals[k - 1]``) has next
        coordinate -r + k and sheds ``offsets[k]``."""
        r = math.isqrt(budget)
        totals: list[int] = []
        offsets: list[int] = []
        total = 0
        if dim == 2:
            for x in range(-r, r + 1):
                s = math.isqrt(budget - x * x)
                offsets.append(total + s)
                total += 2 * s + 1
                totals.append(total)
        else:
            for x in range(-r, r + 1):
                offsets.append(total)
                total += self._count(dim - 1, budget - x * x)
                totals.append(total)
        return totals, offsets

    def point(self, index: int) -> IntVec:
        """Point number ``index`` in lexicographic order: one bisect per
        level above the last two coordinates, then ``_disk_add``."""
        if not 0 <= index < self.count:
            raise IndexError(f"point index {index} outside [0, {self.count})")
        if self.dim == 1:
            return (index - self._r,)
        budget = self._budget
        totals, offsets = self._totals, self._offsets
        coords = []
        for dim in range(self.dim, 2, -1):
            k = bisect_right(totals, index)
            x = k - len(totals) // 2
            coords.append(x)
            index -= offsets[k]
            budget -= x * x
            key = (dim - 1, budget)
            level = self._levels.get(key)
            if level is None:
                level = self._levels[key] = self._level(dim - 1, budget)
            totals, offsets = level
        return (*coords, *_disk_add(totals, offsets, [(0, 0)], [index])[0])

    def perturb(self, rng: XorShift64Star, remainders: Sequence[IntVec]) -> list[IntVec]:
        """Each remainder plus one uniform point, in order:
        ``[r + point(i) for r, i in zip(remainders, rng.draws(count, k))]``,
        one batch of draws per call. At dim 2 each point is added straight
        onto its remainder's two coordinates, and nothing is kept per draw."""
        indices = rng.draws(self.count, len(remainders))
        if self.dim == 2:
            return _disk_add(self._totals, self._offsets, remainders, indices)
        point = self.point
        return [tuple(map(add, r, point(i))) for r, i in zip(remainders, indices)]

    def sample(self, rng: XorShift64Star) -> IntVec:
        """A uniform point: ``perturb`` of the zero vector, one draw of ``rng``."""
        return self.perturb(rng, [(0,) * self.dim])[0]


def _disk_add(
    totals: list[int], offsets: list[int], vectors: Sequence[IntVec], indices: list[int]
) -> list[IntVec]:
    """Each 2-vector ``(a, b)`` plus the point that its index names at the
    dim-2 level ``(totals, offsets)``: one bisect gives the first coordinate
    ``k - r`` and one subtraction the second, ``index - offsets[k]``."""
    r = len(totals) // 2
    return [
        (a + (k := bisect_right(totals, i)) - r, b + i - offsets[k])
        for (a, b), i in zip(vectors, indices)
    ]


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepConfig:
    """One reconstructor, one tau grid, one seed; hashable so worker
    processes can cache the built machinery."""

    moduli: tuple[IntMatrix, ...]
    reconstructor: str  # "single" or "multistage"
    grouping: tuple | None
    taus: tuple[Fraction, ...]
    trials: int
    seed: int
    f_mode: str  # "explicit", "centroid", or "per-trial"
    f_value: IntVec | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigInvalid(f"'trials' must be a positive integer, got {self.trials}")
        if not self.taus:
            raise ConfigInvalid("'tau_grid' must list at least one tau for a sweep")


class TrialRecord(NamedTuple):
    """One trial as the raw CSV and the checks on it read it, as an
    immutable named tuple. Its trial index is its position in its tau's
    tuple of records, and the error vectors are not kept: they follow from
    the seed and the indices. The estimate is kept as the decoder returned
    it, ``numerators / den``, and ``estimate`` builds its ``Fraction``s on
    each read."""

    f_true: IntVec
    numerators: tuple[Scalar, ...] | None  # None when the solver reported Inconsistent
    den: int
    error_norm: float  # sqrt of the exact squared error; nan when no estimate
    exact_success: bool  # ||estimate - f||^2 <= tau^2, compared exactly

    @property
    def estimate(self) -> tuple[Fraction, ...] | None:
        if self.numerators is None:
            return None
        den = self.den
        return tuple([Fraction(x, den) for x in self.numerators])


@dataclass(frozen=True)
class SweepRow:
    tau: Fraction
    mean_error: float  # over trials with an estimate; nan if none
    success_rate: float
    trials: int


@dataclass(frozen=True)
class SweepSummary:
    reconstructor: str
    seed: int
    rows: tuple[SweepRow, ...]
    raw: tuple[tuple[TrialRecord, ...], ...] | None = None


class _Machinery:
    """What a sweep config fixes, built once per config: the plan, the
    region that f is picked from and checked against, and the fixed true
    vector ``f`` (None in per-trial mode) with its remainders.

    An explicit f is validated for region membership by exact arithmetic;
    the centroid rule picks the region point nearest the continuous centroid.
    """

    def __init__(self, cfg: SweepConfig):
        self.plan = build_plan(cfg.moduli, declared_stages(cfg.reconstructor, cfg.grouping))
        self.region = final_region(self.plan)

        if cfg.f_mode == "explicit":
            if cfg.f_value is None:
                raise ConfigInvalid("explicit f mode without a vector")
            if not self.region.contains(cfg.f_value):
                raise ConfigInvalid(
                    f"f = {list(cfg.f_value)} is outside the robustly determinable range "
                    f"of reconstructor {cfg.reconstructor!r}"
                )
            self.f: IntVec | None = cfg.f_value
        elif cfg.f_mode == "centroid":
            self.f = nearest_region_point(self.region, self.region.centroid())
        elif cfg.f_mode == "per-trial":
            self.f = None
        else:
            raise ConfigInvalid(f"unknown f mode {cfg.f_mode!r}")
        self.rems = tuple(reduce_mod(self.f, m)[1] for m in cfg.moduli) if self.f is not None else None


@lru_cache(maxsize=8)
def _machinery(cfg: SweepConfig) -> _Machinery:
    return _Machinery(cfg)


def resolve_f(cfg: SweepConfig) -> IntVec | None:
    """Fixed true vector for the sweep, or None in per-trial mode; raises
    ConfigInvalid for an explicit f outside the region (see _Machinery)."""
    return _machinery(cfg).f


def sqrt_float(num: int, den: int) -> float:
    """``sqrt(num / den)`` from the correctly rounded quotient, which is the
    float the exact Fraction converts to; past the float range, from the
    integer ``isqrt(num // den)``, and inf where the root is past it too."""
    try:
        return math.sqrt(num / den)
    except OverflowError:
        pass
    try:
        return float(math.isqrt(num // den))
    except OverflowError:
        return math.inf


def _score(numerators: IntVec, den: int, f: IntVec, tau_num: int, tau_den: int) -> tuple[float, bool]:
    """``(sqrt of ||estimate - f||^2, ||estimate - f||^2 <= tau_num / tau_den)``
    in integers for a ``RobustOutput``'s estimate ``numerators / den``,
    ``den`` reduced or not: the squared error is ``num / den^2``, its root
    is ``sqrt_float(num, den^2)``, and the comparison is cross-multiplied
    exactly. D = 2 sums the two squares in closed form."""
    if len(f) == 2:
        x, y = numerators
        f0, f1 = f
        e0 = x - den * f0
        e1 = y - den * f1
        num = e0 * e0 + e1 * e1
    else:
        num = sum([(x - den * y) ** 2 for x, y in zip(numerators, f)])
    den_sq = den * den
    return sqrt_float(num, den_sq), num * tau_den <= tau_num * den_sq


def _run_tau(cfg: SweepConfig, tau_index: int, keep_raw: bool) -> tuple[SweepRow, tuple | None]:
    """One tau's row, reduced trial by trial, and its records if ``keep_raw``."""
    mach = _machinery(cfg)
    tau = cfg.taus[tau_index]
    ball = ErrorBallSampler(tau, dim=cfg.moduli[0].dim)
    tau_num, tau_den = (tau * tau).as_integer_ratio()
    prefix = stream_seed(cfg.seed, tau_index)  # trial t's stream is stream_seed(prefix, t)
    total, estimates, successes = 0.0, 0, 0
    records = []
    for t in range(cfg.trials):
        rng = XorShift64Star(stream_seed(prefix, t))
        if mach.f is None:
            f = mach.region.sample(rng)
            rems = tuple(reduce_mod(f, m)[1] for m in cfg.moduli)
        else:
            f, rems = mach.f, mach.rems
        try:
            out = multistage_reconstruct(mach.plan, ball.perturb(rng, rems))
        except Inconsistent:
            nums, den, norm, success = None, 1, float("nan"), False
        else:
            nums, den = out.numerators, out.den
            norm, success = _score(nums, den, f, tau_num, tau_den)
            total += norm
            estimates += 1
            successes += success
        if keep_raw:
            records.append(TrialRecord(f, nums, den, norm, success))
    row = SweepRow(
        tau=tau,
        mean_error=total / estimates if estimates else float("nan"),
        success_rate=successes / cfg.trials,
        trials=cfg.trials,
    )
    return row, (tuple(records) if keep_raw else None)


def run_sweep(cfg: SweepConfig, jobs: int = 1, keep_raw: bool = False) -> SweepSummary:
    """Execute the full tau grid; identical output for any jobs value.

    A sweep keeps one ``SweepRow`` per tau, and the per-trial records only
    when ``keep_raw`` is set; with ``jobs > 1``, at most one worker per tau
    sends back just that. A row's mean error adds the finite error norms in
    trial order (``total += norm``), as ``sum`` did before Python 3.12 began
    compensating float sums: this order is part of the CSV contract.
    """
    _machinery(cfg)  # validate configuration before spawning workers
    n = len(cfg.taus)
    jobs = min(jobs, n)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never load it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_tau = list(pool.map(_run_tau, [cfg] * n, range(n), [keep_raw] * n))
    else:
        per_tau = [_run_tau(cfg, ti, keep_raw) for ti in range(n)]
    return SweepSummary(
        reconstructor=cfg.reconstructor,
        seed=cfg.seed,
        rows=tuple(row for row, _ in per_tau),
        raw=tuple(records for _, records in per_tau) if keep_raw else None,
    )


# ---------------------------------------------------------------------------
# CSV schemas

SUMMARY_HEADER = "tau,mean_error,success_rate,trials,reconstructor,seed"
RAW_HEADER = "tau,trial,err_norm,success"


def summary_csv_lines(summary: SweepSummary) -> list[str]:
    lines = [SUMMARY_HEADER]
    for row in summary.rows:
        lines.append(
            f"{row.tau},{row.mean_error!r},{row.success_rate!r},"
            f"{row.trials},{summary.reconstructor},{summary.seed}"
        )
    return lines


def raw_csv_lines(summary: SweepSummary) -> list[str]:
    if summary.raw is None:
        raise ValueError("sweep was run without keep_raw")
    lines = [RAW_HEADER]
    for tau, records in zip((r.tau for r in summary.rows), summary.raw):
        for t, rec in enumerate(records):
            lines.append(f"{tau},{t},{rec.error_norm!r},{int(rec.exact_success)}")
    return lines
