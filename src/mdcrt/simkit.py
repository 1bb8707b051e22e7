"""Monte-Carlo trial machinery: integer-disk error sampling, seeded sweeps
over the error bound tau, and per-tau statistics.

Randomness is fully pinned: every trial draws from an xorshift64* generator
whose state is derived with splitmix64 from (seed, tau index, trial index),
so serial and parallel runs produce identical output byte for byte. The
mixing folds its indices left to right, so a sweep mixes (seed, tau index)
once per tau and each trial only mixes its index into that prefix. Within a
trial the draw order is: the true vector f (when re-sampled per trial), then
one error vector per modulus in modulus order.

Every sweep runs one pipeline: ``build_plan`` -> ``multistage_reconstruct``,
with f drawn from and checked against ``final_region``. The "single"
reconstructor is the zero-stage plan (``grouping = ()``) and "multistage"
the config's declared grouping.

Each tau is reduced to its summary row where it runs, so a sweep holds one
trial at a time unless its per-trial records are asked for (``keep_raw``).
A record keeps the decoder's estimate as integer numerators over one
denominator and builds its ``Fraction``s only when ``estimate`` is read; the
raw CSV never reads it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

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
    """xorshift64* generator; uniform ints via rejection sampling."""

    def __init__(self, seed: int):
        self._s = (seed & _MASK) or _GOLDEN

    def next_u64(self) -> int:
        s = self._s
        s ^= s >> 12
        s ^= (s << 25) & _MASK
        s ^= s >> 27
        self._s = s
        return (s * 0x2545F4914F6CDD1D) & _MASK

    def randrange(self, n: int) -> int:
        """Uniform in [0, n). Each attempt joins w = max(1, ceil(bitlen(n - 1) / 64))
        draws, first draw most significant, into v < 2^(64w) and keeps v mod n
        unless v falls in the top 2^(64w) mod n values. For n <= 2^64 that is
        one draw per attempt, taken without the general word count."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        if n <= _SPAN:
            limit = _SPAN - _SPAN % n
            while True:
                v = self.next_u64()
                if v < limit:
                    return v % n
        words = -(-(n - 1).bit_length() // 64)
        span = 1 << (64 * words)
        limit = span - span % n
        while True:
            v = self.next_u64()
            for _ in range(words - 1):
                v = (v << 64) | self.next_u64()
            if v < limit:
                return v % n


def trial_rng(seed: int, tau_index: int, trial_index: int) -> XorShift64Star:
    return XorShift64Star(stream_seed(seed, tau_index, trial_index))


# ---------------------------------------------------------------------------
# error sampling


class ErrorBallSampler:
    """Uniform over the integer points of the closed ball of radius tau in Z^dim.

    A point is inside when its squared norm is at most ``floor(tau^2)``: the
    squared norm is an integer, so this exact test equals the rational one.
    Points are numbered ``0 .. count - 1`` in lexicographic order, the order
    of ``sorted`` on the tuples, and ``point(i)`` decodes an index without
    any table of points: coordinate by coordinate, it bisects the running
    totals of how many points each value of the leading coordinate leaves
    for the rest of the ball, and the last coordinate is one ``isqrt``.
    Counts are memoized per (dimension, remaining squared norm), which is
    O(D·tau^2) integers; each such prefix that a decode visits adds one list
    of its O(tau) running totals. The zero vector is always included.
    """

    def __init__(self, tau: Fraction | int, dim: int = 2):
        tau = Fraction(tau)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        if dim < 1:
            raise ValueError("dim must be positive")
        self.tau = tau
        self.dim = dim
        self._budget = math.floor(tau * tau)
        self._counts: dict[tuple[int, int], int] = {}
        self._totals: dict[tuple[int, int], list[int]] = {}
        self.count = self._count(dim, self._budget)

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

    def _running_totals(self, dim: int, budget: int) -> list[int]:
        """Entry k: points of that ball whose first coordinate is at most
        -r + k, for r = isqrt(budget)."""
        key = (dim, budget)
        totals = self._totals.get(key)
        if totals is None:
            r = math.isqrt(budget)
            totals = list(accumulate(self._count(dim - 1, budget - x * x) for x in range(-r, r + 1)))
            self._totals[key] = totals
        return totals

    def point(self, index: int) -> IntVec:
        """Point number ``index`` in lexicographic order."""
        if not 0 <= index < self.count:
            raise IndexError(f"point index {index} outside [0, {self.count})")
        budget = self._budget
        coords = []
        for dim in range(self.dim, 1, -1):
            totals = self._totals.get((dim, budget)) or self._running_totals(dim, budget)
            k = bisect_right(totals, index)
            if k:
                index -= totals[k - 1]
            x = k - len(totals) // 2
            coords.append(x)
            budget -= x * x
        coords.append(index - math.isqrt(budget))
        return tuple(coords)

    def sample(self, rng: XorShift64Star) -> IntVec:
        """A uniform point: ``point(rng.randrange(count))``, one draw of
        ``rng`` per call. Nothing is kept per draw."""
        return self.point(rng.randrange(self.count))


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


@dataclass(frozen=True)
class TrialRecord:
    """One trial as the raw CSV and the checks on it read it. The error
    vectors are not kept: they follow from the seed and the indices. The
    estimate is kept as the decoder returned it, ``numerators / den``, and
    ``estimate`` builds its ``Fraction``s on each read."""

    trial_index: int
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
        groupings = {"single": (), "multistage": cfg.grouping}
        if cfg.reconstructor not in groupings:
            raise ConfigInvalid(f"unknown reconstructor {cfg.reconstructor!r}")
        grouping = groupings[cfg.reconstructor]
        if grouping is None:
            raise ConfigInvalid("multistage reconstructor requires a grouping")
        self.plan = build_plan(cfg.moduli, grouping)
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


def _score(numerators: IntVec, den: int, f: IntVec, tau_sq: Fraction) -> tuple[float, bool]:
    """``(sqrt of ||estimate - f||^2, ||estimate - f||^2 <= tau_sq)`` in
    integers for a ``RobustOutput``'s estimate ``numerators / den``, ``den``
    reduced or not: the squared error is ``num / den^2``, its root is
    ``sqrt_float(num, den^2)``, and the comparison is cross-multiplied exactly."""
    num = sum([(x - den * y) ** 2 for x, y in zip(numerators, f)])
    den_sq = den * den
    return sqrt_float(num, den_sq), num * tau_sq.denominator <= tau_sq.numerator * den_sq


def _run_tau(cfg: SweepConfig, tau_index: int, keep_raw: bool) -> tuple[SweepRow, tuple | None]:
    """One tau's row, reduced trial by trial, and its records if ``keep_raw``."""
    mach = _machinery(cfg)
    tau = cfg.taus[tau_index]
    ball = ErrorBallSampler(tau, dim=cfg.moduli[0].dim)
    tau_sq = tau * tau
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
        noisy = [[a + b for a, b in zip(r, ball.sample(rng))] for r in rems]
        try:
            out = multistage_reconstruct(mach.plan, noisy)
        except Inconsistent:
            nums, den, norm, success = None, 1, float("nan"), False
        else:
            nums, den = out.numerators, out.den
            norm, success = _score(nums, den, f, tau_sq)
            total += norm
            estimates += 1
            successes += success
        if keep_raw:
            records.append(TrialRecord(t, f, nums, den, norm, success))
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
        for rec in records:
            lines.append(
                f"{tau},{rec.trial_index},{rec.error_norm!r},{int(rec.exact_success)}"
            )
    return lines
