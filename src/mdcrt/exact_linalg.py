"""Exact integer matrix arithmetic and the two classic normal forms.

Everything here is arbitrary precision: entries are Python ints, rational
intermediates are ``fractions.Fraction``. No floats are ever produced on a
correctness path.

Conventions, fixed once and used everywhere:

* Hermite normal form (HNF): column operations only, lower-triangular result
  with positive diagonal and ``0 <= H[i][j] < H[i][i]`` for ``j < i``.
  ``hnf`` returns the basis ``H`` alone; it depends only on the column
  lattice of its input, and ``H.left_quotient(m)`` is the unimodular ``u``
  with ``m = H @ u`` when ``m`` is square.
* Smith normal form (SNF): ``u @ m @ v = lam`` with unimodular ``u``, ``v``
  and nonnegative diagonal ``lam`` whose entries divide their successors.
  Rectangular input is supported (coprimality, lcrm and stacked congruence
  blocks).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, RankDeficient, SingularMatrix

Scalar = Union[int, Fraction]
IntVec = tuple[int, ...]


# ---------------------------------------------------------------------------
# vectors (plain tuples)
#
# Every kernel that pairs two sequences checks their lengths once and then
# runs ``map`` over them, which would otherwise stop silently at the shorter.


def _check_lengths(a: Sequence[Scalar], b: Sequence[Scalar]) -> None:
    if len(a) != len(b):
        raise ValueError(f"vectors of lengths {len(a)} and {len(b)}")


def vec_add(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple:
    """Elementwise sum; ValueError for vectors of different lengths."""
    _check_lengths(a, b)
    return tuple(map(add, a, b))


def vec_sub(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple:
    """Elementwise difference; ValueError for vectors of different lengths."""
    _check_lengths(a, b)
    return tuple(map(sub, a, b))


def vec_scale(k: Scalar, a: Sequence[Scalar]) -> tuple:
    return tuple(k * x for x in a)


def vec_dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    """Inner product; ValueError for vectors of different lengths."""
    _check_lengths(a, b)
    return sum(map(mul, a, b))


def vec_norm_sq(a: Sequence[Scalar]) -> Scalar:
    return sum(map(mul, a, a))


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples.

    Square matrices are the common case (moduli, normal forms); rectangular
    ones appear only as stacked blocks fed to the SNF/HNF routines.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(self.rows[0])
        for r in self.rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"non-integer entry {x!r}")

    # construction ---------------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(d: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @staticmethod
    def diag(*entries: int) -> "IntMatrix":
        d = len(entries)
        return IntMatrix(tuple(tuple(entries[i] if i == j else 0 for j in range(d)) for i in range(d)))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(zip(*cols, strict=True)))

    # shape ----------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @cached_property
    def dim(self) -> int:
        if not self.is_square:
            raise DimensionMismatch("dim is only defined for square matrices")
        return self.nrows

    def column(self, j: int) -> IntVec:
        return tuple(r[j] for r in self.rows)

    # arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        ot = list(zip(*other.rows))
        return IntMatrix(tuple(tuple([sum(map(mul, row, col)) for col in ot]) for row in self.rows))

    def apply(self, v: Sequence[Scalar]) -> tuple:
        """Matrix-vector product; accepts integer or rational entries.

        Raises DimensionMismatch unless ``len(v)`` equals the column count.
        """
        rows = self.rows
        if len(v) != len(rows[0]):
            raise DimensionMismatch(f"{len(rows)}x{len(rows[0])} applied to length-{len(v)} vector")
        return tuple([sum(map(mul, row, v)) for row in rows])

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(k * x for x in r) for r in self.rows))

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise DimensionMismatch("hstack needs equal row counts")
        return IntMatrix(tuple(a + b for a, b in zip(self.rows, other.rows)))

    # determinant and friends ------------------------------------------------

    @cached_property
    def det(self) -> int:
        return det(self)

    @cached_property
    def adj(self) -> "IntMatrix":
        return adjugate(self)

    def is_diagonal(self) -> bool:
        return all(x == 0 for i, r in enumerate(self.rows) for j, x in enumerate(r) if i != j)

    def left_quotient(self, other: "IntMatrix") -> "IntMatrix":
        """Exact ``self^{-1} @ other``; ValueError unless it is an integer matrix."""
        d = self.det
        if d == 0:
            raise SingularMatrix("left divisor must be nonsingular")
        prod = self.adj @ other
        if any(x % d for r in prod.rows for x in r):
            raise ValueError(f"{other} is not a right multiple of {self}")
        return IntMatrix(tuple(tuple(x // d for x in r) for r in prod.rows))

    def divides_left(self, other: "IntMatrix") -> bool:
        """True when ``self^{-1} @ other`` is an integer matrix."""
        try:
            self.left_quotient(other)
        except ValueError:
            return False
        return True

    # text form --------------------------------------------------------------

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(x) for x in r) + "]" for r in self.rows) + "]"


def _parse_literal(text: str, what: str):
    try:
        return ast.literal_eval(text.strip())
    except SyntaxError as e:
        raise ValueError(f"malformed {what} literal at offset {e.offset}: {text!r}") from None
    except (ValueError, TypeError):  # a non-literal, or an unhashable set or dict key
        raise ValueError(f"malformed {what} literal (offset 0): {text!r}") from None


def parse_matrix(text: str) -> IntMatrix:
    """Parse the row-major bracketed form, e.g. ``[[3,1],[2,2]]``.

    Raises ValueError with a character offset for malformed input, and for
    any entry that is not an int (floats and bools are not truncated).
    """
    obj = _parse_literal(text, "matrix")
    if not isinstance(obj, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in obj):
        raise ValueError(f"matrix literal must be a list of rows: {text!r}")
    return IntMatrix.from_rows(obj)


def parse_vector(text: str) -> IntVec:
    obj = _parse_literal(text, "vector")
    if not isinstance(obj, (list, tuple)) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj
    ):
        raise ValueError(f"vector literal must be a flat integer list: {text!r}")
    return tuple(obj)


def format_vector(v: Sequence[Scalar]) -> str:
    return "[" + ",".join(str(x) for x in v) + "]"


# ---------------------------------------------------------------------------
# determinant / adjugate


def det(m: IntMatrix) -> int:
    """Exact determinant: cofactor expansion for D <= 3, Bareiss beyond."""
    if not m.is_square:
        raise DimensionMismatch("determinant of a non-square matrix")
    r = m.rows
    n = m.nrows
    if n == 1:
        return r[0][0]
    if n == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    if n == 3:
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )
    return _det_bareiss([list(row) for row in r])


def _det_bareiss(a: list[list[int]]) -> int:
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def adjugate(m: IntMatrix) -> IntMatrix:
    """Adjugate matrix: ``m @ adjugate(m) == det(m) * I`` exactly."""
    if not m.is_square:
        raise DimensionMismatch("adjugate of a non-square matrix")
    n = m.nrows
    r = m.rows
    if n == 1:
        return IntMatrix(((1,),))
    if n == 2:
        return IntMatrix(((r[1][1], -r[0][1]), (-r[1][0], r[0][0])))
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[r[a][b] for b in range(n) if b != j] for a in range(n) if a != i]
            c = det(IntMatrix.from_rows(minor))
            out[j][i] = -c if (i + j) % 2 else c
    return IntMatrix.from_rows(out)


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(block: IntMatrix) -> IntMatrix:
    """Column HNF basis of a nonsingular square matrix or a full-row-rank
    D x K block: column-reduces ``block`` to ``(H 0)`` and returns the D x D ``H``.

    Raises SingularMatrix for a singular square matrix and RankDeficient for
    a block whose rank is below its row count.
    """
    nr, nc = block.nrows, block.ncols
    a = [list(col) for col in zip(*block.rows)]  # work column-major

    def combine(j_dst: int, q: int, j_src: int) -> None:
        a[j_dst] = [x - q * y for x, y in zip(a[j_dst], a[j_src])]

    p = 0
    for i in range(nr):
        if p >= nc:
            break
        while True:
            live = [j for j in range(p, nc) if a[j][i] != 0]
            if not live:
                break
            j0 = min(live, key=lambda j: abs(a[j][i]))
            if j0 != p:
                a[p], a[j0] = a[j0], a[p]
            done = True
            for j in range(p + 1, nc):
                if a[j][i] != 0:
                    q = a[j][i] // a[p][i]
                    combine(j, q, p)
                    if a[j][i] != 0:
                        done = False
            if done:
                break
        if a[p][i] == 0:
            continue  # zero row beyond the rank; no pivot consumed
        if a[p][i] < 0:
            a[p] = [-x for x in a[p]]
        for j in range(p):
            q = a[j][i] // a[p][i]
            if q:
                combine(j, q, p)
        p += 1

    # every row took a pivot exactly when the rank is full; then the pivots
    # sit on the diagonal of the first D columns and every later column is 0
    if p < nr:
        if block.is_square:
            raise SingularMatrix("hnf requires a nonsingular matrix")
        raise RankDeficient("block has rank below its row count")
    return IntMatrix(tuple(tuple(a[j][i] for j in range(nr)) for i in range(nr)))


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfDecomposition:
    u: IntMatrix
    v: IntMatrix
    lam: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        k = min(self.lam.nrows, self.lam.ncols)
        return tuple(self.lam.rows[i][i] for i in range(k))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``s * a + t * b == g == gcd(a, b) >= 0``."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form ``u @ m @ v = lam``; rectangular input allowed.

    Each pivot clears its column and row with 2 x 2 unimodular extended-gcd
    (Bezout) steps, after Kannan and Bachem (SIAM J. Comput. 8(4), 1979):
    an entry the pivot divides is cleared by one quotient step, any other
    turns the pivot into their gcd in one step. The pivot's absolute value
    therefore only falls, and every entry stays far below the blow-up of
    repeated quotient-and-swap on stacked blocks.
    """
    nr, nc = m.nrows, m.ncols
    a = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    vt = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]  # v, one list per column

    def rows_mix(x: list[list[int]], i: int, k: int, s: int, c: int, p: int, q: int) -> None:
        """``(x_i, x_k) <- (s x_i + c x_k, p x_i + q x_k)``, unimodular when
        ``s q - c p == +-1``; ``c == 0`` means ``s == 1``, the quotient step."""
        xi, xk = x[i], x[k]
        if c:
            x[i] = [s * y + c * z for y, z in zip(xi, xk)]
        x[k] = [p * y + q * z for y, z in zip(xi, xk)]

    def cols_mix(t: int, j: int, s: int, c: int, p: int, q: int) -> None:
        for row in a:
            y, z = row[t], row[j]
            row[t], row[j] = s * y + c * z, p * y + q * z
        rows_mix(vt, t, j, s, c, p, q)

    def clear(pivot: int, x: int) -> tuple[int, int, int, int]:
        """Coefficients that send (pivot, x) to (new pivot, 0)."""
        if x % pivot == 0:
            return 1, 0, -(x // pivot), 1
        g, s, c = _xgcd(pivot, x)
        return s, c, -(x // g), pivot // g

    t = 0
    while t < min(nr, nc):
        pivots = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j] != 0]
        if not pivots:
            break
        _, pi, pj = min(pivots)
        a[t], a[pi] = a[pi], a[t]
        u[t], u[pi] = u[pi], u[t]
        if pj != t:
            cols_mix(t, pj, 0, 1, 1, 0)  # swap
        while True:
            for i in range(t + 1, nr):
                if a[i][t]:
                    s, c, p, q = clear(a[t][t], a[i][t])
                    rows_mix(a, t, i, s, c, p, q)
                    rows_mix(u, t, i, s, c, p, q)
            pivot = a[t][t]
            for j in range(t + 1, nc):
                if a[t][j]:
                    cols_mix(t, j, *clear(a[t][t], a[t][j]))
            if a[t][t] != pivot:
                continue  # a gcd step refilled the column below the pivot
            # the divisibility chain: fold in a row the pivot does not divide
            culprit = next(
                (i for i in range(t + 1, nr) if any(x % pivot for x in a[i][t + 1 :])), None
            )
            if culprit is None:
                break
            rows_mix(a, t, culprit, 1, 1, 0, 1)
            rows_mix(u, t, culprit, 1, 1, 0, 1)
        t += 1

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    return SnfDecomposition(
        u=IntMatrix.from_rows(u),
        v=IntMatrix.from_rows(zip(*vt)),
        lam=IntMatrix.from_rows(a),
    )


# ---------------------------------------------------------------------------
# integer linear systems


def solve_diophantine(a: IntMatrix, b: Sequence[int]) -> IntVec | None:
    """Integer solution of ``a @ x = b`` for a full-row-rank D x K block.

    With ``u @ a @ v = lam``, the system has an integer solution exactly when
    ``c = u @ b`` has ``c[i]`` divisible by ``lam[i][i]`` for every i < D; one
    solution is then ``v @ y`` with ``y[i] = c[i] / lam[i][i]`` for i < D and
    0 beyond. Returns None when the system is solvable over the rationals but
    not the integers. Raises RankDeficient when rank(a) < D and
    DimensionMismatch unless ``len(b)`` is D.
    """
    if len(b) != a.nrows:
        raise DimensionMismatch("right-hand side length must match the row count")
    dec = snf(a)
    if dec.rank < a.nrows:
        raise RankDeficient(f"rank {dec.rank} < {a.nrows}")
    y = []
    for c, lam in zip(dec.u.apply(b), dec.diagonal()):
        q, r = divmod(c, lam)
        if r:
            return None
        y.append(q)
    return tuple([sum(map(mul, row[: len(y)], y)) for row in dec.v.rows])
