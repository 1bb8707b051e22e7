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
  Rectangular input is supported (coprimality and stacked congruence
  blocks).

Both forms eliminate with one 2 x 2 unimodular extended-gcd (Bezout) step
after Kannan and Bachem (SIAM J. Comput. 8(4), 1979): ``_bezout`` gives its
coefficients and ``_mix`` applies them. It sends a pivot entry x and an
entry y to ``(g, 0)`` with ``|g| = gcd(x, y)``, so a nonzero pivot
never grows, and its coefficients are at most ``max(1, |x|/g)`` and
``max(1, |y|/g)``, so a step scales the other entries by no more than the
two it combines. HNF also reduces each finished row modulo its pivot, which
keeps the entries left of H's diagonal below it as it goes.

Every integer input, from the command line or a config, is a bracketed
literal read by ``parse_int_array`` alone.
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

    The hash is the hash of ``rows``, computed on first use and cached on the
    instance: ``crt_solve`` hashes its tuple of moduli on every call to look
    up the compiled plan, and a tuple of row tuples caches no hash of its
    own. It is lazy because setup builds many matrices that are never
    hashed. Equal rows give equal hashes, and the cached value travels with
    a pickled matrix.
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
    def _hash(self) -> int:
        return hash(self.rows)

    def __hash__(self) -> int:
        return self._hash

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


_QUOTED_CHARS = 60  # an error message quotes at most this much of an input


def _quoted(x) -> str:
    """``repr(x)`` for an error message: whole up to ``_QUOTED_CHARS``
    characters, else its first ``_QUOTED_CHARS`` and its length, since
    one argument or config value can be megabytes long."""
    r = repr(x)
    return r if len(r) <= _QUOTED_CHARS else f"{r[:_QUOTED_CHARS]}... ({len(r)} characters)"


def _nested_ints(x, depth: int, what: str, shape: str):
    if depth == 0:
        if isinstance(x, int) and not isinstance(x, bool):
            return x
    elif isinstance(x, (list, tuple)):
        return tuple([_nested_ints(y, depth - 1, what, shape) for y in x])
    raise ValueError(f"{what} must be {shape}, found {_quoted(x)}")


def parse_int_array(text: str, depth: int, what: str, shape: str):
    """``text`` as tuples nested exactly ``depth`` lists deep around ints
    (not bools). ValueError "malformed {what} literal at offset N" for a
    syntax error, "... (offset 0)" for any other parser failure (a literal
    nested too deep included), "{what} must be {shape}, found X" otherwise.
    Each message quotes at most ``_QUOTED_CHARS`` characters of the repr of
    ``text`` or X, and the repr's length when it is longer."""
    try:
        obj = ast.literal_eval(text.strip())
    except SyntaxError as e:
        raise ValueError(f"malformed {what} literal at offset {e.offset}: {_quoted(text)}") from None
    except (ValueError, TypeError, RecursionError, MemoryError):
        raise ValueError(f"malformed {what} literal (offset 0): {_quoted(text)}") from None
    return _nested_ints(obj, depth, what, shape)


def parse_matrix(text: str) -> IntMatrix:
    """Rows such as ``[[3,1],[2,2]]``; ValueError unless each entry is an int (not a bool)."""
    return IntMatrix(parse_int_array(text, 2, "matrix", "a list of integer rows"))


def parse_vector(text: str) -> IntVec:
    """A flat integer list such as ``[5,-3]``; ValueError for anything else."""
    return parse_int_array(text, 1, "vector", "a flat integer list")


def format_vector(v: Sequence[Scalar]) -> str:
    return "[" + ",".join(str(x) for x in v) + "]"


# ---------------------------------------------------------------------------
# determinant / adjugate


def det(m: IntMatrix) -> int:
    """Exact determinant: cofactor expansion for D <= 3, Bareiss beyond. The
    closed forms are for speed: sending D <= 3 through ``bareiss`` (with
    ``adjugate``'s 2 x 2 case) raised benchmark setup time 9-15%."""
    if not m.is_square:
        raise DimensionMismatch("determinant of a non-square matrix")
    return _det_rows(m.rows)


def _det_rows(r: Sequence[Sequence[int]]) -> int:
    """``det`` of a square matrix given as plain rows, unchecked; the
    cofactors of ``adjugate`` call it without building a matrix each."""
    n = len(r)
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
    a = [list(row) for row in r]
    return bareiss(a) * a[n - 1][n - 1]


def bareiss(a: list[list[int]]) -> int:
    """Fraction-free elimination (Bareiss 1968) of a square integer matrix,
    in place, swapping rows only at a zero pivot: then ``a[k][k]`` is the
    (k+1)-th leading principal minor of the row-permuted matrix, whose
    entries below the diagonal are left as they are. Returns the
    permutation's sign, or 0 when the matrix is singular."""
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
    return sign if a[n - 1][n - 1] else 0


def adjugate(m: IntMatrix) -> IntMatrix:
    """Adjugate matrix: ``m @ adjugate(m) == det(m) * I`` exactly. The 2 x 2
    closed form is for speed: 2.6 us per call against 24 us from cofactors."""
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
            c = _det_rows([[x for b, x in enumerate(row) if b != j] for a, row in enumerate(r) if a != i])
            out[j][i] = -c if (i + j) % 2 else c
    return IntMatrix.from_rows(out)


# ---------------------------------------------------------------------------
# the 2 x 2 Bezout step


def _bezout(pivot: int, x: int) -> tuple[int, int, int, int]:
    """Coefficients ``(s, c, p, q)`` of the unimodular step (``s q - c p`` is
    +-1) that sends ``(pivot, x)`` to ``(s pivot + c x, 0)``: the quotient
    step ``(1, 0, -x/pivot, 1)`` when a nonzero pivot divides x, else the
    extended-gcd step, whose new pivot is ``gcd(pivot, x)``."""
    if pivot and x % pivot == 0:
        return 1, 0, -(x // pivot), 1
    g, y = pivot, x
    s, s1, c, c1 = 1, 0, 0, 1
    while y:
        k, r = divmod(g, y)
        g, y, s, s1, c, c1 = y, r, s1, s - k * s1, c1, c - k * c1
    if g < 0:
        g, s, c = -g, -s, -c
    return s, c, -(x // g), pivot // g


def _mix(rows: list[list[int]], i: int, k: int, s: int, c: int, p: int, q: int) -> None:
    """``(rows_i, rows_k) <- (s rows_i + c rows_k, p rows_i + q rows_k)``, the
    step ``_bezout`` gives; ``c == 0`` means ``s == 1``, the quotient step."""
    ri, rk = rows[i], rows[k]
    if c:
        rows[i] = [s * y + c * z for y, z in zip(ri, rk)]
    rows[k] = [p * y + q * z for y, z in zip(ri, rk)]


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(block: IntMatrix) -> IntMatrix:
    """Column HNF basis of a nonsingular square matrix or a full-row-rank
    D x K block: column-reduces ``block`` to ``(H 0)`` and returns the D x D ``H``.

    Each nonzero entry y right of the pivot x is cleared by the step ``snf``
    uses: ``_bezout(x, y)`` gives its coefficients and ``_mix`` applies them
    to the two columns, a quotient step when a nonzero x divides y and an
    extended-gcd step otherwise (a zero x swaps the columns, up to sign).

    Raises SingularMatrix for a singular square matrix and RankDeficient for
    a block whose rank is below its row count.
    """
    nr, nc = block.nrows, block.ncols
    a = [list(col) for col in zip(*block.rows)]  # work column-major

    p = 0
    for i in range(nr):
        if p >= nc:
            break
        for j in range(p + 1, nc):
            if a[j][i]:
                _mix(a, p, j, *_bezout(a[p][i], a[j][i]))
        x = a[p][i]
        if x == 0:
            continue  # zero row beyond the rank; no pivot consumed
        if x < 0:
            x = -x
            a[p] = [-u for u in a[p]]
        for j in range(p):
            q = a[j][i] // x
            if q:
                a[j] = [u - q * v for u, v in zip(a[j], a[p])]
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

    def cols_mix(t: int, j: int, s: int, c: int, p: int, q: int) -> None:
        for row in a:
            y, z = row[t], row[j]
            row[t], row[j] = s * y + c * z, p * y + q * z
        _mix(vt, t, j, s, c, p, q)

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
                    s, c, p, q = _bezout(a[t][t], a[i][t])
                    _mix(a, t, i, s, c, p, q)
                    _mix(u, t, i, s, c, p, q)
            pivot = a[t][t]
            for j in range(t + 1, nc):
                if a[t][j]:
                    cols_mix(t, j, *_bezout(a[t][t], a[t][j]))
            if a[t][t] != pivot:
                continue  # a gcd step refilled the column below the pivot
            # the divisibility chain: fold in a row the pivot does not divide
            culprit = next(
                (i for i in range(t + 1, nr) if any(x % pivot for x in a[i][t + 1 :])), None
            )
            if culprit is None:
                break
            _mix(a, t, culprit, 1, 1, 0, 1)
            _mix(u, t, culprit, 1, 1, 0, 1)
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
