"""Exact arbitrary-precision integer matrices.

Dense, square, immutable.  Everything in here is exact: no floats, no
rounding.  These matrices carry monodromy actions on first homology and
all random products built from them, so correctness beats speed -- but
the dimensions are tiny (<= 30) and Python ints are already arbitrary
precision, so plain dense algorithms are fine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class NotPrimeError(ValueError):
    """A modulus that was required to be prime is not."""


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` built without its
    ``__post_init__`` checks, for values the package builds valid by
    construction; a value a caller builds goes through ``cls(...)``."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class IntMatrix:
    """A square matrix of Python ints, stored as a tuple of row tuples.
    ``IntMatrix(rows)`` converts every entry with ``int()``, which keeps
    numpy integers out of exact arithmetic, and checks squareness; the
    matrices computed below skip both (``_unchecked``)."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        for row in rows:
            if len(row) != n:
                raise DimensionError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise DimensionError("dimension mismatch: %d vs %d" % (self.dim, other.dim))
        return _unchecked(IntMatrix, rows=tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def transpose(self) -> "IntMatrix":
        return _unchecked(IntMatrix, rows=tuple(zip(*self.rows)))

    def to_lists(self):
        return [list(row) for row in self.rows]


@lru_cache(maxsize=None)
def identity(n: int) -> IntMatrix:
    return _unchecked(IntMatrix, rows=tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.dim != b.dim:
        raise DimensionError("dimension mismatch: %d vs %d" % (a.dim, b.dim))
    bcols = tuple(zip(*b.rows))
    return _unchecked(IntMatrix, rows=tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bcols)
        for row in a.rows))


def det(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    All intermediate divisions are exact, so the computation stays in the
    integers while keeping entry growth polynomial.
    """
    n = m.dim
    if n == 0:
        return 1
    a = m.to_lists()
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
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix invertible over the integers.

    Requires det(m) in {1, -1}; computed via rational Gauss-Jordan and
    checked to be integral.
    """
    d = det(m)
    if d not in (1, -1):
        raise ValueError("matrix is not invertible over Z (det = %d)" % d)
    n = m.dim
    a = [[Fraction(x) for x in row] for row in m.rows]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return _unchecked(IntMatrix, rows=tuple(
        tuple(int(x) for x in row) for row in inv))


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson & Webster, Math. Comp. 86 (2017), psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


@lru_cache
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < MR_EXACT_BELOW, and a
    ValueError above it.  Cached: ``mod_p`` checks its modulus on every
    call, and a run uses few moduli."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p >= MR_EXACT_BELOW:
        raise ValueError("primality of %d is only decided below %d"
                         % (p, MR_EXACT_BELOW))
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def mod_p(m: IntMatrix, p: int) -> IntMatrix:
    """Entrywise reduction into [0, p) for a prime modulus: the package's
    one primality check, a ``NotPrimeError`` for a p that is not prime."""
    p = operator.index(p)
    if not is_prime(p):
        raise NotPrimeError("%d is not prime" % p)
    return _unchecked(IntMatrix, rows=tuple(
        tuple(x % p for x in row) for row in m.rows))


def is_symplectic(m: IntMatrix) -> bool:
    """True iff m' J m = J exactly, for J the standard symplectic form on
    Z^(2g), 2g = m.dim: +I_g in the upper-right block and -I_g in the
    lower-left block.  False for an odd or zero dimension."""
    g, odd = divmod(m.dim, 2)
    if odd or not g:
        return False
    j = _unchecked(IntMatrix, rows=tuple(
        tuple(1 if c == r + g else -1 if r == c + g else 0
              for c in range(2 * g)) for r in range(2 * g)))
    return mat_mul(mat_mul(m.transpose(), j), m) == j
