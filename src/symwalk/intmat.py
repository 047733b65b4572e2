"""Exact arbitrary-precision integer matrices.

Dense, square, immutable.  Everything in here is exact: no floats, no
rounding.  These matrices carry monodromy actions on first homology and
all random products built from them, so correctness beats speed.  The
generators reach dimension 254 (Humphries genus 127) but sit near the
identity, so elimination and the symplectic check skip exactly the work
that cannot change their answer, and stay dense algorithms otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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


def _eliminate(a: list) -> int:
    """Bareiss fraction-free elimination, in place, on n integer rows
    ``a`` of width >= n; returns the determinant of their leading block
    and leaves it upper triangular (what lies below its diagonal is stale,
    and never read).  Each step row <- (row * pivot - f * top) // prev
    divides exactly, as every entry is then a minor of the input, so the
    entries stay integers of polynomial size.  A row with f = 0 while
    pivot = prev is left as it is, since the step would give it back
    exactly.  On a near-identity matrix, whose leading minors are mostly 1
    and whose entries below the diagonal are mostly 0, most rows then cost
    one comparison a step instead of a pass along the row."""
    n = len(a)
    sign = prev = 1
    for k in range(n):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1:]:
            f = row[k]
            if f or pivot != prev:
                for j in range(k + 1, len(top)):
                    row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign * prev


def det(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    return _eliminate(m.to_lists())


def inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix invertible over the integers.

    Requires det(m) in {1, -1}.  Elimination takes ``[m | I]`` to
    ``[U | B]`` with U upper triangular and m^-1 = U^-1 B; the rows of
    m^-1 are then solved for from the last up, and a row j with
    U[i][j] = 0 is skipped, as it would subtract zero.  Each division there
    is exact: its dividend is U[i][i] times row i of m^-1, which is
    integral.
    """
    n = m.dim
    a = [list(row + e) for row, e in zip(m.rows, identity(n).rows)]
    d = _eliminate(a)
    if d not in (1, -1):
        raise ValueError("matrix is not invertible over Z (det = %d)" % d)
    for i in reversed(range(n)):    # a[j] for j > i is row j of m^-1
        u = a[i]
        x = u[n:]
        for j in range(i + 1, n):
            if u[j]:
                x = [s - u[j] * t for s, t in zip(x, a[j])]
        a[i] = [s // u[i] for s in x]
    return _unchecked(IntMatrix, rows=tuple(map(tuple, a)))


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
    lower-left block.  False for an odd or zero dimension.

    Entry (i, j) of m' J m is the form on columns u, v of m,
    sum(u[k] v[g+k] - u[g+k] v[k]), and is compared with J[i][j].  Only
    pairs with at least one column that differs from the identity's are
    computed: two identity columns give J[i][j] by definition, and the
    form is antisymmetric, so a pair is settled from either end."""
    g, odd = divmod(m.dim, 2)
    cols = tuple(zip(*m.rows))
    return not odd and g > 0 and all(
        sum(map(operator.mul, u[:g], v[g:]))
        - sum(map(operator.mul, u[g:], v[:g])) == (j == i + g) - (i == j + g)
        for i, (u, e) in enumerate(zip(cols, identity(m.dim).rows)) if u != e
        for j, v in enumerate(cols))
