"""Smith normal form over Z and the homology invariants built on it.

Each first homology group here is the cokernel of an integer matrix, so
the ``DivisorChain`` of that matrix's Smith form is the group: its zeros
are the free factors and its divisors > 1 the torsion.  The mapping torus
with monodromy action M has H1 = coker diag(M - I, 0); the Heegaard
splitting glued by a symplectic matrix has H1 = the cokernel of its
top-right block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from math import gcd

from .intmat import (DimensionError, IntMatrix, _unchecked, det, identity,
                     mod_p)


@dataclass(frozen=True)
class DivisorChain:
    """Elementary divisors d1 | d2 | ... | dr; 0 encodes a free factor.
    As the group Z/d1 + ... + Z/dr it has free rank ``betti`` and torsion
    factors ``torsion``."""

    divisors: tuple

    def __post_init__(self):
        ds = []
        for d in self.divisors:
            try:
                ds.append(operator.index(d))
            except TypeError:
                raise ValueError("divisors must be integers, got %r"
                                 % (d,)) from None
        ds = tuple(ds)
        object.__setattr__(self, "divisors", ds)
        seen_zero = False
        prev = None
        for d in ds:
            if d < 0:
                raise ValueError("divisors must be nonnegative, got %r"
                                 % (ds,))
            if d == 0:
                seen_zero = True
            else:
                if seen_zero:
                    raise ValueError("zeros must come last, got %r"
                                     % (ds,))
                if prev is not None and d % prev != 0:
                    raise ValueError("divisibility chain violated: %d | %d"
                                     % (prev, d))
                prev = d

    @property
    def betti(self) -> int:
        return self.divisors.count(0)

    @property
    def torsion(self) -> tuple:
        return tuple(d for d in self.divisors if d > 1)

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion)


def _bezout(p: int, b: int) -> tuple:
    """``(s, t, u, v)``, a unimodular ``[[s, t], [u, v]]`` that takes
    ``(p, b)`` to ``(gcd(p, b), 0)``, for ``b`` not a multiple of ``p``."""
    g = gcd(p, b)
    s = pow(p // g, -1, abs(b // g))    # s * p == g (mod b)
    return s, (g - s * p) // b, -(b // g), p // g


def smith_normal_form(m: IntMatrix) -> DivisorChain:
    """Elementary divisors of a square integer matrix.

    Pivot = nonzero entry of minimal absolute value (lowest (row, col) on
    ties).  Each nonzero entry of its column is cleared by one row step:
    subtracting a multiple when the pivot divides it, else a unimodular
    2x2 operation that puts gcd(pivot, entry) on the pivot.  The pivot row
    is then cleared the same way, as a column of the transpose, which has
    the same divisors.  A gcd step refills the line cleared before only by
    shrinking the pivot to a proper divisor, so rows and columns alternate
    at most ``log2 |pivot| + 1`` times.
    """
    n = m.dim
    a = m.to_lists()
    divisors = []
    for top in range(n):
        # locate minimal-abs nonzero pivot in the working submatrix
        pivot = None
        for i in range(top, n):
            for j in range(top, n):
                v = a[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            divisors.extend([0] * (n - top))
            break
        i, j = pivot
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        while True:
            for i in range(top + 1, n):     # clear the pivot column
                p, b = a[top][top], a[i][top]
                if b % p:
                    s, t, u, v = _bezout(p, b)
                    a[top], a[i] = ([s * x + t * y for x, y in zip(a[top], a[i])],
                                    [u * x + v * y for x, y in zip(a[top], a[i])])
                elif b:
                    q = b // p
                    a[i] = [y - q * x for x, y in zip(a[top], a[i])]
            if not any(a[top][top + 1:]):
                break
            a = [list(col) for col in zip(*a)]  # clear the row as a column
        divisors.append(abs(a[top][top]))
    # enforce the divisibility chain on the diagonal: diag(a, b) ~ diag(gcd, lcm);
    # pass i leaves nz[i] | nz[j] for every j > i, so nz comes out ascending
    nz = [d for d in divisors if d != 0]
    zeros = len(divisors) - len(nz)
    for i in range(len(nz)):
        for j in range(i + 1, len(nz)):
            if nz[j] % nz[i] != 0:
                g = gcd(nz[i], nz[j])
                nz[i], nz[j] = g, nz[i] // g * nz[j]
    return _unchecked(DivisorChain, divisors=tuple(nz) + (0,) * zeros)


def mapping_torus_homology(m: IntMatrix) -> DivisorChain:
    """First homology of the mapping torus with monodromy action m: the
    chain of diag(m - I, 0), coker(m - I) plus one free factor from the
    circle direction."""
    chain = smith_normal_form(m - identity(m.dim))
    return _unchecked(DivisorChain, divisors=chain.divisors + (0,))


@dataclass(frozen=True)
class TorsionOrder:
    value: int
    singular: bool
    betti: int         # free rank of the mapping torus homology


def torsion_order(m: IntMatrix) -> TorsionOrder:
    """|det(m - I)| when nonzero; otherwise the product of the nonzero
    elementary divisors of m - I, flagged singular.  Either way it is the
    torsion order of the mapping torus homology, whose free rank comes
    along; the Smith form is computed only for a singular m - I."""
    d = det(m - identity(m.dim))
    if d != 0:
        return TorsionOrder(abs(d), False, 1)
    h = mapping_torus_homology(m)
    return TorsionOrder(h.torsion_order, True, h.betti)


def _fp_rank(a: list, p: int) -> int:
    """Rank of H1 of the mapping torus with F_p coefficients, for the square
    rows of residues ``a`` of its monodromy action A: 1 + dim ker(A - I)
    over F_p.  I is subtracted and the rows eliminated in place, without
    division: a row below the pivot becomes (row * pivot - f * top) mod p,
    a unit times itself plus a multiple of the pivot row."""
    n = len(a)
    for i, row in enumerate(a):
        row[i] = (row[i] - 1) % p
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        pivot = top[col]
        for i in range(rank + 1, n):
            f = a[i][col]
            if f:
                a[i] = [(x * pivot - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
    return 1 + n - rank


def fp_rank(m: IntMatrix, p: int) -> int:
    """``_fp_rank`` of m reduced mod p."""
    return _fp_rank(mod_p(m, p).to_lists(), p)


def heegaard_homology(m: IntMatrix) -> DivisorChain:
    """First homology of the Heegaard splitting glued by a symplectic m
    of dimension 2g.

    Basis convention: coordinates 1..g span the handlebody Lagrangian,
    g+1..2g its complement; H1 is the cokernel of the top-right g x g
    block of m.
    """
    g, odd = divmod(m.dim, 2)
    if odd:
        raise DimensionError("need a 2g x 2g matrix, got dimension %d"
                             % m.dim)
    b = _unchecked(IntMatrix, rows=tuple(row[g:] for row in m.rows[:g]))
    return smith_normal_form(b)


def complexity_lower_bound(h: DivisorChain) -> float:
    """Triangulation-complexity lower bound: log base 5 of the torsion
    order of the group ``h`` (0 for trivial torsion)."""
    return math.log(h.torsion_order) / math.log(5)
