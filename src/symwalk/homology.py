"""Smith normal form over Z and the homology invariants built on it.

The divisor chain of M - I classifies the first homology of the mapping
torus with monodromy action M; the top-right block of a symplectic gluing
matrix classifies the first homology of the corresponding Heegaard
splitting.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from math import gcd

from .intmat import DimensionError, IntMatrix, det, identity, mod_p


@dataclass(frozen=True)
class DivisorChain:
    """Elementary divisors d1 | d2 | ... | dr; 0 encodes a free factor."""

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
                raise ValueError("divisors must be nonnegative")
            if d == 0:
                seen_zero = True
            else:
                if seen_zero:
                    raise ValueError("zeros must come last")
                if prev is not None and d % prev != 0:
                    raise ValueError("divisibility chain violated: %d | %d"
                                     % (prev, d))
                prev = d

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def zero_count(self) -> int:
        return sum(1 for d in self.divisors if d == 0)

    @property
    def nonzero(self) -> tuple:
        return tuple(d for d in self.divisors if d != 0)


@dataclass(frozen=True)
class HomologyDescriptor:
    """A finitely generated abelian group: free rank plus torsion divisors."""

    betti: int
    torsion: tuple

    def __post_init__(self):
        ts = tuple(int(t) for t in self.torsion)
        object.__setattr__(self, "torsion", ts)
        prev = None
        for t in ts:
            if t <= 1:
                raise ValueError("torsion divisors must be > 1")
            if prev is not None and t % prev != 0:
                raise ValueError("torsion divisibility chain violated")
            prev = t

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion)


def smith_normal_form(m: IntMatrix) -> DivisorChain:
    """Elementary divisors of a square integer matrix.

    Pivot = nonzero entry of minimal absolute value (lowest (row, col) on
    ties); rows/columns are cleared by exact Euclidean steps, restarting
    on the pivot whenever a smaller remainder shows up.
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
        if i != top:
            a[top], a[i] = a[i], a[top]
        if j != top:
            for row in a:
                row[top], row[j] = row[j], row[top]
        while True:
            p = a[top][top]
            # clear the pivot column
            dirty = False
            for i in range(top + 1, n):
                if a[i][top] != 0:
                    q = a[i][top] // p
                    if q:
                        for c in range(top, n):
                            a[i][c] -= q * a[top][c]
                    if a[i][top] != 0:
                        # remainder is smaller than the pivot: swap it up
                        a[top], a[i] = a[i], a[top]
                        dirty = True
                        break
            if dirty:
                continue
            # clear the pivot row
            for j in range(top + 1, n):
                if a[top][j] != 0:
                    q = a[top][j] // p
                    if q:
                        for r in range(top, n):
                            a[r][j] -= q * a[r][top]
                    if a[top][j] != 0:
                        for r in range(top, n):
                            a[r][top], a[r][j] = a[r][j], a[r][top]
                        dirty = True
                        break
            if not dirty:
                break
        divisors.append(abs(a[top][top]))
    # enforce the divisibility chain on the diagonal: diag(a, b) ~ diag(gcd, lcm)
    nz = [d for d in divisors if d != 0]
    zeros = len(divisors) - len(nz)
    for i in range(len(nz)):
        for j in range(i + 1, len(nz)):
            if nz[j] % nz[i] != 0:
                g = gcd(nz[i], nz[j])
                nz[i], nz[j] = g, nz[i] // g * nz[j]
    nz.sort()
    return DivisorChain(tuple(nz) + (0,) * zeros)


def _descriptor_from_chain(chain: DivisorChain, extra_betti: int = 0) -> HomologyDescriptor:
    return HomologyDescriptor(
        betti=extra_betti + chain.zero_count,
        torsion=tuple(d for d in chain.divisors if d > 1))


def mapping_torus_homology(m: IntMatrix) -> HomologyDescriptor:
    """First homology of the mapping torus with monodromy action m:
    coker(m - I) plus one free factor from the circle direction."""
    chain = smith_normal_form(m - identity(m.dim))
    return _descriptor_from_chain(chain, extra_betti=1)


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


def _fp_nullity(m: IntMatrix, p: int) -> int:
    """Dimension of ker(m) over F_p via Gaussian elimination."""
    a = mod_p(m, p).to_lists()
    n = m.dim
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if a[i][col] % p != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return n - rank


def fp_rank(m: IntMatrix, p: int) -> int:
    """Rank of H1 of the mapping torus with F_p coefficients:
    1 + dim ker(m - I mod p)."""
    return 1 + _fp_nullity(m - identity(m.dim), p)


def heegaard_homology(m: IntMatrix, g: int) -> HomologyDescriptor:
    """First homology of the Heegaard splitting glued by a symplectic m.

    Basis convention: coordinates 1..g span the handlebody Lagrangian,
    g+1..2g its complement; H1 is the cokernel of the top-right g x g
    block of m.
    """
    if m.dim != 2 * g:
        raise DimensionError("need a 2g x 2g matrix for genus %d" % g)
    b = IntMatrix(tuple(tuple(m.rows[i][g + j] for j in range(g))
                        for i in range(g)))
    chain = smith_normal_form(b)
    return _descriptor_from_chain(chain)


def complexity_lower_bound(h: HomologyDescriptor) -> float:
    """Triangulation-complexity lower bound: log base 5 of the torsion
    order (0 for trivial torsion)."""
    t = h.torsion_order
    if t <= 1:
        return 0.0
    return math.log(t) / math.log(5)
