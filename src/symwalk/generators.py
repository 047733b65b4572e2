"""Generator families for Sp(2g, Z) and SL(n, Z).

Three named families:

* ``humphries``: homology images of the Humphries generating set of the
  mapping class group of a genus-g surface (2g+1 matrices in Sp(2g, Z)).
* ``hua-reiner``: the two-element generating set of SL(n, Z).
* ``stanek``: the two/three-element generating set of Sp(2n, Z).

Each generator is written as its entries: ``_matrix`` takes them at the
1-based positions of the original listings, over the identity (or, for
the cyclic ``hru5`` and ``stanek_dd``, over zero).  It builds a square
matrix of Python ints, which is all the checks of ``IntMatrix`` ensure, so
it skips them (``intmat._unchecked``).  Every family, named, built by a
caller or closed by ``symmetric_closure``, passes the checks of
``GeneratorFamily``: at most 255 members, counted before any determinant,
one dimension, and determinant 1 each.  The members sit near the
identity, and ``intmat``'s elimination skips the rows such a matrix
leaves unchanged, so the 255 members of Humphries genus 127, of dimension
254, prove their determinants in about 0.3 s and invert in about 2 s: an
over-cap closure is refused in seconds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .intmat import IntMatrix, _unchecked, det, inverse

LETTER_BOUND = 1 << 8       # a letter is one byte: at most 255 members


@dataclass(frozen=True)
class GeneratorFamily:
    """An ordered list of at most 255 integer matrix generators, each of
    determinant 1, so that a letter is one byte.  It is plain, picklable
    data; ``walker`` compiles its product walk, one function for all
    members, from ``matrices`` in each process."""

    matrices: tuple

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("a generator family must be nonempty")
        if len(self.matrices) >= LETTER_BOUND:     # before any det
            raise ValueError("a generator family holds at most %d members, "
                             "got %d" % (LETTER_BOUND - 1, len(self.matrices)))
        dim = self.matrices[0].dim
        if not dim:
            raise ValueError("generators must have dimension >= 1, got 0")
        for m in self.matrices:
            if m.dim != dim:
                raise ValueError("all generators must share one dimension")
            if det(m) != 1:
                raise ValueError("generator has determinant != 1")

    def __getstate__(self):
        # only the matrices travel: the walk a process compiles from them
        # and keeps on the object (walker._family_kernels) stays behind
        return {"matrices": self.matrices}

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    def __len__(self) -> int:
        return len(self.matrices)


def _matrix(n: int, entries: dict, diagonal: int = 1) -> IntMatrix:
    """The n x n matrix with the given 1-based ``{(i, j): value}`` entries,
    ``diagonal`` elsewhere on the diagonal and 0 elsewhere off it."""
    rows = [[diagonal if r == c else 0 for c in range(n)] for r in range(n)]
    for (i, j), value in entries.items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError("entry (%d, %d) is outside the %d x %d matrix"
                             % (i, j, n, n))
        rows[i - 1][j - 1] = value
    return _unchecked(IntMatrix, rows=tuple(map(tuple, rows)))


def birman_y(g: int, i: int) -> IntMatrix:
    return _matrix(2 * g, {(i, g + i): -1})


def birman_u(g: int, i: int) -> IntMatrix:
    return _matrix(2 * g, {(g + i, i): 1})


def birman_z(g: int, i: int) -> IntMatrix:
    return _matrix(2 * g, {(i, g + i): -1, (i, g + i + 1): 1,
                           (i + 1, g + i): 1, (i + 1, g + i + 1): -1})


def humphries_symplectic(g: int) -> GeneratorFamily:
    """Humphries generator images in Sp(2g, Z); 2g+1 distinct matrices.

    g = 1 is rejected: the construction uses birman_y(g, 2), which only
    exists for g >= 2.  So is g > 127, whose 2g+1 members are more than a
    letter can name, before any matrix is built.
    """
    if g < 2:
        raise ValueError("humphries family needs genus >= 2, got %d" % g)
    if 2 * g + 1 >= LETTER_BOUND:
        raise ValueError("humphries family at genus %d has %d members, more "
                         "than %d" % (g, 2 * g + 1, LETTER_BOUND - 1))
    return GeneratorFamily(tuple(
        [birman_u(g, i) for i in range(1, g + 1)]
        + [birman_z(g, i) for i in range(1, g)]
        + [birman_y(g, 1), birman_y(g, 2)]))


def hru2(n: int) -> IntMatrix:
    return _matrix(n, {(1, 2): 1})


def hru5(n: int) -> IntMatrix:
    return _matrix(n, {**{(i + 1, i): 1 for i in range(1, n)},
                       (1, n): (-1) ** (n - 1)}, diagonal=0)


def hua_reiner(n: int) -> GeneratorFamily:
    """The two Hua-Reiner generators of SL(n, Z)."""
    if n < 2:
        raise ValueError("hua-reiner family needs n >= 2, got %d" % n)
    return GeneratorFamily((hru2(n), hru5(n)))


def stanek_r21(n: int) -> IntMatrix:
    return _matrix(2 * n, {(2, 1): 1, (n + 1, n + 2): -1})


def stanek_tk(n: int, k: int) -> IntMatrix:
    return _matrix(2 * n, {(n + k, k): 1})


def stanek_dd(n: int) -> IntMatrix:
    return _matrix(2 * n, {**{(i, i + 1): 1 for i in range(1, 2 * n)},
                           (n, n + 1): -1, (2 * n, 1): 1}, diagonal=0)


def stanek(n: int) -> GeneratorFamily:
    """Stanek generators of Sp(2n, Z); n = 1 falls back to Hua-Reiner SL(2)."""
    if n < 1:
        raise ValueError("stanek family needs n >= 1, got %d" % n)
    if n == 1:
        return hua_reiner(2)
    if n in (2, 3):
        mats = (stanek_r21(n), stanek_tk(n, 1), stanek_dd(n))
    else:
        mats = (_matrix(2 * n, {(2, 1): 1, (n + 1, 1): 1, (n + 1, n + 2): -1}),
                stanek_dd(n))
    return GeneratorFamily(mats)


def symmetric_closure(fam: GeneratorFamily) -> GeneratorFamily:
    """Extend a family by the exact inverses of its members: the members
    in their order, then each inverse that is not a member, first
    occurrences only, in member order.  The result is checked like any
    family: first the 255-member cap, then each member's determinant."""
    known = set(fam.matrices)
    return GeneratorFamily(fam.matrices + tuple(dict.fromkeys(
        inv for inv in map(inverse, fam.matrices) if inv not in known)))


def _sp(g: int):
    return g * g, range(2, 2 * g + 1, 2)


def _sl(n: int):
    return n * (n - 1) // 2, range(2, n + 1)


# each named family: how to build it from its size parameter (genus or n),
# and the (e, ks) of the order p^e prod_{k in ks} (p^k - 1) of the group
# it generates mod a prime p (group_order)
_FAMILIES = {
    "humphries": (humphries_symplectic, _sp),
    "hua-reiner": (hua_reiner, _sl),
    "stanek": (stanek, _sp),
}


def _named(name: str):
    if name not in _FAMILIES:
        raise ValueError("unknown family %r" % name)
    return _FAMILIES[name]


def make_family(name: str, param: int) -> GeneratorFamily:
    """Resolve a family by name and its size parameter (genus or n)."""
    return _named(name)[0](param)


# the largest group G mod p that stats.walk_closure closes; group_order
# counts no further
GROUP_ORDER_BOUND = 10 ** 4


def group_order(name: str, param: int, p: int) -> int:
    """The order of the group the named family generates mod the prime p,
    or, once the order passes ``GROUP_ORDER_BOUND``, a divisor of it past
    the bound: its factors, each at least 2, are multiplied in turn, so an
    order of millions of bits costs a few products of small ones.

    Humphries' twists generate the mapping class group, which maps onto
    Sp(2g, Z); Stanek's members generate Sp(2n, Z), and Hua-Reiner's
    SL(n, Z).  Reduction mod p maps each onto its group over F_p (Newman,
    *Integral Matrices*, ch. VII), and in a finite group the semigroup of
    the letters is a group, so either walk mode closes to

        |Sp(2g, F_p)| = p^(g^2) prod_{i=1..g} (p^(2i) - 1),
        |SL(n, F_p)| = p^(n(n-1)/2) prod_{i=2..n} (p^i - 1).

    Sp(2, F_p) is SL(2, F_p), the group of Stanek n = 1."""
    e, ks = _named(name)[1](param)
    order = 1
    for factor in itertools.chain(itertools.repeat(p, e),
                                  (p ** k - 1 for k in ks)):
        order *= factor
        if order > GROUP_ORDER_BOUND:
            break
    return order
