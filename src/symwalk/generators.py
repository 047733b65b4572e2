"""Generator families for Sp(2g, Z) and SL(n, Z).

Three named families:

* ``humphries``: homology images of the Humphries generating set of the
  mapping class group of a genus-g surface (2g+1 matrices in Sp(2g, Z)).
* ``hua-reiner``: the two-element generating set of SL(n, Z).
* ``stanek``: the two/three-element generating set of Sp(2n, Z).

Each generator is written as its entries: ``_matrix`` takes them at the
1-based positions of the original listings, over the identity (or, for
the cyclic ``hru5`` and ``stanek_dd``, over zero).
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import IntMatrix, det, inverse


@dataclass(frozen=True)
class GeneratorFamily:
    """An ordered list of integer matrix generators, each of determinant 1.
    It is plain, picklable data; ``walker`` compiles its product walk, one
    function for all members, from ``matrices`` in each process."""

    matrices: tuple

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("a generator family must be nonempty")
        dim = self.matrices[0].dim
        if not dim:
            raise ValueError("generators must have dimension >= 1, got 0")
        for m in self.matrices:
            if m.dim != dim:
                raise ValueError("all generators must share one dimension")
            if det(m) != 1:
                raise ValueError("generator has determinant != 1")

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
    return IntMatrix(tuple(map(tuple, rows)))


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
    exists for g >= 2.
    """
    if g < 2:
        raise ValueError("humphries family needs genus >= 2, got %d" % g)
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
    """Extend a family by the exact inverses of its members, deduplicated."""
    mats = list(fam.matrices)
    for m in fam.matrices:
        inv = inverse(m)
        if inv not in mats:
            mats.append(inv)
    return GeneratorFamily(tuple(mats))


def make_family(name: str, param: int) -> GeneratorFamily:
    """Resolve a family by name and its size parameter (genus or n)."""
    if name == "humphries":
        return humphries_symplectic(param)
    if name in ("hua-reiner", "hua_reiner"):
        return hua_reiner(param)
    if name == "stanek":
        return stanek(param)
    raise ValueError("unknown family %r" % name)
