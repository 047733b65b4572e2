"""Constructive prescription of mapping-torus homology.

Given a divisibility chain a1 | a2 | ... | a_2n of positive integers,
build a symplectic matrix M with those as the elementary divisors of
M - I.  Consecutive chain entries feed one 2x2 block; blocks land on
coordinate pairs (i, g+i) of the standard symplectic basis.
"""

from __future__ import annotations

from .homology import DivisorChain, mapping_torus_homology
from .intmat import IntMatrix, is_symplectic


def sl2_block(r: int, s: int) -> IntMatrix:
    """The 2x2 symplectic block with SNF(block - I) = (r, rs)."""
    if r < 1 or s < 1:
        raise ValueError("need r, s >= 1")
    return IntMatrix((
        (1 - r * (1 + r * s), r),
        (-r * (1 + s + r * s), 1 + r),
    ))


def prescribe_symplectic(chain: DivisorChain) -> IntMatrix:
    """A symplectic matrix whose M - I has the given elementary divisors."""
    ds = chain.divisors
    if not ds:
        raise ValueError("chain must be nonempty")
    if len(ds) % 2 != 0:
        raise ValueError("chain length must be even, got %r" % (ds,))
    if any(d == 0 for d in ds):
        raise ValueError("chain entries must be positive, got %r"
                         % (ds,))
    g = len(ds) // 2
    rows = [[1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)]
    for i in range(g):
        r = ds[2 * i]
        block = sl2_block(r, ds[2 * i + 1] // r)    # a chain has r | ds[2i+1]
        # block acts on the symplectic coordinate pair (i, g+i)
        rows[i][i] = block[0, 0]
        rows[i][g + i] = block[0, 1]
        rows[g + i][i] = block[1, 0]
        rows[g + i][g + i] = block[1, 1]
    return IntMatrix(tuple(tuple(r) for r in rows))


def verify_prescription(m: IntMatrix, chain: DivisorChain) -> bool:
    """True iff m is symplectic and its mapping torus has H1 = the chain
    plus one free factor, that is, SNF(m - I) equals the chain."""
    return (m.dim == len(chain.divisors) and is_symplectic(m)
            and mapping_torus_homology(m).divisors == chain.divisors + (0,))
