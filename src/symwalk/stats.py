"""Per-length summaries (count, mean, variance), OLS regression, and the
exact law of mod-p ranks under a walk, for mod-p equidistribution checks.

The predicted rank law is that of the walk that is sampled, cosets and
periodicity included, not the uniform law on some group.

``fp_rank`` reduces mod p first, so the rank of a sample depends only on
where its product lands in the closure G of the letters mod p.  One
``walk_closure`` per (family, p) serves both sides: its ``rank_law`` is
the predicted law, and its ``rank`` walks a sample on G, one table lookup
per letter, instead of building the exact product.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .homology import fp_rank
from .intmat import IntMatrix, NotPrimeError, is_prime


@dataclass(frozen=True)
class StatSummary:
    count: int
    mean: float
    variance: float


def summarize(samples) -> StatSummary:
    """Two-pass mean and sample variance, summed in ascending order."""
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n == 0:
        raise ValueError("empty input")
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1) if n > 1 else 0.0
    return StatSummary(n, mean, var)


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def linear_fit(x, y) -> LinearFit:
    """Ordinary least squares y = intercept + slope * x."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((v - mx) ** 2 for v in xs)
    if sxx == 0:
        raise ValueError("x is constant")
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    syy = sum((v - my) ** 2 for v in ys)
    slope = sxy / sxx
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return LinearFit(slope, my - slope * mx, r2)


@dataclass(frozen=True)
class RankTable:
    """Empirical vs predicted distribution of mod-p homology ranks."""

    p: int
    frequencies: dict
    predicted: dict

    def total_variation(self) -> float:
        keys = set(self.frequencies) | set(self.predicted)
        return 0.5 * sum(abs(float(self.frequencies.get(k, 0))
                             - float(self.predicted.get(k, 0)))
                         for k in keys)


def empirical_rank_table(p: int, ranks, predicted=None) -> RankTable:
    freq = {}
    total = len(ranks)
    for r in ranks:
        freq[r] = freq.get(r, 0) + 1
    freq = {r: c / total for r, c in sorted(freq.items())}
    return RankTable(p, freq, predicted or {})


# --- the exact law of the walk mod p ------------------------------------------

GROUP_ORDER_BOUND = 10 ** 4     # largest group walk_rank_law evolves a law on


def _closure_mod_p(gens, p: int):
    """Close generators (rows of integers) mod p by breadth-first search.

    Returns the elements of the group G they generate, as one
    ``(|G|, n, n)`` array with the identity first, and per generator g the
    index array sending (the index of) x to x·g; None once |G| exceeds
    ``GROUP_ORDER_BOUND``.
    """
    n = len(gens[0])
    if n * (p - 1) ** 2 < 2 ** 63:      # every entry of a product fits
        dtype, key = np.int64, np.ndarray.tobytes
    else:                               # Python integers, keyed by value
        dtype, key = object, lambda a: tuple(a.ravel().tolist())
    gens = [np.array(g, dtype=dtype) % p for g in gens]
    group = [np.eye(n, dtype=np.int64).astype(dtype)]
    index = {key(group[0]): 0}
    moves = [[] for _ in gens]
    for x in group:                     # group grows as it is visited
        for g, move in zip(gens, moves):
            y = x @ g % p
            move.append(index.setdefault(key(y), len(group)))
            if move[-1] == len(group):
                group.append(y)
        if len(group) > GROUP_ORDER_BOUND:
            return None
    return np.array(group), np.array(moves)


@dataclass(frozen=True)
class WalkClosure:
    """A family's walk mod p on the closure G of its letters, with the
    elements of G as indices (0 is the identity).

    ``moves[a][x]`` is the index of x·g for letter a with generator g
    (letters whose generators agree mod p share one table), and
    ``ranks[x]`` is ``fp_rank`` of element x.  The elements themselves are
    not kept: a walk needs only their indices, and the record that walks
    is pickled to every pool worker.
    """

    moves: tuple
    ranks: tuple

    def rank(self, letters) -> int:
        """``fp_rank`` of the product of ``letters``: walk G from the
        identity, one table lookup per letter."""
        moves, x = self.moves, 0
        for a in letters:
            x = moves[a][x]
        return self.ranks[x]

    def rank_law(self, length: int) -> dict:
        """Exact law of ``rank`` of a uniform word of ``length`` letters,
        as ``{rank: Fraction}``.

        The word counts of the walk on G evolve one letter at a time,
        ``v <- sum_g v[x·g^-1]`` (Diaconis 1988, ch. 3), so a walk confined
        to a coset or a subgroup of G is predicted as such.
        """
        # letters sharing a table move the walk alike: per distinct
        # generator g, back[y] is the x with x·g = y, and its weight;
        # counts are words of weighted letters, W^length in all
        weights = Counter(self.moves)
        common = math.gcd(*weights.values())
        steps = [(np.argsort(move), w // common)
                 for move, w in weights.items()]
        counts = np.zeros(len(self.ranks), dtype=object)
        counts[0] = 1
        for _ in range(length):
            counts = functools.reduce(operator.add, [
                w * counts[back] if w > 1 else counts[back]
                for back, w in steps])
        law = {}
        for rank, count in zip(self.ranks, counts):
            if count:
                law[rank] = law.get(rank, 0) + count
        words = (len(self.moves) // common) ** length     # W^length
        return {rank: Fraction(c, words) for rank, c in sorted(law.items())}


def walk_closure(family, p: int):
    """The ``WalkClosure`` of ``family`` mod the prime p, or None when |G|
    exceeds ``GROUP_ORDER_BOUND``."""
    if not is_prime(p):
        raise NotPrimeError("%d is not prime" % p)
    reduced = [tuple(tuple(x % p for x in row) for row in m.rows)
               for m in family.matrices]
    distinct = list(dict.fromkeys(reduced))
    closure = _closure_mod_p(distinct, p)
    if closure is None:
        return None
    group, moves = closure
    table = {g: tuple(move.tolist()) for g, move in zip(distinct, moves)}
    ranks = tuple(fp_rank(IntMatrix(tuple(map(tuple, x.tolist()))), p)
                  for x in group)
    return WalkClosure(tuple(table[g] for g in reduced), ranks)


def walk_rank_law(family, p: int, length: int) -> dict:
    """Exact law of ``fp_rank(M, p)`` for the product M of a uniform word
    of ``length`` letters over ``family``, as ``{rank: Fraction}``: the
    ``rank_law`` of its ``walk_closure``, or ``{}`` when |G| exceeds
    ``GROUP_ORDER_BOUND``."""
    closure = walk_closure(family, p)
    return {} if closure is None else closure.rank_law(length)
