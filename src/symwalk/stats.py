"""Every statistic the experiments report: per-length summaries (count,
mean, variance), OLS regression, CLT diagnostics, empirical rank tables
and their total variation, and the exact law of mod-p ranks under a walk.
A deviation is squared as ``d * d`` throughout (``** 2`` calls libm's
``pow``), so ``summarize`` and ``clt_diagnostics`` agree on a variance.

The predicted rank law is that of the walk that is sampled, cosets and
periodicity included, not the uniform law on some group.

``fp_rank`` reduces mod p first, so the rank of a sample depends only on
where its product lands in the closure G of the letters mod p.  One
``walk_closure`` per (family, p) serves both sides: its ``rank_law`` is
the predicted law, and its ``rank`` walks a sample on G, one table lookup
per letter, instead of building the exact product.  It reduces the
letters through ``mod_p``, the package's one check that p is prime, and
closes G through the ``walker``'s compiled walk, one one-letter call per
pass and distinct generator.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .homology import _fp_nullity
from .intmat import mod_p
from .walker import _kernels


@dataclass(frozen=True)
class StatSummary:
    count: int
    mean: float
    variance: float


def summarize(samples) -> StatSummary:
    """Two-pass mean and sample variance, each sum correctly rounded
    (``math.fsum``), so independent of order and of the Python version."""
    xs = [float(x) for x in samples]
    n = len(xs)
    if n == 0:
        raise ValueError("empty input")
    mean = math.fsum(xs) / n
    var = (math.fsum((x - mean) * (x - mean) for x in xs) / (n - 1)
           if n > 1 else 0.0)
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
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((v - mx) * (v - mx) for v in xs)
    if sxx == 0:
        raise ValueError("x is constant")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    syy = math.fsum((v - my) * (v - my) for v in ys)
    slope = sxy / sxx
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return LinearFit(slope, my - slope * mx, r2)


def empirical_rank_table(ranks) -> dict:
    """``{rank: frequency}`` of a sample of ranks, in rank order."""
    counts = Counter(ranks)
    return {r: c / len(ranks) for r, c in sorted(counts.items())}


def total_variation(p: dict, q: dict) -> float:
    """Total variation distance between two laws ``{value: probability}``;
    a value missing from one law has probability 0 there."""
    return 0.5 * math.fsum(abs(float(p.get(k, 0)) - float(q.get(k, 0)))
                           for k in set(p) | set(q))


@dataclass(frozen=True)
class CltDiagnostics:
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_statistic_vs_normal: float


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def clt_diagnostics(samples) -> CltDiagnostics:
    """Moment statistics plus the KS distance to the normal with matched
    mean and variance."""
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n < 30:
        raise ValueError("need at least 30 samples")
    mean = math.fsum(xs) / n
    dev = [x - mean for x in xs]
    squares = math.fsum(d * d for d in dev)
    m2 = squares / n
    if m2 == 0:
        raise ValueError("zero variance")
    m3 = math.fsum(d ** 3 for d in dev) / n
    m4 = math.fsum(d ** 4 for d in dev) / n
    sd = math.sqrt(m2)
    ks = 0.0
    for i, x in enumerate(xs):
        f = normal_cdf((x - mean) / sd)
        ks = max(ks, abs((i + 1) / n - f), abs(f - i / n))
    return CltDiagnostics(
        mean=mean,
        variance=squares / (n - 1),
        skewness=m3 / m2 ** 1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
        ks_statistic_vs_normal=ks)


# --- the exact law of the walk mod p ------------------------------------------

# the largest group G whose walk WalkClosure.rank_law evolves a law on
GROUP_ORDER_BOUND = 10 ** 4


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
    """The ``WalkClosure`` of ``family`` mod the prime p, G closed by
    breadth-first search, or None once |G| exceeds ``GROUP_ORDER_BOUND``;
    ``mod_p`` refuses a p that is not prime.  An element is the tuple of
    its residues, row by row."""
    reduced = [mod_p(m, p).rows for m in family.matrices]
    first = {g: reduced.index(g) for g in reduced}  # g's first letter
    walk = _kernels(family.matrices)[1]
    moves = {g: [] for g in first}      # one table per distinct generator
    n = family.dim
    group = [tuple(int(i == j) for i in range(n) for j in range(n))]
    index, visited = {group[0]: 0}, 0
    while visited < len(group):         # group grows as it is visited
        level = np.array(group[visited:visited + GROUP_ORDER_BOUND + 1
                               - len(group)], dtype=object).reshape(-1, n, n)
        visited += len(level)
        cols = list(level.transpose(2, 0, 1))   # kept columns stay reduced
        images = [np.stack([y if y is x else y % p for x, y in
                            zip(cols, walk(*cols, (a,)))], 2)
                  .reshape(-1, n * n) for a in first.values()]
        for ys in zip(*(y.tolist() for y in images)):  # x·g: each x, g in turn
            for y, move in zip(map(tuple, ys), moves.values()):
                move.append(index.setdefault(y, len(group)))
                if move[-1] == len(group):
                    group.append(y)
            if len(group) > GROUP_ORDER_BOUND:
                return None
    tables = {g: tuple(move) for g, move in moves.items()}
    rows = ((np.array(group, dtype=object) - group[0]) % p).reshape(-1, n, n)
    ranks = tuple(1 + _fp_nullity(a, p) for a in rows.tolist())   # G - I
    return WalkClosure(tuple(tables[g] for g in reduced), ranks)
