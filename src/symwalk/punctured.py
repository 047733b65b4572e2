"""Longest runs of one letter in uniform random words.

Runs of a single letter in random words grow like log(n) / log(alphabet),
and the scaling experiment measures exactly that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .stats import LinearFit, linear_fit
from .walker import derive_seed


def longest_run_in(letters, letter: int) -> int:
    """Maximal length of a consecutive block of the given letter."""
    best = 0
    current = 0
    for x in letters:
        if x == letter:
            current += 1
            if current > best:
                best = current
        else:
            current = 0
    return best


@dataclass(frozen=True)
class RunScalingResult:
    rows: tuple                 # (length, mean longest run of letter 0)
    fit: LinearFit              # mean run vs log(length)


def run_scaling_experiment(alphabet_size: int, lengths, samples: int,
                           seed: int) -> RunScalingResult:
    """Monte Carlo means of the longest run of letter 0 in uniform words,
    with an a + b*log(n) regression."""
    lengths = list(lengths)
    if alphabet_size < 2 or samples < 1 or not lengths or min(lengths) < 1:
        raise ValueError("punctured needs alphabet >= 2, samples >= 1 and "
                         "lengths >= 1, got alphabet %d, samples %d and "
                         "lengths %r" % (alphabet_size, samples, lengths))
    rows = []
    for n in lengths:
        total = 0
        for j in range(samples):
            rng = random.Random(derive_seed(seed, n, j))
            total += longest_run_in(
                (rng.randrange(alphabet_size) for _ in range(n)), 0)
        rows.append((n, total / samples))
    fit = None
    if len(rows) >= 2:
        fit = linear_fit([math.log(n) for n, _ in rows], [m for _, m in rows])
    return RunScalingResult(tuple(rows), fit)
