"""Longest runs of one letter in uniform random words.

Runs of a single letter in random words grow like log(n) / log(alphabet),
and the scaling experiment measures exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import LinearFit, linear_fit
from .walker import LETTER_BOUND, derive_seed, letters


def longest_run_in(letters: bytes, letter: int) -> int:
    """Maximal length of a consecutive block of the given letter in
    ``letters``."""
    where = np.flatnonzero(np.frombuffer(letters, np.uint8) == letter)
    # a run ends wherever the next position of the letter is not adjacent;
    # with no such position the one "run" is empty
    ends = np.concatenate(([-1], np.flatnonzero(np.diff(where) != 1),
                           [where.size - 1]))
    return int(np.diff(ends).max())


@dataclass(frozen=True)
class RunScalingResult:
    rows: tuple                 # (length, mean longest run of letter 0)
    fit: LinearFit              # mean run vs log(length)


def run_scaling_experiment(alphabet_size: int, lengths, samples: int,
                           seed: int) -> RunScalingResult:
    """Monte Carlo means of the longest run of letter 0 in uniform words,
    with an a + b*log(n) regression."""
    lengths = list(lengths)
    if (not 2 <= alphabet_size < LETTER_BOUND or samples < 1 or not lengths
            or min(lengths) < 1):
        raise ValueError("punctured needs 2 <= alphabet <= 255, samples >= 1 "
                         "and lengths >= 1, got alphabet %d, samples %d and "
                         "lengths %r" % (alphabet_size, samples, lengths))
    if len(set(lengths)) < len(lengths):
        raise ValueError("punctured needs distinct lengths, got %r" % lengths)
    rows = []
    for n in lengths:
        total = sum(longest_run_in(letters(derive_seed(seed, n, j),
                                           alphabet_size, n), 0)
                    for j in range(samples))
        rows.append((n, total / samples))
    fit = None
    if len(rows) >= 2:
        fit = linear_fit([math.log(n) for n, _ in rows], [m for _, m in rows])
    return RunScalingResult(tuple(rows), fit)
