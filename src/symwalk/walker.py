"""Seeded random words over a generator family and their exact products.

Reproducibility contract: every sample of a batch gets its own seed,
derived by mixing (master_seed, word_length, sample_index) through a
splitmix64-style hash, so the batch is embarrassingly parallel and the
output stream is a pure function of the config.

Products apply each letter through its generator's column action
(``GeneratorFamily.actions``): the running product is a list of columns,
and a letter rebuilds only the columns where its generator differs from
the identity.  A transvection rebuilds one column, a signed permutation
reorders them, and any other matrix costs one combination per column it
moves.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .generators import (POSITIVE, SYMMETRIC, GeneratorFamily, make_family,
                         symmetric_closure)
from .intmat import IntMatrix

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(master_seed: int, length: int, index: int) -> int:
    """Per-sample seed: hash of (master_seed, length, index)."""
    s = splitmix64(master_seed & _MASK)
    s = splitmix64(s ^ ((length & _MASK) * 0xD1342543DE82EF95 & _MASK))
    s = splitmix64(s ^ ((index & _MASK) * 0xDABA0B6EB09322E3 & _MASK))
    return s


@dataclass(frozen=True)
class Word:
    """A sequence of generator indices over a family."""

    family: GeneratorFamily
    letters: tuple

    def __post_init__(self):
        k = len(self.family)
        for i in self.letters:
            if not 0 <= i < k:
                raise ValueError("letter %d out of range for family of %d" % (i, k))

    @property
    def length(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class WalkSample:
    word: Word
    product: IntMatrix
    seed: int


@dataclass(frozen=True)
class BatchConfig:
    """One experiment batch: family spec, a progression of word lengths,
    samples per length, and the master seed."""

    family_name: str
    family_param: int
    lengths: tuple          # (start, end, step), inclusive endpoints
    samples_per_length: int
    master_seed: int
    mode: str = POSITIVE

    def __post_init__(self):
        start, end, step = self.lengths
        if start < 1 or step < 1 or self.samples_per_length < 1:
            raise ValueError("lengths must start >= 1, step >= 1, samples >= 1")
        if end < start:
            raise ValueError("lengths %d:%d:%d end before they start"
                             % self.lengths)
        if self.mode not in (POSITIVE, SYMMETRIC):
            raise ValueError("unknown mode %r" % self.mode)

    def length_values(self):
        start, end, step = self.lengths
        return list(range(start, end + 1, step))

    def resolve_family(self) -> GeneratorFamily:
        fam = make_family(self.family_name, self.family_param)
        if self.mode == SYMMETRIC:
            fam = symmetric_closure(fam)
        return fam


def sample_word(family: GeneratorFamily, length: int, seed: int) -> Word:
    """Uniform i.i.d. letters over the family, deterministic in the seed."""
    if length < 1:
        raise ValueError("word length must be >= 1")
    k = len(family)
    rng = random.Random(seed)
    return Word(family, tuple(rng.randrange(k) for _ in range(length)))


def word_product(word: Word) -> IntMatrix:
    """Exact left-to-right product of the lettered generators."""
    actions = word.family.actions
    cols = list(zip(*word.family.matrices[word.letters[0]].rows))
    for letter in word.letters[1:]:
        new = []
        for j, terms in actions[letter]:
            (i, c), *more = terms
            if c == 1:
                col = cols[i]
            elif c == -1:
                col = [-x for x in cols[i]]
            else:
                col = [c * x for x in cols[i]]
            for i, c in more:
                if c == 1:
                    col = [a + b for a, b in zip(col, cols[i])]
                elif c == -1:
                    col = [a - b for a, b in zip(col, cols[i])]
                else:
                    col = [a + c * b for a, b in zip(col, cols[i])]
            new.append((j, col))
        for j, col in new:
            cols[j] = col
    return IntMatrix(tuple(zip(*cols)))


def make_sample(family: GeneratorFamily, length: int, seed: int) -> WalkSample:
    word = sample_word(family, length, seed)
    return WalkSample(word, word_product(word), seed)


class BatchError(RuntimeError):
    """A per-sample callback failed; carries the failing (length, index)."""

    def __init__(self, length, index, cause):
        super().__init__("batch sample (length=%d, index=%d) failed: %s"
                         % (length, index, cause))
        self.length = length
        self.index = index
        self.cause = cause


def _run_one(args):
    family, length, index, seed, per_sample = args
    sample = make_sample(family, length, seed)
    return per_sample(sample)


def run_batch(config: BatchConfig, per_sample, threads: int = 1):
    """Yield per_sample(WalkSample) records in deterministic (length, index)
    order.  With threads > 1 the samples are computed by a process pool
    (per_sample must then be picklable); the emission order is unchanged.
    """
    family = config.resolve_family()
    tasks = [(family, length, j, derive_seed(config.master_seed, length, j),
              per_sample)
             for length in config.length_values()
             for j in range(config.samples_per_length)]
    if threads <= 1:
        for family_, length, j, seed, cb in tasks:
            try:
                yield _run_one((family_, length, j, seed, cb))
            except Exception as exc:
                raise BatchError(length, j, exc) from exc
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, len(tasks) // (8 * threads))
            results = iter(pool.map(_run_one, tasks, chunksize=chunk))
            for family_, length, j, seed, cb in tasks:
                try:
                    yield next(results)
                except Exception as exc:
                    raise BatchError(length, j, exc) from exc
