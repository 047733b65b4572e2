"""Floating-point Lyapunov spectrum estimation.

This is the one deliberately inexact corner of the codebase: exponents
are drifts of log singular values, estimated by evolving an orthonormal
frame in double precision with periodic re-orthonormalization.  Exact
arithmetic lives in the homology pipeline; agreement between the two is
checked by the acceptance suite, not assumed here.  numpy evolves the
frames; each exponent's mean and standard error over the trials come from
``stats.summarize``.

Each trial draws its letters from its own seeded stream
(``walker.letters``), so the trials can evolve together as one stack and
still equal a one-trial-at-a-time loop exactly.  The stack takes s letters
per matmul from a table of every s-letter product of the members, where s
is the largest divisor of ``RENORM_EVERY`` whose table holds at most
``_TABLE_ENTRIES`` floats: s = 5 for Humphries g2, 2 for g3, 1 for g10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorFamily
from .stats import summarize
from .walker import derive_seed, letters

RENORM_EVERY = 10
BURN_IN = 100
_COLLAPSE = 1e-300
_TABLE_ENTRIES = 1 << 16


class FrameCollapseError(RuntimeError):
    """Frame directions collapsed below double-precision range between
    renormalizations: within ``RENORM_EVERY`` letters the members stretch
    a frame past double precision."""


@dataclass(frozen=True)
class LyapunovEstimate:
    exponents: tuple            # descending means, nats per step
    standard_error: tuple       # sqrt(variance / trials) of each

    @property
    def positive_sum(self) -> float:
        return math.fsum(e for e in self.exponents if e > 0)


def _orthonormalize(basis: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on the rows of each frame of a (trials, n, n)
    stack, in place; returns the (trials, n) row norms, the stretches.

    Row j is normalized, then projected out of every later row by one
    stacked matmul.  In exact arithmetic this is the QR factorization of
    each frame's transpose with diag(R) > 0: the rows become the columns
    of Q and the norms are diag(R).  A row of norm 0 turns NaN, and so do
    the rows after it."""
    n = basis.shape[1]
    stretch = np.empty(basis.shape[:2])
    for j in range(n):
        row = basis[:, j]
        norm = np.sqrt(np.einsum("ti,ti->t", row, row))
        stretch[:, j] = norm
        row /= norm[:, None]
        if j + 1 < n:
            later = basis[:, j + 1:]
            later -= (later @ row[:, :, None]) * row[:, None, :]
    return stretch


def _letters_per_matmul(k: int, dim: int) -> int:
    """The largest divisor s of ``RENORM_EVERY`` whose table of k**s
    products of dim x dim members holds at most ``_TABLE_ENTRIES`` floats;
    s = 1, the members themselves, always qualifies."""
    return max(d for d in range(1, RENORM_EVERY + 1) if RENORM_EVERY % d == 0
               and (d == 1 or k ** d * dim * dim <= _TABLE_ENTRIES))


def _letter_table(gens_t: np.ndarray, s: int) -> np.ndarray:
    """Every s-letter product of the (k, n, n) members as a (k**s, n, n)
    stack: entry i is ``gens_t[a1] @ ... @ gens_t[as]``, folded left to
    right, where a1..as are the base-k digits of i, most significant
    first."""
    table = gens_t
    for _ in range(s - 1):
        table = (table[:, None] @ gens_t[None]).reshape(-1, *gens_t.shape[1:])
    return table


def estimate_exponents(family: GeneratorFamily, steps: int, trials: int,
                       seed: int) -> LyapunovEstimate:
    """Mean per-step log stretches of an evolved orthonormal frame.

    The trials evolve together as one (trials, dim, dim) stack whose rows
    are the frame vectors; each trial's letters come from its own seeded
    stream.  After ``BURN_IN`` unlogged steps, numbered up to 0, come
    ``steps`` logged ones.  The frames are re-orthonormalized by
    ``_orthonormalize`` at every step divisible by ``RENORM_EVERY``,
    burn-in included, and after the last; the logged stretches are those
    of the steps after 0.  Between two of these the stack takes s letters
    per matmul (``_letters_per_matmul``), each the row-convention product
    of its letters in order, read from a table of every s-letter product;
    the last block, when ``steps`` is not a multiple of ``RENORM_EVERY``,
    takes its letters one at a time.  A stretch below ``_COLLAPSE`` at any
    re-orthonormalization, burn-in included, is a frame collapse."""
    if steps < 100 or trials < 1:
        raise ValueError("lyapunov needs steps >= 100 and trials >= 1, "
                         "got steps %d and trials %d" % (steps, trials))
    # a frame vector v moves to G v, so a row moves to v^T G^T
    gens_t = np.array([m.to_lists() for m in family.matrices],
                      dtype=float).transpose(0, 2, 1).copy()
    k, dim = gens_t.shape[:2]
    seeds = [derive_seed(seed, steps, t) for t in range(trials)]
    rows = np.frombuffer(b"".join(letters(trial_seed, k, BURN_IN + steps)
                                  for trial_seed in seeds),
                         np.uint8).reshape(trials, -1)
    # BURN_IN is a multiple of RENORM_EVERY: blocks start at the first letter
    s = _letters_per_matmul(k, dim)
    whole = rows.shape[1] // RENORM_EVERY * RENORM_EVERY
    # the table index of letters a1..as has base-k digits a1..as
    idx = rows[:, :whole:s].astype(np.min_scalar_type(k ** s - 1))
    for i in range(1, s):
        idx *= k
        idx += rows[:, i:whole:s]
    basis = np.tile(np.eye(dim), (trials, 1, 1))
    logs = np.zeros((trials, dim))
    collapsed = np.zeros(trials, dtype=bool)
    # a collapsed or overflowing frame turns non-finite: named below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        table = _letter_table(gens_t, s)
        per_block = RENORM_EVERY // s
        blocks = [(table, idx[:, j:j + per_block])
                  for j in range(0, idx.shape[1], per_block)]
        if whole < rows.shape[1]:
            blocks.append((gens_t, rows[:, whole:]))
        # each block ends in a re-orthonormalization; logged past step 0
        for b, (members, columns) in enumerate(blocks, 1):
            for column in columns.T:
                basis = basis @ members[column]
            stretch = _orthonormalize(basis)
            collapsed |= (stretch < _COLLAPSE).any(axis=1)
            if b * RENORM_EVERY > BURN_IN:
                logs += np.log(stretch)
    per_trial = logs / steps
    failed = collapsed | ~np.isfinite(per_trial).all(axis=1)
    if failed.any():
        t = int(np.argmax(failed))
        if collapsed[t]:
            raise FrameCollapseError(
                "lyapunov trial %d (seed %d): frame collapsed; within %d "
                "letters the members stretch a frame past double precision"
                % (t, seeds[t], RENORM_EVERY))
        raise FloatingPointError(
            "lyapunov trial %d (seed %d) has non-finite log stretches; "
            "the generators overflow double precision" % (t, seeds[t]))
    summaries = sorted(map(summarize, per_trial.T.tolist()),
                       key=lambda s: s.mean, reverse=True)
    return LyapunovEstimate(
        exponents=tuple(s.mean for s in summaries),
        standard_error=tuple(math.sqrt(s.variance / trials)
                             for s in summaries))

