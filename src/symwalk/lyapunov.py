"""Floating-point Lyapunov spectrum estimation.

This is the one deliberately inexact corner of the codebase: exponents
are drifts of log singular values, estimated by evolving an orthonormal
frame in double precision with periodic re-orthonormalization.  Exact
arithmetic lives in the homology pipeline; agreement between the two is
checked by the acceptance suite, not assumed here.

Each trial draws its letters from its own seeded stream
(``walker.letters``), so the trials can evolve together as one stack and
still equal a one-trial-at-a-time loop exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorFamily
from .walker import derive_seed, letters

RENORM_EVERY = 10
BURN_IN = 100
_COLLAPSE = 1e-300


class FrameCollapseError(RuntimeError):
    """Frame directions collapsed below double-precision range between
    renormalizations; the renormalization period is too long."""


@dataclass(frozen=True)
class LyapunovEstimate:
    exponents: tuple            # descending, nats per step
    standard_error: tuple

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


def estimate_exponents(family: GeneratorFamily, steps: int, trials: int,
                       seed: int) -> LyapunovEstimate:
    """Mean per-step log stretches of an evolved orthonormal frame.

    The trials evolve together as one (trials, dim, dim) stack whose rows
    are the frame vectors; each step applies one letter per trial, drawn
    from that trial's seeded stream.  After ``BURN_IN`` unlogged steps,
    numbered up to 0, come ``steps`` logged ones.  The frames are
    re-orthonormalized by ``_orthonormalize`` at every step divisible by
    ``RENORM_EVERY``, burn-in included, and after the last; the logged
    stretches are those of the steps after 0.  A stretch below
    ``_COLLAPSE`` at any re-orthonormalization, burn-in included, is a
    frame collapse."""
    if steps < 100 or trials < 1:
        raise ValueError("lyapunov needs steps >= 100 and trials >= 1, "
                         "got steps %d and trials %d" % (steps, trials))
    # a frame vector v moves to G v, so a row moves to v^T G^T
    gens_t = np.array([m.to_lists() for m in family.matrices],
                      dtype=float).transpose(0, 2, 1).copy()
    k, dim = gens_t.shape[:2]
    seeds = [derive_seed(seed, steps, t) for t in range(trials)]
    # the buffer letters returns carries its own item type
    rows = np.empty((trials, BURN_IN + steps), np.min_scalar_type(k - 1))
    for t, s in enumerate(seeds):
        rows[t] = memoryview(letters(s, k, BURN_IN + steps))
    basis = np.tile(np.eye(dim), (trials, 1, 1))
    logs = np.zeros((trials, dim))
    collapsed = np.zeros(trials, dtype=bool)
    # a collapsed or overflowing frame turns non-finite: named below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # one letter per trial per step; steps up to 0 burn in
        for step, column in enumerate(rows.T, 1 - BURN_IN):
            basis = basis @ gens_t[column]
            if step % RENORM_EVERY and step != steps:
                continue
            stretch = _orthonormalize(basis)
            collapsed |= (stretch < _COLLAPSE).any(axis=1)
            if step > 0:
                logs += np.log(stretch)
    per_trial = logs / steps
    failed = collapsed | ~np.isfinite(per_trial).all(axis=1)
    if failed.any():
        t = int(np.argmax(failed))
        if collapsed[t]:
            raise FrameCollapseError(
                "lyapunov trial %d (seed %d): frame collapsed; reduce the "
                "renormalization period" % (t, seeds[t]))
        raise FloatingPointError(
            "lyapunov trial %d (seed %d) has non-finite log stretches; "
            "the generators overflow double precision" % (t, seeds[t]))
    mean = per_trial.mean(axis=0)
    stderr = (per_trial.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1
              else np.zeros_like(mean))
    order = np.argsort(-mean)
    return LyapunovEstimate(
        exponents=tuple(float(x) for x in mean[order]),
        standard_error=tuple(float(x) for x in stderr[order]))

