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


def estimate_exponents(family: GeneratorFamily, steps: int, trials: int,
                       seed: int) -> LyapunovEstimate:
    """Mean per-step log stretches of an evolved orthonormal frame.

    The trials evolve together as one (trials, dim, dim) stack; each step
    applies one letter per trial, drawn from that trial's seeded stream.
    The frames are re-orthonormalized by QR, signs chosen so diag(R) >= 0,
    after each of ``BURN_IN`` unlogged steps, then every ``RENORM_EVERY``
    steps and after the last; the logged stretches are |diag(R)|."""
    if steps < 100 or trials < 1:
        raise ValueError("lyapunov needs steps >= 100 and trials >= 1, "
                         "got steps %d and trials %d" % (steps, trials))
    gens = np.array([m.to_lists() for m in family.matrices], dtype=float)
    k, dim = gens.shape[:2]
    seeds = [derive_seed(seed, steps, t) for t in range(trials)]
    rows = np.empty((trials, BURN_IN + steps), np.min_scalar_type(k - 1))
    for t, s in enumerate(seeds):
        rows[t] = letters(s, k, BURN_IN + steps)
    frames = np.tile(np.eye(dim), (trials, 1, 1))
    logs = np.zeros((trials, dim))
    collapsed = np.zeros(trials, dtype=bool)
    with np.errstate(divide="ignore"):      # a collapsed frame logs -inf
        # one letter per trial per step; steps up to 0 burn in
        for step, column in enumerate(rows.T, 1 - BURN_IN):
            frames = gens[column] @ frames
            if step % RENORM_EVERY and 0 < step < steps:
                continue
            q, r = np.linalg.qr(frames)
            d = np.diagonal(r, axis1=-2, axis2=-1)
            frames = q * np.where(d >= 0, 1.0, -1.0)[..., None, :]
            if step > 0:
                stretch = np.abs(d)
                collapsed |= (stretch < _COLLAPSE).any(axis=1)
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

