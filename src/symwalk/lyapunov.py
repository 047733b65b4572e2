"""Floating-point Lyapunov spectrum estimation and CLT diagnostics.

This is the one deliberately inexact corner of the codebase: exponents
are drifts of log singular values, estimated by evolving an orthonormal
frame in double precision with periodic re-orthonormalization.  Exact
arithmetic lives in the homology pipeline; agreement between the two is
checked by the acceptance suite, not assumed here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorFamily
from .walker import derive_seed

RENORM_EVERY = 10
BURN_IN = 100
_COLLAPSE = 1e-300


class FrameCollapseError(RuntimeError):
    """Frame directions collapsed below double-precision range between
    renormalizations; the renormalization period is too long."""


@dataclass(frozen=True)
class LyapunovEstimate:
    exponents: tuple            # descending, nats per step
    trials: int
    steps_per_trial: int
    standard_error: tuple

    @property
    def positive_sum(self) -> float:
        return sum(e for e in self.exponents if e > 0)


def _qr_positive(f):
    q, r = np.linalg.qr(f)
    d = np.diagonal(r).copy()
    sign = np.where(d >= 0, 1.0, -1.0)
    return q * sign, np.abs(d)


def _one_trial(gens, steps, seed):
    dim = gens[0].shape[0]
    rng = random.Random(seed)
    k = len(gens)
    frame = np.eye(dim)
    for _ in range(BURN_IN):
        frame = gens[rng.randrange(k)] @ frame
        frame, _ = _qr_positive(frame)
    logs = np.zeros(dim)
    done = 0
    while done < steps:
        block = min(RENORM_EVERY, steps - done)
        for _ in range(block):
            frame = gens[rng.randrange(k)] @ frame
        frame, stretch = _qr_positive(frame)
        if np.any(stretch < _COLLAPSE):
            raise FrameCollapseError(
                "frame collapsed; reduce the renormalization period")
        logs += np.log(stretch)
        done += block
    return logs / steps


def estimate_exponents(family: GeneratorFamily, steps: int, trials: int,
                       seed: int) -> LyapunovEstimate:
    """Mean per-step log stretches of an evolved orthonormal frame."""
    if steps < 100:
        raise ValueError("need steps >= 100, got %d" % steps)
    if trials < 1:
        raise ValueError("need trials >= 1, got %d" % trials)
    gens = [np.array(m.to_lists(), dtype=float) for m in family.matrices]
    per_trial = []
    for t in range(trials):
        trial_seed = derive_seed(seed, steps, t)
        logs = _one_trial(gens, steps, trial_seed)
        if not np.isfinite(logs).all():
            raise FloatingPointError(
                "lyapunov trial %d (seed %d) has non-finite log stretches; "
                "the generators overflow double precision" % (t, trial_seed))
        per_trial.append(logs)
    per_trial = np.array(per_trial)
    mean = per_trial.mean(axis=0)
    if trials > 1:
        stderr = per_trial.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        stderr = np.zeros_like(mean)
    order = np.argsort(-mean)
    return LyapunovEstimate(
        exponents=tuple(float(x) for x in mean[order]),
        trials=trials,
        steps_per_trial=steps,
        standard_error=tuple(float(x) for x in stderr[order]))


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
    mean = sum(xs) / n
    dev = [x - mean for x in xs]
    m2 = sum(d * d for d in dev) / n
    if m2 == 0:
        raise ValueError("zero variance")
    m3 = sum(d ** 3 for d in dev) / n
    m4 = sum(d ** 4 for d in dev) / n
    sd = math.sqrt(m2)
    ks = 0.0
    for i, x in enumerate(xs):
        f = normal_cdf((x - mean) / sd)
        ks = max(ks, abs((i + 1) / n - f), abs(f - i / n))
    return CltDiagnostics(
        mean=mean,
        variance=sum(d * d for d in dev) / (n - 1),
        skewness=m3 / m2 ** 1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
        ks_statistic_vs_normal=ks)
