"""Independent brute-force oracles shared by the test modules."""

import math
import random
from itertools import combinations
from math import gcd

import numpy as np

from symwalk.intmat import IntMatrix, det
from symwalk.lyapunov import (_COLLAPSE, BURN_IN, RENORM_EVERY,
                              FrameCollapseError, LyapunovEstimate)
from symwalk.walker import derive_seed


def naive_snf(m: IntMatrix):
    """Textbook recursive Smith reduction; deliberately independent of the
    library implementation (first-nonzero pivoting, in-loop divisibility
    repair)."""
    work = m.to_lists()
    return tuple(_reduce(work))


def _reduce(a):
    n = len(a)
    if n == 0:
        return []
    if all(x == 0 for row in a for x in row):
        return [0] * n
    while True:
        # move the smallest-magnitude nonzero entry to (0, 0)
        best = None
        for i in range(n):
            for j in range(n):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        i, j = best
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        # clear first column and row by subtraction
        changed = False
        for i in range(1, n):
            q = a[i][0] // a[0][0]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
                changed = True
        for j in range(1, n):
            q = a[0][j] // a[0][0]
            if q:
                for row in a:
                    row[j] -= q * row[0]
                changed = True
        if any(a[i][0] for i in range(1, n)) or any(a[0][j] for j in range(1, n)):
            continue
        # pivot must divide the rest; if not, fold the offending row in
        offender = None
        for i in range(1, n):
            for j in range(1, n):
                if a[i][j] % a[0][0] != 0:
                    offender = i
                    break
            if offender:
                break
        if offender:
            a[0] = [x + y for x, y in zip(a[0], a[offender])]
            continue
        break
    pivot = abs(a[0][0])
    sub = [[row[j] for j in range(1, n)] for row in a[1:]]
    return [pivot] + _reduce(sub)


def det_cofactor(m: IntMatrix) -> int:
    """Determinant by cofactor expansion.  Exponential; cross-check oracle
    for small dimensions only."""
    rows = m.rows
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]

    def expand(rowset, col):
        if col == n:
            return 1
        total = 0
        sign = 1
        for pos, i in enumerate(rowset):
            c = rows[i][col]
            if c:
                total += sign * c * expand(rowset[:pos] + rowset[pos + 1:], col + 1)
            sign = -sign
        return total

    return expand(tuple(range(n)), 0)


def minor_gcd_divisors(m: IntMatrix):
    """Elementary divisors via gcds of k x k minors: d_k = g_k / g_{k-1}.
    Exponential; only for small matrices."""
    n = m.dim
    gs = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = IntMatrix(tuple(
                    tuple(m.rows[i][j] for j in cols) for i in rows))
                g = gcd(g, det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        gs.append(g)
    divisors = []
    for k in range(1, n + 1):
        if gs[k] == 0:
            divisors.append(0)
        else:
            divisors.append(gs[k] // gs[k - 1])
    return tuple(divisors)


def random_int_matrix(rng: random.Random, n: int, bound: int = 9) -> IntMatrix:
    return IntMatrix(tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)))


def longest_run_rescan(letters, letter):
    """Quadratic rescan longest-run oracle."""
    letters = list(letters)
    best = 0
    for start in range(len(letters)):
        k = 0
        while start + k < len(letters) and letters[start + k] == letter:
            k += 1
        best = max(best, k)
    return best


def _qr_positive_2d(f):
    q, r = np.linalg.qr(f)
    d = np.diagonal(r).copy()
    sign = np.where(d >= 0, 1.0, -1.0)
    return q * sign, np.abs(d)


def _one_lyapunov_trial(gens, steps, trial, seed):
    dim = gens[0].shape[0]
    rng = random.Random(seed)
    k = len(gens)
    frame = np.eye(dim)
    for _ in range(BURN_IN):
        frame = gens[rng.randrange(k)] @ frame
        frame, _ = _qr_positive_2d(frame)
    logs = np.zeros(dim)
    done = 0
    while done < steps:
        block = min(RENORM_EVERY, steps - done)
        for _ in range(block):
            frame = gens[rng.randrange(k)] @ frame
        frame, stretch = _qr_positive_2d(frame)
        if np.any(stretch < _COLLAPSE):
            raise FrameCollapseError(
                "lyapunov trial %d (seed %d): frame collapsed; reduce the "
                "renormalization period" % (trial, seed))
        logs += np.log(stretch)
        done += block
    return logs / steps


def lyapunov_one_trial_at_a_time(family, steps, trials, seed):
    """The QR-method estimate with one 2-D frame per trial, trials run in
    order: the reference the stacked ``estimate_exponents`` must equal."""
    gens = [np.array(m.to_lists(), dtype=float) for m in family.matrices]
    per_trial = []
    for t in range(trials):
        trial_seed = derive_seed(seed, steps, t)
        logs = _one_lyapunov_trial(gens, steps, t, trial_seed)
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
