"""Independent brute-force oracles, and the walk families they are
checked on, shared by the test modules."""

import math
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import numpy as np

from symwalk.generators import (GeneratorFamily, humphries_symplectic,
                                symmetric_closure)
from symwalk.homology import DivisorChain, fp_rank
from symwalk.intmat import IntMatrix, det, identity, mat_mul, mod_p
from symwalk.lyapunov import (_COLLAPSE, _TABLE_ENTRIES, BURN_IN,
                              RENORM_EVERY, FrameCollapseError,
                              LyapunovEstimate, _orthonormalize)
from symwalk.walker import Word, derive_seed, letters, word_product


def symplectic_form(g: int) -> IntMatrix:
    """The standard symplectic form J on Z^(2g): +I_g in the upper-right
    block and -I_g in the lower-left block."""
    return IntMatrix(tuple(
        tuple(1 if j == g + i else -1 if i == g + j else 0
              for j in range(2 * g)) for i in range(2 * g)))


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(zip(*m.rows)))


def has_python_int_rows(m: IntMatrix) -> bool:
    """True iff the rows of m are tuples of Python ints (no numpy integer
    and no bool among the entries)."""
    return type(m.rows) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row)
        for row in m.rows)


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


def euclid_snf(m: IntMatrix) -> DivisorChain:
    """Elementary divisors of a square integer matrix by Euclidean steps:
    the reference for ``smith_normal_form``.

    Pivot = nonzero entry of minimal absolute value (lowest (row, col) on
    ties); rows/columns are cleared by exact Euclidean steps, restarting
    on the pivot whenever a smaller remainder shows up.
    """
    n = m.dim
    a = m.to_lists()
    divisors = []
    for top in range(n):
        # locate minimal-abs nonzero pivot in the working submatrix
        pivot = None
        for i in range(top, n):
            for j in range(top, n):
                v = a[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            divisors.extend([0] * (n - top))
            break
        i, j = pivot
        if i != top:
            a[top], a[i] = a[i], a[top]
        if j != top:
            for row in a:
                row[top], row[j] = row[j], row[top]
        while True:
            p = a[top][top]
            # clear the pivot column
            dirty = False
            for i in range(top + 1, n):
                if a[i][top] != 0:
                    q = a[i][top] // p
                    if q:
                        for c in range(top, n):
                            a[i][c] -= q * a[top][c]
                    if a[i][top] != 0:
                        # remainder is smaller than the pivot: swap it up
                        a[top], a[i] = a[i], a[top]
                        dirty = True
                        break
            if dirty:
                continue
            # clear the pivot row
            for j in range(top + 1, n):
                if a[top][j] != 0:
                    q = a[top][j] // p
                    if q:
                        for r in range(top, n):
                            a[r][j] -= q * a[r][top]
                    if a[top][j] != 0:
                        for r in range(top, n):
                            a[r][top], a[r][j] = a[r][j], a[r][top]
                        dirty = True
                        break
            if not dirty:
                break
        divisors.append(abs(a[top][top]))
    # enforce the divisibility chain on the diagonal: diag(a, b) ~ diag(gcd, lcm)
    nz = [d for d in divisors if d != 0]
    zeros = len(divisors) - len(nz)
    for i in range(len(nz)):
        for j in range(i + 1, len(nz)):
            if nz[j] % nz[i] != 0:
                g = gcd(nz[i], nz[j])
                nz[i], nz[j] = g, nz[i] // g * nz[j]
    nz.sort()
    return DivisorChain(tuple(nz) + (0,) * zeros)


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


def aperiodic_sl2():
    """A symmetric walk on SL(2, Z) whose law mod p tends to the uniform
    law on SL(2, F_p)."""
    return symmetric_closure(GeneratorFamily((
        IntMatrix(((1, 1), (0, 1))),
        IntMatrix(((0, 1), (-1, 1))),
    )))


def aperiodic_sp4():
    """Symmetric Humphries genus 2 plus one even element; its law mod 2
    tends to the uniform law on Sp(4, F_2)."""
    base = humphries_symplectic(2)
    # one even element (product of two transvections) breaks the parity
    # confinement of fixed-length walks to a single coset mod 2
    extra = mat_mul(base.matrices[0], base.matrices[3])
    return symmetric_closure(GeneratorFamily(base.matrices + (extra,)))


def rank_law_by_enumeration(family, p, length):
    """Law of fp_rank mod p over all k^length words, each multiplied out
    over Z.  Exponential; only for short words."""
    counts = {}
    for letters in product(range(len(family)), repeat=length):
        rank = fp_rank(word_product(Word(family, letters)), p)
        counts[rank] = counts.get(rank, 0) + 1
    words = len(family) ** length
    return {rank: Fraction(c, words) for rank, c in sorted(counts.items())}


def closure_one_element_at_a_time(family, p, bound, visited=None):
    """``(moves, ranks)`` of the walk mod p on the closure G of the
    letters, numbered as ``stats.walk_closure`` numbers it, or None once
    |G| exceeds ``bound``.  Breadth first, one element and one distinct
    generator at a time: each product is ``mod_p(mat_mul(x, g), p)`` and
    each rank ``fp_rank``.  A list passed as ``visited`` gets the number
    of elements whose images were taken."""
    reduced = [mod_p(m, p) for m in family.matrices]
    moves = {g: [] for g in reduced}
    group = [identity(family.dim)]
    index = {group[0]: 0}
    for count, x in enumerate(group, 1):
        for g, move in moves.items():
            y = mod_p(mat_mul(x, g), p)
            move.append(index.setdefault(y, len(group)))
            if move[-1] == len(group):
                group.append(y)
        if len(group) > bound:
            if visited is not None:
                visited.append(count)
            return None
    return (tuple(tuple(moves[g]) for g in reduced),
            tuple(fp_rank(x, p) for x in group))


def random_int_matrix(rng: random.Random, n: int, bound: int = 9) -> IntMatrix:
    return IntMatrix(tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)))


def random_near_identity(rng: random.Random, n: int, moves: int) -> IntMatrix:
    """A unimodular n x n matrix a few row operations from the identity:
    each move adds a small multiple of one row to another, or swaps two
    rows (det -1), or swaps them and negates one (det 1)."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i], rows[j] = rows[j], [-x for x in rows[i]]
    return IntMatrix(tuple(map(tuple, rows)))


def dense_is_symplectic(m: IntMatrix) -> bool:
    """m' J m == J by two dense products, for J = ``symplectic_form``;
    False for an odd or zero dimension."""
    g, odd = divmod(m.dim, 2)
    if odd or not g:
        return False
    j = symplectic_form(g)
    return mat_mul(mat_mul(transpose(m), j), m) == j


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


def qr_positive(frames):
    """LAPACK QR of a stack of frames, signs chosen so diag(R) >= 0:
    the orthonormal factor and the stretches |diag(R)|."""
    q, r = np.linalg.qr(frames)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(d >= 0, 1.0, -1.0)[..., None, :], np.abs(d)


def lyapunov_lapack_reference(family, steps, trials, seed):
    """An independent reference for ``estimate_exponents``, equal to it in
    exact arithmetic but not in floating point: column frames, evolved
    together as one stack and re-orthonormalized by LAPACK QR after each
    of the ``BURN_IN`` steps, then after every ``RENORM_EVERY`` logged
    steps and the last.  Frame collapse is not checked."""
    gens = np.array([m.to_lists() for m in family.matrices], dtype=float)
    k, dim = gens.shape[:2]
    rows = np.array([np.frombuffer(letters(derive_seed(seed, steps, t), k,
                                           BURN_IN + steps), np.uint8)
                     for t in range(trials)])
    frames = np.tile(np.eye(dim), (trials, 1, 1))
    logs = np.zeros((trials, dim))
    for step, column in enumerate(rows.T, 1 - BURN_IN):
        frames = gens[column] @ frames
        if 0 < step < steps and step % RENORM_EVERY:
            continue
        frames, stretch = qr_positive(frames)
        if step > 0:
            logs += np.log(stretch)
    return _estimate(logs / steps)


def _estimate(per_trial):
    """Each exponent's mean over the (trials, n) per-trial values and its
    standard error sqrt(variance / trials), both from correctly rounded
    sums (``math.fsum``), in descending order of the means; one trial has
    standard error 0."""
    trials = len(per_trial)
    pairs = []
    for values in per_trial.T.tolist():
        mean = math.fsum(values) / trials
        variance = 0.0
        if trials > 1:
            variance = math.fsum((x - mean) * (x - mean)
                                 for x in values) / (trials - 1)
        pairs.append((mean, math.sqrt(variance / trials)))
    pairs.sort(key=lambda pair: pair[0], reverse=True)
    return LyapunovEstimate(exponents=tuple(m for m, _ in pairs),
                            standard_error=tuple(se for _, se in pairs))


def _one_trial(gens_t, steps, trial, seed):
    rng = random.Random(seed)
    k, dim = len(gens_t), len(gens_t[0])
    s = max(d for d in range(1, RENORM_EVERY + 1) if RENORM_EVERY % d == 0
            and (d == 1 or k ** d * dim * dim <= _TABLE_ENTRIES))
    basis = np.eye(dim)[None]
    logs = 0.0
    done = -BURN_IN
    while done < steps:
        block = min(RENORM_EVERY, steps - done)
        # a whole block in products of s letters, folded left to right
        per = s if block == RENORM_EVERY else 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(block // per):
                prod = gens_t[rng.randrange(k)]
                for _ in range(per - 1):
                    prod = prod @ gens_t[rng.randrange(k)]
                basis = basis @ prod
            stretch = _orthonormalize(basis)[0]
            if np.any(stretch < _COLLAPSE):
                raise FrameCollapseError(
                    "lyapunov trial %d (seed %d): frame collapsed; within %d "
                    "letters the members stretch a frame past double "
                    "precision" % (trial, seed, RENORM_EVERY))
            if done >= 0:
                logs += np.log(stretch)
        done += block
    return logs / steps


def lyapunov_one_trial_at_a_time(family, steps, trials, seed):
    """The estimate with one (1, n, n) row frame per trial, re-orthonor-
    malized by the library's kernel in blocks of ``RENORM_EVERY`` letters
    from the start of the burn-in, trials run in order: the reference the
    stacked ``estimate_exponents`` must equal.  A whole block moves the
    frame by products of s letters, s the largest divisor of
    ``RENORM_EVERY`` with k**s products of n x n within ``_TABLE_ENTRIES``
    floats, each product folded left to right as it is drawn; the last
    partial block moves it one letter at a time."""
    # row frames move by the transposed generators
    gens_t = [np.array(m.to_lists(), dtype=float).T.copy()
              for m in family.matrices]
    per_trial = []
    for t in range(trials):
        trial_seed = derive_seed(seed, steps, t)
        logs = _one_trial(gens_t, steps, t, trial_seed)
        if not np.isfinite(logs).all():
            raise FloatingPointError(
                "lyapunov trial %d (seed %d) has non-finite log stretches; "
                "the generators overflow double precision" % (t, trial_seed))
        per_trial.append(logs)
    return _estimate(np.array(per_trial))
