"""Output checks for the benchmark workloads.

Three checks, all independent of the code under ``src/``:

* the output gate: at the recorded seed each exact workload's CSV must
  have the sha256 recorded in ``reference.json`` (taken on the seed commit);
* a spot check at any seed: a few CSV rows, drawn by the seed, are
  recomputed from scratch -- the per-sample letter stream, a dense exact
  product of literal generator matrices, and the invariants from
  determinantal divisors (gcds of minors) instead of a Smith form;
* for ``lyapunov``, which is floating point and so not byte-stable across
  machines: the symplectic pairing and agreement with the recorded
  spectrum, both within ``LYAPUNOV_TOLERANCE_SE`` standard errors.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from fractions import Fraction

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
SPOT_ROWS = 24
# Two independent 100-trial estimates of one exponent differ by a normal
# variable of standard deviation sqrt(se1^2 + se2^2); 5 of those is a
# false alarm about once in 3.5 million comparisons.
LYAPUNOV_TOLERANCE_SE = 5.0

_MASK = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def sample_seed(master, length, index):
    s = _splitmix64(master & _MASK)
    s = _splitmix64(s ^ ((length & _MASK) * 0xD1342543DE82EF95 & _MASK))
    return _splitmix64(s ^ ((index & _MASK) * 0xDABA0B6EB09322E3 & _MASK))


def _elementary(n, entries):
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for (r, c), v in entries.items():
        m[r][c] = v
    return m


# Humphries genus 2 (Birman images u1, u2, z1, y1, y2) and Stanek n = 2
# (r21, t1, dd), written out entry by entry.
HUMPHRIES_G2 = [
    _elementary(4, {(2, 0): 1}),
    _elementary(4, {(3, 1): 1}),
    _elementary(4, {(0, 2): -1, (1, 3): -1, (0, 3): 1, (1, 2): 1}),
    _elementary(4, {(0, 2): -1}),
    _elementary(4, {(1, 3): -1}),
]
STANEK_2 = [
    _elementary(4, {(1, 0): 1, (2, 3): -1}),
    _elementary(4, {(2, 0): 1}),
    [[0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def inverse(m):
    """Exact inverse of a unimodular integer matrix (Gauss-Jordan over Q)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
         for r, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inv = [row[n:] for row in a]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def symmetric(gens):
    """Generators followed by those of their inverses not already present."""
    out = list(gens)
    for g in gens:
        inv = inverse(g)
        if inv not in out:
            out.append(inv)
    return out


def walk_product(gens, master, length, index):
    rng = random.Random(sample_seed(master, length, index))
    letters = [rng.randrange(len(gens)) for _ in range(length)]
    m = gens[letters[0]]
    for letter in letters[1:]:
        m = matmul(m, gens[letter])
    return m


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                          for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def minors(m, k):
    rows, cols = range(len(m)), range(len(m[0]))
    return [_det([[m[r][c] for c in cs] for r in rs])
            for rs in itertools.combinations(rows, k)
            for cs in itertools.combinations(cols, k)]


def rank_and_torsion(m, p=0):
    """Rank of m (over Z, or over F_p when p > 0) and, over Z, the product
    of its nonzero invariant factors: the gcd of its r x r minors."""
    r, d = 0, 1
    for k in range(1, len(m) + 1):
        ms = minors(m, k)
        if not any(x % p if p else x for x in ms):
            break
        r, d = k, math.gcd(*ms)
    return r, d


def _log(t):
    return math.log(t) if t > 1 else 0.0


def _fmt(x):
    return format(float(x), ".17g")


def expected_row(workload, master, row):
    """Recompute one CSV row from its (length, sample_index[, p]) key."""
    length, index = int(row[0]), int(row[1])
    if workload == "torsion":
        m = walk_product(HUMPHRIES_G2, master, length, index)
        a = [[x - int(r == c) for c, x in enumerate(rw)]
             for r, rw in enumerate(m)]
        rank, t = rank_and_torsion(a)
        return [row[0], row[1], _fmt(_log(t)), str(1 + 4 - rank),
                str(int(rank < 4))]
    if workload == "modp":
        m = walk_product(symmetric(HUMPHRIES_G2), master, length, index)
        p = int(row[2])
        a = [[x - int(r == c) for c, x in enumerate(rw)]
             for r, rw in enumerate(m)]
        rank, _ = rank_and_torsion(a, p)
        return [row[0], row[1], row[2], str(1 + 4 - rank)]
    if workload == "heegaard-stanek":
        m = walk_product(STANEK_2, master, length, index)
        rank, t = rank_and_torsion([rw[2:] for rw in m[:2]])
        comp = math.log(t) / math.log(5) if t > 1 else 0.0
        return [row[0], row[1], _fmt(_log(t)), str(2 - rank), _fmt(comp)]
    raise ValueError("no row reference for workload %r" % workload)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def spot_rows(seed, count):
    """Indices of the data rows the spot check recomputes at this seed."""
    return sorted(random.Random(seed).sample(range(count),
                                             min(SPOT_ROWS, count)))


def check_exact(workload, seed, csv_text, header, keys, reference):
    """Errors found in an exact workload's CSV; empty when it is correct.

    ``keys`` lists the expected leading columns of every row, in order."""
    errors = []
    lines = csv_text.splitlines()
    if not lines or lines[0] != header:
        return ["%s: unexpected CSV header %r" % (workload, lines[:1])]
    rows = [line.split(",") for line in lines[1:]]
    got = [tuple(r[:len(k)]) for r, k in zip(rows, keys)]
    if len(rows) != len(keys) or got != [tuple(map(str, k)) for k in keys]:
        return ["%s: CSV rows do not follow the configured samples" % workload]
    for i in spot_rows(seed, len(rows)):
        want = expected_row(workload, seed, rows[i])
        if rows[i] != want:
            errors.append("%s: row %d is %s, recomputed %s"
                          % (workload, i + 1, ",".join(rows[i]),
                             ",".join(want)))
    if seed == reference["seed"]:
        digest = hashlib.sha256(csv_text.encode()).hexdigest()
        if digest != reference["csv_sha256"][workload]:
            errors.append("%s: CSV sha256 %s differs from the seed-commit "
                          "digest %s" % (workload, digest,
                                         reference["csv_sha256"][workload]))
    return errors


def parse_lyapunov(csv_text):
    lines = csv_text.splitlines()
    if not lines or lines[0] != "exponent_index,value,standard_error":
        raise ValueError("unexpected lyapunov CSV header")
    rows = [line.split(",") for line in lines[1:]]
    return [float(r[1]) for r in rows], [float(r[2]) for r in rows]


def check_lyapunov(csv_text, reference):
    try:
        values, errs = parse_lyapunov(csv_text)
    except (ValueError, IndexError) as exc:
        return ["lyapunov: %s" % exc]
    ref = reference["lyapunov"]
    if len(values) != len(ref["exponents"]):
        return ["lyapunov: %d exponents, expected %d"
                % (len(values), len(ref["exponents"]))]
    errors = []
    k = LYAPUNOV_TOLERANCE_SE
    n = len(values)
    for i in range(n):
        j = n - 1 - i
        pair = values[i] + values[j]
        if not abs(pair) <= k * math.hypot(errs[i], errs[j]):
            errors.append("lyapunov: pairing l%d + l%d = %r exceeds %g SE"
                          % (i + 1, j + 1, pair, k))
        diff = values[i] - ref["exponents"][i]
        if not abs(diff) <= k * math.hypot(errs[i], ref["standard_error"][i]):
            errors.append("lyapunov: l%d = %r is more than %g SE from the "
                          "reference %r" % (i + 1, values[i], k,
                                            ref["exponents"][i]))
    return errors
