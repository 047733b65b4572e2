"""Independent brute-force oracles shared by the test modules."""

import random
from itertools import combinations
from math import gcd

from symwalk.intmat import IntMatrix, det


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
