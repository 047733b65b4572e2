import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symwalk.homology as homology
from oracles import (euclid_snf, has_python_int_rows, minor_gcd_divisors,
                     naive_snf, random_int_matrix, symplectic_form)
from symwalk.homology import (DivisorChain, TorsionOrder,
                              complexity_lower_bound, fp_rank,
                              heegaard_homology, mapping_torus_homology,
                              smith_normal_form, torsion_order)
from symwalk.intmat import DimensionError, IntMatrix, det, identity, mat_mul

SNF_BLOCK_R2_S3 = IntMatrix(((-13, 2), (-20, 3)))


def test_divisor_chain_invariants():
    DivisorChain((1, 2, 4, 0, 0))
    with pytest.raises(ValueError):
        DivisorChain((2, 3))           # 2 does not divide 3
    with pytest.raises(ValueError):
        DivisorChain((0, 2))           # zero before a nonzero
    with pytest.raises(ValueError):
        DivisorChain((-1,))


@pytest.mark.parametrize("divisors", [(2, 6.5), (2, 6.0), (2, "6"), (None,),
                                      (2.5,), (6.9, 12)])
def test_divisor_chain_rejects_non_integers(divisors):
    with pytest.raises(ValueError, match="divisors must be integers"):
        DivisorChain(divisors)


def test_divisor_chain_betti_and_torsion():
    chain = DivisorChain((1, 1, 2, 6, 0, 0))
    assert (chain.betti, chain.torsion, chain.torsion_order) == (2, (2, 6), 12)
    chain = DivisorChain(())
    assert (chain.betti, chain.torsion, chain.torsion_order) == (0, (), 1)


def test_divisor_chain_stores_python_ints():
    chain = DivisorChain((np.int64(1), np.int64(2), np.int64(6),
                          np.int64(0)))
    assert chain.divisors == (1, 2, 6, 0)
    assert all(type(d) is int for d in chain.divisors)
    assert (chain.betti, chain.torsion) == (1, (2, 6))
    assert all(type(t) is int for t in chain.torsion)
    assert type(chain.torsion_order) is int


def test_snf_examples():
    assert smith_normal_form(identity(2)).divisors == (1, 1)
    assert smith_normal_form(IntMatrix(((2, 4), (6, 8)))).divisors == (2, 4)
    assert smith_normal_form(IntMatrix(((-14, 2), (-20, 2)))).divisors == (2, 6)


def test_mapping_torus_examples():
    h = mapping_torus_homology(identity(2))
    assert (h.betti, h.torsion) == (3, ())
    h = mapping_torus_homology(IntMatrix(((2, 1), (1, 1))))
    assert (h.betti, h.torsion) == (1, ())
    h = mapping_torus_homology(SNF_BLOCK_R2_S3)
    assert (h.betti, h.torsion) == (1, (2, 6))


def test_mapping_torus_homology_is_the_chain_of_m_minus_i_and_a_zero():
    rng = random.Random(5)
    mats = [random_int_matrix(rng, n, 3) for n in (1, 2, 3, 4)]
    mats += [identity(3), SNF_BLOCK_R2_S3]
    for m in mats:
        assert mapping_torus_homology(m).divisors == \
            smith_normal_form(m - identity(m.dim)).divisors + (0,)


def test_torsion_order_examples():
    t = torsion_order(identity(4))
    assert t == TorsionOrder(1, True, 5)
    assert torsion_order(SNF_BLOCK_R2_S3) == TorsionOrder(12, False, 1)
    assert torsion_order(IntMatrix(((2, 1), (1, 1)))) == TorsionOrder(1, False, 1)


def test_fp_rank_examples():
    assert fp_rank(identity(4), 5) == 5
    assert fp_rank(IntMatrix(((2, 1), (1, 1))), 2) == 1
    assert fp_rank(SNF_BLOCK_R2_S3, 2) == 3


def test_heegaard_examples():
    h = heegaard_homology(identity(4))
    assert (h.betti, h.torsion) == (2, ())
    j = symplectic_form(1)
    h = heegaard_homology(j)
    assert (h.betti, h.torsion) == (0, ())
    h = heegaard_homology(IntMatrix(((1, 2), (0, 1))))
    assert (h.betti, h.torsion) == (0, (2,))
    assert h.torsion_order == 2


def test_complexity_lower_bound():
    assert complexity_lower_bound(DivisorChain((1, 0))) == 0.0
    assert complexity_lower_bound(DivisorChain((5,))) == pytest.approx(1.0)
    bound = complexity_lower_bound(DivisorChain((1, 2, 6)))
    assert bound == pytest.approx(math.log(12) / math.log(5), abs=1e-12)
    assert bound == pytest.approx(1.5440, abs=5e-4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 6))
def test_snf_matches_naive_oracle(seed, n):
    rng = random.Random(seed)
    m = random_int_matrix(rng, n)
    assert smith_normal_form(m).divisors == naive_snf(m)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_snf_matches_minor_gcd_oracle(seed):
    rng = random.Random(seed)
    m = random_int_matrix(rng, 4)
    assert smith_normal_form(m).divisors == minor_gcd_divisors(m)


def _random_unimodular(rng, n, ops=20):
    m = identity(n).to_lists()
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    return IntMatrix(tuple(tuple(r) for r in m))


def _snf_differential_cases(count, seed=811):
    """Square matrices of order 1 to 6 with entries of up to 30 digits:
    dense, singular (a row a combination of two others, or a zero row),
    zero, and U·D·V with a divisor chain D of small primes."""
    rng = random.Random(seed)
    for case in range(count):
        n = rng.randint(1, 6)
        bound = 10 ** rng.choice((1, 3, 30))
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        kind = case % 4
        if kind == 1:
            i, j, k = (rng.randrange(n) for _ in range(3))
            c, d = rng.randint(-9, 9), rng.randint(-9, 9)
            m[i] = [c * x + d * y for x, y in zip(m[j], m[k])]
        elif kind == 2:
            m = [[0] * n for _ in range(n)]
        elif kind == 3 and n > 1:
            d = 1
            for i in range(n):
                d *= rng.choice((1, 1, 2, 3, 5, 0 if i == n - 1 else 1))
                m[i] = [d if j == i else 0 for j in range(n)]
            m = mat_mul(mat_mul(_random_unimodular(rng, n),
                                IntMatrix(tuple(map(tuple, m)))),
                        _random_unimodular(rng, n)).to_lists()
        yield IntMatrix(tuple(map(tuple, m)))


def test_snf_matches_the_euclidean_reference():
    # one Bezout step per entry must find the divisors the Euclidean
    # restarts find, on singular and zero matrices too
    seen = set()
    for m in _snf_differential_cases(600):
        chain = smith_normal_form(m)
        assert chain == euclid_snf(m), m
        assert all(type(d) is int for d in chain.divisors), m
        nonzero = [d for d in chain.divisors if d]
        seen.add((chain.betti == m.dim, chain.betti > 0,
                  any(d > 1 for d in nonzero[:-1])))
    # zero, singular, and nonsingular with and without a repeated factor
    assert {(True, True, False), (False, True, True), (False, True, False),
            (False, False, True), (False, False, False)} <= seen


def test_snf_unimodular_invariance():
    rng = random.Random(2024)
    for _ in range(25):
        m = random_int_matrix(rng, 5)
        u = _random_unimodular(rng, 5)
        v = _random_unimodular(rng, 5)
        assert smith_normal_form(mat_mul(mat_mul(u, m), v)) == smith_normal_form(m)


def test_snf_divisor_product_is_abs_det():
    rng = random.Random(17)
    for _ in range(50):
        m = random_int_matrix(rng, 4)
        chain = smith_normal_form(m)
        # a zero divisor makes both sides 0: m is then singular
        assert math.prod(chain.divisors) == abs(det(m))


def test_fp_rank_iff_p_divides_det():
    rng = random.Random(4)
    checked = 0
    for _ in range(60):
        m = random_int_matrix(rng, 4, 5)
        d = det(m - identity(4))
        if d == 0:
            continue
        checked += 1
        for p in (2, 3, 5, 7):
            assert (fp_rank(m, p) > 1) == (d % p == 0)
    assert checked > 30


@pytest.mark.parametrize("p", [2, 3, 5, 101, 2 ** 61 - 1])
def test_fp_rank_counts_smith_divisors_divisible_by_p(p):
    # dim ker(A mod p) is the number of Smith divisors of A that p divides,
    # zeros included; A = m - I gets k >= 0 rows that repeat integer
    # combinations of the others, and sometimes a base row times p
    rng = random.Random(p)
    nullities = set()
    for k in range(4):
        for _ in range(20):
            n = rng.randint(max(k, 1), 6)
            base = [[rng.randint(-5, 5) for _ in range(n)]
                    for _ in range(n - k)]
            if base and rng.random() < 0.3:
                base[0] = [p * x for x in base[0]]
            rows = base + [[0] * n for _ in range(k)]
            for row in rows[n - k:]:
                for b in base:
                    c = rng.randint(-2, 2)
                    row[:] = [x + c * y for x, y in zip(row, b)]
            rng.shuffle(rows)
            a = IntMatrix(rows)
            ds = euclid_snf(a).divisors
            assert ds.count(0) >= k
            nullities.add(ds.count(0))
            m = IntMatrix([[x + (i == j) for j, x in enumerate(row)]
                           for i, row in enumerate(rows)])
            assert fp_rank(m, p) == 1 + sum(d % p == 0 for d in ds)
    assert nullities >= {0, 1, 2, 3}


def test_betti_matches_rational_kernel():
    # betti = 1 + dim_Q ker(M - I) = 1 + (zero divisors of SNF); check
    # against an independent rational-rank computation
    from fractions import Fraction

    def rational_nullity(m):
        a = [[Fraction(x) for x in row] for row in m.rows]
        n = m.dim
        rank = 0
        for col in range(n):
            piv = next((i for i in range(rank, n) if a[i][col] != 0), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            a[rank] = [x / a[rank][col] for x in a[rank]]
            for i in range(n):
                if i != rank and a[i][col] != 0:
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
            rank += 1
        return n - rank

    rng = random.Random(12)
    mats = [random_int_matrix(rng, 4, 2) for _ in range(30)]
    mats.append(identity(4))
    mats.append(IntMatrix(((1, 0, 0, 0), (0, 1, 0, 0),
                           (0, 0, 2, 1), (0, 0, 1, 1))))
    for m in mats:
        h = mapping_torus_homology(m)
        assert h.betti == 1 + rational_nullity(m - identity(m.dim))


def test_torsion_order_consistent_with_descriptor():
    rng = random.Random(8)
    mats = [random_int_matrix(rng, 4, 4) for _ in range(40)]
    mats += [identity(4), IntMatrix(((1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 3, 4), (0, 0, 2, 3)))]
    for m in mats:
        t = torsion_order(m)
        h = mapping_torus_homology(m)
        assert (t.value, t.betti) == (h.torsion_order, h.betti)


def test_heegaard_rejects_odd_dimension():
    with pytest.raises(DimensionError, match="dimension 3"):
        heegaard_homology(identity(3))


def test_heegaard_block_is_the_top_right_block_of_python_ints(monkeypatch):
    blocks = []

    def recording(m):
        blocks.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(homology, "smith_normal_form", recording)
    rng = random.Random(11)
    for g in (1, 2, 3):
        m = random_int_matrix(rng, 2 * g)
        heegaard_homology(m)
        assert blocks[-1] == IntMatrix(tuple(
            tuple(m[i, g + j] for j in range(g)) for i in range(g)))
        assert has_python_int_rows(blocks[-1])
