import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minor_gcd_divisors, naive_snf, random_int_matrix
from symwalk.homology import (DivisorChain, HomologyDescriptor, TorsionOrder,
                              complexity_lower_bound, fp_rank,
                              heegaard_homology, mapping_torus_homology,
                              smith_normal_form, torsion_order)
from symwalk.intmat import IntMatrix, SymplecticForm, det, identity, mat_mul

SNF_BLOCK_R2_S3 = IntMatrix(((-13, 2), (-20, 3)))


def test_divisor_chain_invariants():
    DivisorChain((1, 2, 4, 0, 0))
    with pytest.raises(ValueError):
        DivisorChain((2, 3))           # 2 does not divide 3
    with pytest.raises(ValueError):
        DivisorChain((0, 2))           # zero before a nonzero
    with pytest.raises(ValueError):
        DivisorChain((-1,))


@pytest.mark.parametrize("divisors", [(2, 6.5), (2, 6.0), (2, "6"), (None,)])
def test_divisor_chain_rejects_non_integers(divisors):
    with pytest.raises(ValueError, match="divisors must be integers"):
        DivisorChain(divisors)


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
    h = heegaard_homology(identity(4), 2)
    assert (h.betti, h.torsion) == (2, ())
    j = SymplecticForm(1).matrix
    h = heegaard_homology(j, 1)
    assert (h.betti, h.torsion) == (0, ())
    h = heegaard_homology(IntMatrix(((1, 2), (0, 1))), 1)
    assert (h.betti, h.torsion) == (0, (2,))
    assert h.torsion_order == 2


def test_complexity_lower_bound():
    assert complexity_lower_bound(HomologyDescriptor(1, ())) == 0.0
    assert complexity_lower_bound(HomologyDescriptor(0, (5,))) == pytest.approx(1.0)
    bound = complexity_lower_bound(HomologyDescriptor(0, (2, 6)))
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
        assert math.prod(chain.nonzero) * (0 if chain.zero_count else 1) \
            == (abs(det(m)) if chain.zero_count == 0 else 0)
        if chain.zero_count == 0:
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
    with pytest.raises(Exception):
        heegaard_homology(identity(4), 1)
