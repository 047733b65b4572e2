import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import det_cofactor, random_int_matrix
from symwalk.intmat import (MR_EXACT_BELOW, DimensionError, IntMatrix,
                            NotPrimeError, SymplecticForm, det, identity,
                            inverse, is_prime, is_symplectic, mat_mul, mod_p)


def test_mat_mul_identity():
    i2 = identity(2)
    assert mat_mul(i2, i2) == i2


def test_mat_mul_transvections():
    a = IntMatrix(((1, 1), (0, 1)))
    b = IntMatrix(((1, 0), (1, 1)))
    assert mat_mul(a, b) == IntMatrix(((2, 1), (1, 1)))


def test_mat_mul_rotation_squared():
    r = IntMatrix(((0, -1), (1, 0)))
    assert mat_mul(r, r) == -identity(2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat_mul(identity(2), identity(3))


def test_det_examples():
    assert det(identity(4)) == 1
    assert det(IntMatrix(((2, 4), (6, 8)))) == -8
    assert det(IntMatrix(((-13, 2), (-20, 3)))) == 1


def test_is_symplectic_examples():
    form = SymplecticForm(1)
    assert is_symplectic(identity(2), form)
    assert is_symplectic(IntMatrix(((1, 0), (1, 1))), form)
    assert not is_symplectic(IntMatrix(((2, 0), (0, 1))), form)


def test_is_symplectic_dimension_mismatch():
    with pytest.raises(DimensionError):
        is_symplectic(identity(4), SymplecticForm(1))


def test_mod_p_examples():
    assert mod_p(IntMatrix(((2, 1), (1, 1))), 2) == IntMatrix(((0, 1), (1, 1)))
    assert mod_p(identity(4), 3) == identity(4)
    assert mod_p(IntMatrix(((-13, 2), (-20, 3))), 5) == IntMatrix(((2, 2), (0, 3)))


def test_mod_p_rejects_composite():
    with pytest.raises(NotPrimeError):
        mod_p(identity(2), 4)
    with pytest.raises(NotPrimeError):
        mod_p(identity(2), 1)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10 ** 4) if is_prime(n)] == \
        [n for n in range(10 ** 4) if _trial_division(n)]


def test_is_prime_large_inputs():
    assert is_prime(2 ** 61 - 1)
    assert is_prime(2 ** 64 - 59)
    # a Carmichael number and strong pseudoprimes to the bases 2..7 and 2..23
    for n in (561, 3215031751, 3825123056546413051):
        assert not is_prime(n)


def test_is_prime_refuses_beyond_exact_bound():
    assert not is_prime(MR_EXACT_BELOW - 1)      # even, so decided
    with pytest.raises(ValueError, match=str(MR_EXACT_BELOW)):
        is_prime(MR_EXACT_BELOW)


def test_symplectic_form_invariants():
    for g in (1, 2, 3, 5):
        j = SymplecticForm(g).matrix
        assert mat_mul(j, j) == -identity(2 * g)
        assert j.transpose() == -j


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_det_multiplicative_5x5(seed):
    rng = random.Random(seed)
    a = random_int_matrix(rng, 5)
    b = random_int_matrix(rng, 5)
    assert det(mat_mul(a, b)) == det(a) * det(b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 4))
def test_det_matches_cofactor_expansion(seed, n):
    rng = random.Random(seed)
    m = random_int_matrix(rng, n)
    assert det(m) == det_cofactor(m)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3, 5, 7, 11]))
def test_mod_p_is_a_homomorphism(seed, p):
    rng = random.Random(seed)
    a = random_int_matrix(rng, 4, 30)
    b = random_int_matrix(rng, 4, 30)
    lhs = mod_p(mat_mul(a, b), p)
    rhs = mod_p(mat_mul(mod_p(a, p), mod_p(b, p)), p)
    assert lhs == rhs


def test_symplectic_closed_under_product():
    form = SymplecticForm(2)
    rng = random.Random(7)
    from symwalk.generators import humphries_symplectic
    fam = humphries_symplectic(2)
    for _ in range(20):
        a = fam.matrices[rng.randrange(len(fam))]
        b = fam.matrices[rng.randrange(len(fam))]
        assert is_symplectic(a, form) and is_symplectic(b, form)
        assert is_symplectic(mat_mul(a, b), form)


def test_inverse_exact():
    m = IntMatrix(((1, 1), (0, 1)))
    assert inverse(m) == IntMatrix(((1, -1), (0, 1)))
    assert mat_mul(m, inverse(m)) == identity(2)
    with pytest.raises(ValueError):
        inverse(IntMatrix(((2, 0), (0, 1))))


def test_matrix_must_be_square():
    with pytest.raises(DimensionError):
        IntMatrix(((1, 2, 3), (4, 5, 6)))
