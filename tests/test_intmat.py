import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense_is_symplectic, det_cofactor, has_python_int_rows,
                     random_int_matrix, random_near_identity, symplectic_form,
                     transpose)
from symwalk.generators import (birman_u, birman_y, birman_z, hru2, hru5,
                                hua_reiner, humphries_symplectic, stanek,
                                stanek_dd, stanek_r21, stanek_tk,
                                symmetric_closure)
from symwalk.intmat import (MR_EXACT_BELOW, DimensionError, IntMatrix,
                            NotPrimeError, det, identity, inverse, is_prime,
                            is_symplectic, mat_mul, mod_p)
from symwalk.walker import sample_word


def test_mat_mul_identity():
    i2 = identity(2)
    assert mat_mul(i2, i2) == i2


def test_mat_mul_transvections():
    a = IntMatrix(((1, 1), (0, 1)))
    b = IntMatrix(((1, 0), (1, 1)))
    assert mat_mul(a, b) == IntMatrix(((2, 1), (1, 1)))


def test_mat_mul_rotation_squared():
    r = IntMatrix(((0, -1), (1, 0)))
    assert mat_mul(r, r) == IntMatrix(((-1, 0), (0, -1)))


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat_mul(identity(2), identity(3))


def test_det_examples():
    assert det(identity(4)) == 1
    assert det(IntMatrix(((2, 4), (6, 8)))) == -8
    assert det(IntMatrix(((-13, 2), (-20, 3)))) == 1


def test_is_symplectic_examples():
    assert is_symplectic(identity(2))
    assert is_symplectic(IntMatrix(((1, 0), (1, 1))))
    assert not is_symplectic(IntMatrix(((2, 0), (0, 1))))


def test_is_symplectic_dimension_mismatch():
    # no symplectic form exists on an odd or zero dimension
    for n in (0, 1, 3):
        assert is_symplectic(identity(n)) is False


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


def test_is_prime_is_decided_once_per_modulus():
    is_prime.cache_clear()
    m = IntMatrix(((2 ** 62, 1), (3, 2 ** 61)))
    assert mod_p(m, 2 ** 61 - 1) == mod_p(m, 2 ** 61 - 1) == \
        IntMatrix(((2, 1), (3, 1)))
    assert is_prime.cache_info().misses == 1


def test_symplectic_form_invariants():
    assert symplectic_form(1) == IntMatrix(((0, 1), (-1, 0)))
    assert symplectic_form(2) == IntMatrix(((0, 0, 1, 0), (0, 0, 0, 1),
                                            (-1, 0, 0, 0), (0, -1, 0, 0)))
    for g in (1, 2, 3, 5):
        j = symplectic_form(g)
        minus_identity = [[-1 if r == c else 0 for c in range(2 * g)]
                          for r in range(2 * g)]
        assert mat_mul(j, j).to_lists() == minus_identity
        assert transpose(j).to_lists() == [[-x for x in row]
                                           for row in j.rows]


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
    rng = random.Random(7)
    from symwalk.generators import humphries_symplectic
    fam = humphries_symplectic(2)
    for _ in range(20):
        a = fam.matrices[rng.randrange(len(fam))]
        b = fam.matrices[rng.randrange(len(fam))]
        assert is_symplectic(a) and is_symplectic(b)
        assert is_symplectic(mat_mul(a, b))


def _named_generators(top=6):
    """Every named generator with g, n <= top, and the merged first Stanek
    generator of n >= 4."""
    for k in range(2, top + 1):
        yield from (hru2(k), hru5(k), stanek_r21(k), stanek_dd(k))
        yield from (f(k, i) for f in (birman_y, birman_u, stanek_tk)
                    for i in range(1, k + 1))
        yield from (birman_z(k, i) for i in range(1, k))
        yield from stanek(k).matrices


def test_inverse_exact():
    m = IntMatrix(((1, 1), (0, 1)))
    assert inverse(m) == IntMatrix(((1, -1), (0, 1)))
    assert mat_mul(m, inverse(m)) == identity(2)
    swap = IntMatrix(((0, 1), (1, 0)))                  # det -1
    assert inverse(swap) == swap
    cycle = IntMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))  # first pivot 0
    assert inverse(cycle) == transpose(cycle)
    assert inverse(IntMatrix(())) == IntMatrix(())
    named = list(_named_generators())
    assert len(named) == 107
    for m in named:
        assert mat_mul(m, inverse(m)) == identity(m.dim)
    for m, d in ((IntMatrix(((2, 0), (0, 1))), 2),
                 (IntMatrix(((1, 2), (2, 4))), 0)):
        with pytest.raises(ValueError,
                           match=r"not invertible over Z \(det = %d\)" % d):
            inverse(m)


def test_det_scales_a_zero_row_while_the_pivot_changes():
    # every entry below each pivot is 0, but the pivots 2, 6, 30 differ
    # from the previous ones, so each row below is still scaled
    assert det(IntMatrix(((2, 1, 0), (0, 3, 1), (0, 0, 5)))) == 30


def test_inverse_of_named_and_near_identity_matrices():
    families = ([humphries_symplectic(g) for g in range(2, 9)]
                + [stanek(n) for n in range(1, 6)]
                + [hua_reiner(n) for n in range(2, 7)])
    rng = random.Random(34)
    near = [random_near_identity(rng, n, moves) for n in (1, 2, 3, 5, 8, 13)
            for moves in (0, 1, 2, 4, 8, 16) for _ in range(3)]
    assert len({m for m in near if m.dim == 13}) > 10
    for m in [m for fam in families for m in fam.matrices] + near:
        assert mat_mul(m, inverse(m)) == identity(m.dim)


def _symplectic_cases():
    rng = random.Random(35)
    fams = ([humphries_symplectic(g) for g in (2, 3, 5)]
            + [stanek(n) for n in (1, 2, 4, 5)]
            + [hua_reiner(n) for n in (2, 4)])
    yield from _named_generators()
    for fam in fams:
        yield from symmetric_closure(fam).matrices
        for seed in range(3):
            yield sample_word(fam, 12, seed).product
    for n in range(9):
        for moves in (0, 1, 2, 5):
            yield random_near_identity(rng, n, moves)
        yield random_int_matrix(rng, n, 2)
    for n in (0, 1, 3, 5):
        yield identity(n)


def test_is_symplectic_equals_the_dense_check():
    cases = list(_symplectic_cases())
    verdicts = [is_symplectic(m) for m in cases]
    assert verdicts == [dense_is_symplectic(m) for m in cases]
    assert 40 < sum(verdicts) < len(cases) - 40     # both verdicts, often
    # only column 1 moves, and its form with the identity column 2 is 2:
    # a check of moved columns against each other alone would pass it
    m = IntMatrix(((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert det(m) == 1 and not is_symplectic(m) and not dense_is_symplectic(m)


def test_matrix_must_be_square():
    with pytest.raises(DimensionError):
        IntMatrix(((1, 2, 3), (4, 5, 6)))


def test_computed_matrices_stay_python_ints():
    m = IntMatrix(((2, 1), (1, 1)))
    for result in (m - identity(2), mat_mul(m, m), mod_p(m, 3),
                   mod_p(m, np.int64(3)), inverse(m), identity(3)):
        assert has_python_int_rows(result)
    assert identity(3) is identity(3)


def test_caller_numpy_entries_are_converted():
    m = IntMatrix(np.array([[2, 1], [1, 1]], dtype=np.int64))
    assert has_python_int_rows(m)
    assert m == IntMatrix(((2, 1), (1, 1)))
