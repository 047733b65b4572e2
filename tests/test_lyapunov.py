import math
import random

import numpy as np
import pytest

from oracles import (lyapunov_lapack_reference, lyapunov_one_trial_at_a_time,
                     qr_positive)
from symwalk.generators import (GeneratorFamily, humphries_symplectic,
                                make_family)
from symwalk.intmat import IntMatrix, mat_mul
from symwalk.lyapunov import (FrameCollapseError, LyapunovEstimate,
                              _letter_table, _letters_per_matmul,
                              _orthonormalize, estimate_exponents)
from symwalk.stats import clt_diagnostics, normal_cdf
from symwalk.walker import derive_seed


def test_identity_family_has_zero_exponents():
    fam = GeneratorFamily((IntMatrix(((1, 0), (0, 1))),))
    est = estimate_exponents(fam, steps=200, trials=2, seed=1)
    assert est.exponents == (0.0, 0.0)
    assert est.positive_sum == 0.0


def test_positive_sum_is_correctly_rounded():
    # the positive exponents of Humphries g3, 300 steps x 10 trials, seed 1:
    # the builtin sum rounds them to ...737 before Python 3.12, and to the
    # correctly rounded ...7374 from 3.12 on
    positive = (0.09368015839240687, 0.04829912043219746, 0.0245932493423694)
    est = LyapunovEstimate(positive + tuple(-e for e in reversed(positive)),
                           (0.0,) * 6)
    assert est.positive_sum == 0.16657252816697374


def test_single_hyperbolic_matrix_gives_log_eigenvalue():
    # [[2,1],[1,1]] has eigenvalues (3 +- sqrt(5))/2
    fam = GeneratorFamily((IntMatrix(((2, 1), (1, 1))),))
    est = estimate_exponents(fam, steps=2000, trials=1, seed=0)
    top = math.log((3 + math.sqrt(5)) / 2)
    assert est.exponents[0] == pytest.approx(top, abs=5e-3)
    assert est.exponents[1] == pytest.approx(-top, abs=5e-3)


def test_overflowing_family_fails_loudly():
    big = 10 ** 80
    fam = GeneratorFamily((IntMatrix(((1, big), (0, 1))),
                           IntMatrix(((1, 0), (big, 1)))))
    # the estimator keeps numpy's overflow warnings to itself, which
    # pytest would turn into errors: the named error is what arrives
    with pytest.raises(FloatingPointError, match="trial 0 \\(seed "):
        estimate_exponents(fam, 100, 2, 1)


# s is the number of letters per matmul (_letters_per_matmul)
CASES = [
    ("humphries", 2, 300, 5, 1),       # s = 5
    ("humphries", 3, 200, 4, 2),       # s = 2
    ("stanek", 2, 300, 5, 3),          # s = 5
    ("hua-reiner", 3, 333, 7, 4),      # s = 10, odd dimension, a last
                                       # block of three letters
    ("humphries", 2, 500, 1, 5),       # s = 5
    ("humphries", 2, 100, 3, 6),       # s = 5, the minimum, as long as
                                       # the burn-in
    ("stanek", 2, 101, 3, 7),          # s = 5, a last block of one letter
]


def transvections(k, n=10):
    """The first k of the 4n(n - 1) transvections I + t E_ij of dimension
    n, by t = 1, -1, 2, -2: distinct members that grow a frame slowly
    enough for double precision."""
    return GeneratorFamily(tuple(
        IntMatrix(tuple(tuple(int(r == c) + t * ((r, c) == (i, j))
                              for c in range(n)) for r in range(n)))
        for t in (1, -1, 2, -2) for i in range(n) for j in range(n)
        if i != j)[:k])


def transvections17(k):
    """The first k transvections of dimension 17: from 227 of them on, k
    members alone hold more than 2^16 floats."""
    return transvections(k, 17)


@pytest.mark.parametrize("family, param, s", [
    ("hua-reiner", 3, 10), ("humphries", 2, 5), ("humphries", 3, 2)])
def test_letter_table_is_the_exact_products(family, param, s):
    # entry i is the row-convention product of the letters a1..as, the
    # base-k digits of i: the transpose of G[as] ... G[a1]
    members = make_family(family, param).matrices
    k, n = len(members), members[0].dim
    assert _letters_per_matmul(k, n) == s
    gens_t = np.array([m.to_lists() for m in members],
                      dtype=float).transpose(0, 2, 1).copy()
    table = _letter_table(gens_t, s)
    assert table.shape == (k ** s, n, n)
    for i, entry in enumerate(table):
        digits = [i // k ** (s - 1 - j) % k for j in range(s)]
        exact = members[digits[-1]]
        for a in reversed(digits[:-1]):
            exact = mat_mul(exact, members[a])
        assert (entry == np.array(exact.to_lists(), dtype=float).T).all()


@pytest.mark.parametrize("family, param, steps, trials, seed", CASES + [
    ("humphries", 4, 120, 3, 8),       # s = 2, 8 x 8 frames: unrolled
                                       # reductions
    (transvections, 255, 150, 3, 9),   # s = 1, the most letters
    (transvections17, 255, 150, 3, 12),  # k n^2 > 2^16: s = 1 only from
                                         # the d = 1 clause
])
def test_stacked_trials_equal_one_trial_at_a_time(family, param, steps,
                                                   trials, seed):
    fam = family(param) if callable(family) else make_family(family, param)
    est = estimate_exponents(fam, steps, trials, seed)
    ref = lyapunov_one_trial_at_a_time(fam, steps, trials, seed)
    assert est.exponents == ref.exponents
    assert est.standard_error == ref.standard_error


@pytest.mark.parametrize("family, param, steps, trials, seed", CASES + [
    ("humphries", 2, 2000, 100, 1),    # the CLI default
])
def test_estimate_equals_the_lapack_reference(family, param, steps, trials,
                                              seed):
    # the two differ only in rounding: the frames stay within a few eps
    # of each other (the frame dynamics contract), so each logged log
    # stretch and their mean differ by a few eps; 1e-12 is ~4500 eps
    fam = make_family(family, param)
    est = estimate_exponents(fam, steps, trials, seed)
    ref = lyapunov_lapack_reference(fam, steps, trials, seed)
    assert est.exponents == pytest.approx(ref.exponents, rel=0, abs=1e-12)
    assert est.standard_error == pytest.approx(ref.standard_error, rel=0,
                                               abs=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_orthonormalize_is_the_positive_diagonal_qr(n):
    # modified Gram-Schmidt and Householder QR each err by about
    # eps * kappa(F) (Bjorck 1967); n * eps * kappa bounds both, per frame
    frames = np.random.default_rng(n).standard_normal((50, n, n))
    tol = n * np.finfo(float).eps * np.linalg.cond(frames)
    q, stretch = qr_positive(frames)
    basis = frames.transpose(0, 2, 1).copy()     # rows are the columns
    got = _orthonormalize(basis)
    assert ((abs(got - stretch) / stretch).max(axis=1) <= tol).all()
    assert (abs(basis - q.transpose(0, 2, 1)).max(axis=(1, 2)) <= tol).all()
    gram = basis @ basis.transpose(0, 2, 1)
    assert (abs(gram - np.eye(n)).max(axis=(1, 2)) <= tol).all()


def test_frame_collapse_names_the_trial():
    # shears by 10^20 make the two frame columns parallel in double
    # precision, so the second stretch rounds to zero
    b = 10 ** 20
    fam = GeneratorFamily((IntMatrix(((1, 0), (b, 1))),
                           IntMatrix(((1, b), (0, 1)))))
    with pytest.raises(FrameCollapseError) as exc:
        estimate_exponents(fam, 100, 3, 9)
    assert str(exc.value).startswith(
        "lyapunov trial 0 (seed %d): frame collapsed" % derive_seed(9, 100, 0))


def test_lowest_collapsed_trial_is_named_as_in_trial_order():
    # one big shear among four unit shears: trials collapse in different
    # renormalization blocks, and the error names the first trial in
    # trial order that collapses at all
    fam = GeneratorFamily(tuple(IntMatrix(m) for m in (
        ((1, 0), (10 ** 16, 1)), ((1, 1), (0, 1)), ((1, -1), (0, 1)),
        ((1, 0), (1, 1)), ((1, 0), (-1, 1)))))
    with pytest.raises(FrameCollapseError) as ref:
        lyapunov_one_trial_at_a_time(fam, 100, 6, 0)
    with pytest.raises(FrameCollapseError) as est:
        estimate_exponents(fam, 100, 6, 0)
    assert str(est.value) == str(ref.value)


def test_estimates_are_deterministic():
    fam = humphries_symplectic(2)
    a = estimate_exponents(fam, steps=300, trials=3, seed=7)
    b = estimate_exponents(fam, steps=300, trials=3, seed=7)
    assert a == b
    c = estimate_exponents(fam, steps=300, trials=3, seed=8)
    assert a != c


def test_exponents_sorted_descending_and_sum_near_zero():
    fam = humphries_symplectic(2)
    est = estimate_exponents(fam, steps=1000, trials=4, seed=3)
    assert list(est.exponents) == sorted(est.exponents, reverse=True)
    # det 1 walks: exponents sum to exactly zero in exact arithmetic
    assert abs(sum(est.exponents)) < 1e-10


def test_symplectic_pairing_rough():
    fam = humphries_symplectic(2)
    est = estimate_exponents(fam, steps=3000, trials=6, seed=11)
    l1, l2, l3, l4 = est.exponents
    assert l1 == pytest.approx(-l4, abs=3e-2)
    assert l2 == pytest.approx(-l3, abs=3e-2)
    assert est.positive_sum > 0


def test_input_validation():
    fam = humphries_symplectic(2)
    with pytest.raises(ValueError, match="got steps 50 and trials 1$"):
        estimate_exponents(fam, steps=50, trials=1, seed=0)
    with pytest.raises(ValueError, match="got steps 200 and trials 0$"):
        estimate_exponents(fam, steps=200, trials=0, seed=0)


def test_single_trial_has_zero_stderr():
    fam = humphries_symplectic(2)
    est = estimate_exponents(fam, steps=200, trials=1, seed=0)
    assert est.standard_error == (0.0,) * 4


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-5)
    assert normal_cdf(-3.0) == pytest.approx(0.00135, abs=1e-4)


def test_clt_diagnostics_on_normal_samples():
    rng = random.Random(42)
    xs = [rng.gauss(5.0, 2.0) for _ in range(2000)]
    d = clt_diagnostics(xs)
    assert d.mean == pytest.approx(5.0, abs=0.2)
    assert d.variance == pytest.approx(4.0, rel=0.15)
    assert abs(d.skewness) < 0.15
    assert abs(d.excess_kurtosis) < 0.3
    assert d.ks_statistic_vs_normal < 0.03


def test_clt_diagnostics_flags_uniform_tail_shape():
    rng = random.Random(9)
    xs = [rng.random() for _ in range(2000)]
    d = clt_diagnostics(xs)
    # uniform has excess kurtosis -1.2 and a visible KS gap vs normal
    assert d.excess_kurtosis == pytest.approx(-1.2, abs=0.15)
    assert d.ks_statistic_vs_normal > 0.04


def test_clt_diagnostics_validation():
    with pytest.raises(ValueError):
        clt_diagnostics([1.0] * 10)
    with pytest.raises(ValueError):
        clt_diagnostics([2.0] * 50)


def test_ks_statistic_exact_small_case():
    # two points at the matched-normal mean +- sd: hand-checkable KS
    xs = [0.0, 1.0] * 20  # n = 40, mean 0.5
    d = clt_diagnostics(xs)
    f = normal_cdf((0.0 - d.mean) / math.sqrt(sum(
        (x - d.mean) ** 2 for x in xs) / len(xs)))
    assert d.ks_statistic_vs_normal == pytest.approx(0.5 - f, abs=1e-12)
