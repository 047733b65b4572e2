import math
import random

import numpy as np
import pytest

from oracles import lyapunov_one_trial_at_a_time
from symwalk.generators import custom_family, humphries_symplectic, make_family
from symwalk.intmat import IntMatrix
from symwalk.lyapunov import (CltDiagnostics, FrameCollapseError,
                              LyapunovEstimate, clt_diagnostics,
                              estimate_exponents, normal_cdf)
from symwalk.walker import derive_seed


def test_identity_family_has_zero_exponents():
    fam = custom_family((IntMatrix(((1, 0), (0, 1))),))
    est = estimate_exponents(fam, steps=200, trials=2, seed=1)
    assert est.exponents == (0.0, 0.0)
    assert est.positive_sum == 0.0


def test_single_hyperbolic_matrix_gives_log_eigenvalue():
    # [[2,1],[1,1]] has eigenvalues (3 +- sqrt(5))/2
    fam = custom_family((IntMatrix(((2, 1), (1, 1))),))
    est = estimate_exponents(fam, steps=2000, trials=1, seed=0)
    top = math.log((3 + math.sqrt(5)) / 2)
    assert est.exponents[0] == pytest.approx(top, abs=5e-3)
    assert est.exponents[1] == pytest.approx(-top, abs=5e-3)


def test_overflowing_family_fails_loudly():
    big = 10 ** 80
    fam = custom_family([IntMatrix(((1, big), (0, 1))),
                         IntMatrix(((1, 0), (big, 1)))])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="trial 0 \\(seed "):
        estimate_exponents(fam, 100, 2, 1)


@pytest.mark.parametrize("family, param, steps, trials, seed", [
    ("humphries", 2, 300, 5, 1),
    ("humphries", 3, 200, 4, 2),
    ("stanek", 2, 300, 5, 3),
    ("hua-reiner", 3, 333, 7, 4),      # odd dimension, steps % 10 != 0
    ("humphries", 2, 500, 1, 5),
])
def test_stacked_trials_equal_one_trial_at_a_time(family, param, steps,
                                                   trials, seed):
    fam = make_family(family, param)
    est = estimate_exponents(fam, steps, trials, seed)
    ref = lyapunov_one_trial_at_a_time(fam, steps, trials, seed)
    assert est.exponents == ref.exponents
    assert est.standard_error == ref.standard_error


def test_frame_collapse_names_the_trial():
    # shears by 10^20 make the two frame columns parallel in double
    # precision, so the second stretch rounds to zero
    b = 10 ** 20
    fam = custom_family([IntMatrix(((1, 0), (b, 1))),
                         IntMatrix(((1, b), (0, 1)))])
    with pytest.raises(FrameCollapseError) as exc:
        estimate_exponents(fam, 100, 3, 9)
    assert str(exc.value).startswith(
        "lyapunov trial 0 (seed %d): frame collapsed" % derive_seed(9, 100, 0))


def test_lowest_collapsed_trial_is_named_as_in_trial_order():
    # one big shear among four unit shears: trials collapse in different
    # renormalization blocks, and the error names the first trial in
    # trial order that collapses at all
    fam = custom_family([IntMatrix(m) for m in (
        ((1, 0), (10 ** 16, 1)), ((1, 1), (0, 1)), ((1, -1), (0, 1)),
        ((1, 0), (1, 1)), ((1, 0), (-1, 1)))])
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
    with pytest.raises(ValueError):
        estimate_exponents(fam, steps=50, trials=1, seed=0)
    with pytest.raises(ValueError):
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
