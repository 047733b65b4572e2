import random
from fractions import Fraction

import pytest

from oracles import aperiodic_sl2, aperiodic_sp4, rank_law_by_enumeration
from symwalk.generators import (custom_family, hru5, hua_reiner,
                                humphries_symplectic, stanek,
                                symmetric_closure)
from symwalk.homology import fp_rank
from symwalk.intmat import IntMatrix, NotPrimeError
from symwalk.stats import (RankTable, _closure_mod_p, empirical_rank_table,
                           linear_fit, summarize, walk_closure, walk_rank_law)
from symwalk.walker import derive_seed, make_sample


def test_summarize_basics():
    s = summarize([3.0, 1.0, 2.0])
    assert s.count == 3
    assert s.mean == pytest.approx(2.0)
    assert s.variance == pytest.approx(1.0)


def test_summarize_single_sample_and_empty():
    s = summarize([7])
    assert s.variance == 0.0
    with pytest.raises(ValueError):
        summarize([])


def test_linear_fit_exact_line():
    fit = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_linear_fit_known_noise():
    rng = random.Random(0)
    xs = [i / 10 for i in range(200)]
    ys = [0.5 + 1.7 * x + rng.gauss(0, 0.05) for x in xs]
    fit = linear_fit(xs, ys)
    assert fit.slope == pytest.approx(1.7, abs=0.01)
    assert fit.intercept == pytest.approx(0.5, abs=0.05)
    assert fit.r_squared > 0.999


def test_linear_fit_validation():
    with pytest.raises(ValueError):
        linear_fit([1], [2])
    with pytest.raises(ValueError):
        linear_fit([1, 2], [2, 3, 4])
    with pytest.raises(ValueError):
        linear_fit([2, 2, 2], [1, 2, 3])


def test_rank_table_total_variation():
    t = RankTable(2, {1: 0.5, 2: 0.5}, {1: 0.25, 2: 0.5, 3: 0.25})
    assert t.total_variation() == pytest.approx(0.25)
    exact = RankTable(2, {1: 0.3, 2: 0.7}, {1: 0.3, 2: 0.7})
    assert exact.total_variation() == 0.0


def test_empirical_rank_table():
    t = empirical_rank_table(3, [1, 1, 2, 3], predicted={1: Fraction(1, 2)})
    assert t.frequencies == {1: 0.5, 2: 0.25, 3: 0.25}
    assert t.p == 3
    assert t.predicted == {1: Fraction(1, 2)}


def _near(law, limit):
    """``law`` is a probability law within 1e-9 of ``limit``."""
    assert sum(law.values()) == 1
    assert set(law) == set(limit)
    assert all(abs(law[r] - limit[r]) < 1e-9 for r in limit)


def test_oracle_sl2_f2():
    # the aperiodic SL(2) walk mod 2 tends to the uniform law on SL(2, F_2)
    _near(walk_rank_law(aperiodic_sl2(), 2, 500),
          {1: Fraction(1, 3), 2: Fraction(1, 2), 3: Fraction(1, 6)})


def test_oracle_sl2_f3():
    law = walk_rank_law(aperiodic_sl2(), 3, 500)
    assert sum(law.values()) == 1
    assert set(law) <= {1, 2, 3}
    # identity is the only element with full kernel: probability 1/|G|
    assert abs(law[3] - Fraction(1, 24)) < 1e-9


def test_oracle_sp4_f2():
    law = walk_rank_law(aperiodic_sp4(), 2, 500)
    _near(law, {1: Fraction(19, 45), 2: Fraction(5, 12), 3: Fraction(5, 36),
                4: Fraction(1, 48), 5: Fraction(1, 720)})
    assert abs(law[5] - Fraction(1, 720)) < 1e-9    # identity only


def test_oracle_validation():
    with pytest.raises(NotPrimeError):
        walk_rank_law(aperiodic_sl2(), 4, 10)
    # Sp(4, F_3) and SL(2, F_997) exceed the group-order bound
    assert walk_rank_law(humphries_symplectic(2), 3, 10) == {}
    assert walk_rank_law(aperiodic_sl2(), 997, 10) == {}


def test_oracle_matches_long_walk_frequencies():
    # a symmetric aperiodic SL(2) walk at moderate length is close to the
    # exact law of its products mod 2
    fam = aperiodic_sl2()
    ranks = [fp_rank(make_sample(fam, 101, derive_seed(5, 101, j)).product, 2)
             for j in range(400)]
    table = empirical_rank_table(2, ranks,
                                 predicted=walk_rank_law(fam, 2, 101))
    assert table.total_variation() < 0.08


H2_SYMMETRIC = symmetric_closure(humphries_symplectic(2))
# a finite group of signed permutations: its closure mod a prime beyond
# int64 products is small, and is computed with Python integers
SIGNED_PERMUTATIONS = custom_family((
    hru5(3),
    IntMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0))),
    IntMatrix(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))))


@pytest.mark.parametrize("family, p, length", [
    (H2_SYMMETRIC, 2, 3),                   # odd coset
    (H2_SYMMETRIC, 2, 4),                   # even coset
    (humphries_symplectic(2), 2, 4),        # positive-only letters
    (stanek(2), 2, 5),
    (stanek(1), 5, 6),                      # SL(2, F_5)
    (hua_reiner(3), 2, 7),
    (hua_reiner(3), 3, 6),                  # SL(3, F_3), 5616 elements
    (aperiodic_sl2(), 3, 5),
    (SIGNED_PERMUTATIONS, 2 ** 61 - 1, 5),
], ids=["humphries2-sym-p2-L3", "humphries2-sym-p2-L4", "humphries2-p2-L4",
        "stanek2-p2-L5", "stanek1-p5-L6", "hua-reiner3-p2-L7",
        "hua-reiner3-p3-L6", "aperiodic-sl2-p3-L5",
        "signed-permutations-p2^61-1-L5"])
def test_walk_rank_law_equals_enumeration(family, p, length):
    assert walk_rank_law(family, p, length) == rank_law_by_enumeration(
        family, p, length)


def test_walk_rank_law_keeps_the_parity_coset():
    # every symmetric Humphries letter is a transvection, odd in
    # Sp(4, F_2) = S6: the identity (rank 5) is reached only at even
    # lengths, and a rank-4 element only at odd lengths
    even = walk_rank_law(H2_SYMMETRIC, 2, 500)
    odd = walk_rank_law(H2_SYMMETRIC, 2, 501)
    assert 5 in even and 4 not in even
    assert 4 in odd and 5 not in odd
    assert sum(even.values()) == sum(odd.values()) == 1


def test_walk_rank_law_bound_is_on_the_group_order():
    # SL(3, F_3) (5616 elements) is closed, SL(4, F_2) (20160) is not
    sl3 = [m.to_lists() for m in hua_reiner(3).matrices]
    sl4 = [m.to_lists() for m in hua_reiner(4).matrices]
    assert len(_closure_mod_p(sl3, 3)[0]) == 5616
    assert _closure_mod_p(sl4, 2) is None


def test_walk_closure_shares_tables_between_letters_alike_mod_p():
    closure = walk_closure(H2_SYMMETRIC, 2)
    # the five transvections agree with their inverses mod 2: ten letters,
    # five tables
    assert len(closure.moves) == 10
    assert len({id(move) for move in closure.moves}) == 5
    assert len(closure.ranks) == 720                # Sp(4, F_2)
    assert closure.rank(()) == 5                    # the identity
    assert walk_closure(H2_SYMMETRIC, 3) is None    # Sp(4, F_3)
    with pytest.raises(NotPrimeError):
        walk_closure(H2_SYMMETRIC, 4)
