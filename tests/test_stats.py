import random
from fractions import Fraction

import pytest

import symwalk.stats as stats
from oracles import (aperiodic_sl2, aperiodic_sp4,
                     closure_one_element_at_a_time, rank_law_by_enumeration)
from symwalk.generators import (GeneratorFamily, group_order, hru5,
                                hua_reiner, humphries_symplectic, stanek,
                                symmetric_closure)
from symwalk.homology import _fp_rank, fp_rank
from symwalk.intmat import IntMatrix, NotPrimeError
from symwalk.stats import (clt_diagnostics, empirical_rank_table,
                           linear_fit, summarize, total_variation,
                           walk_closure)
from symwalk.walker import BatchConfig, derive_seed, sample_word


def test_summarize_basics():
    s = summarize([3.0, 1.0, 2.0])
    assert s.count == 3
    assert s.mean == pytest.approx(2.0)
    assert s.variance == pytest.approx(1.0)
    # the smallest sample with a variance: (1 + 1) / (2 - 1)
    assert summarize([1.0, 3.0]) == stats.StatSummary(2, 2.0, 2.0)


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


def test_summarize_and_clt_diagnostics_share_a_variance():
    # both square a deviation as d * d; with ** 2 (libm pow) this sample's
    # variances differed in the last bit
    rng = random.Random(234)
    xs = [rng.gauss(0, 1) for _ in range(30)]
    assert summarize(xs).variance == clt_diagnostics(xs).variance


def test_rank_table_total_variation():
    assert total_variation({1: 0.5, 2: 0.5},
                           {1: 0.25, 2: 0.5, 3: 0.25}) == pytest.approx(0.25)
    assert total_variation({1: 0.3, 2: 0.7}, {1: 0.3, 2: 0.7}) == 0.0
    assert total_variation({1: 0.5, 2: 0.5},
                           {1: Fraction(1, 2), 2: Fraction(1, 2)}) == 0.0
    assert total_variation({}, {}) == 0.0
    # a value missing from either law has probability 0 there
    assert total_variation({1: 0.25, 2: 0.75}, {1: 1.0}) == 0.75


def test_empirical_rank_table():
    t = empirical_rank_table([3, 1, 1, 2])
    assert t == {1: 0.5, 2: 0.25, 3: 0.25}
    assert list(t) == [1, 2, 3]


def _near(law, limit):
    """``law`` is a probability law within 1e-9 of ``limit``."""
    assert sum(law.values()) == 1
    assert set(law) == set(limit)
    assert all(abs(law[r] - limit[r]) < 1e-9 for r in limit)


def _sl2(p):
    """The closure of the aperiodic SL(2) walk mod p: SL(2, F_p), since
    its letters generate SL(2, Z)."""
    return walk_closure(aperiodic_sl2(), p, group_order("hua-reiner", 2, p))


def test_oracle_sl2_f2():
    # the aperiodic SL(2) walk mod 2 tends to the uniform law on SL(2, F_2)
    _near(_sl2(2).rank_law(500),
          {1: Fraction(1, 3), 2: Fraction(1, 2), 3: Fraction(1, 6)})


def test_oracle_sl2_f3():
    law = _sl2(3).rank_law(500)
    assert sum(law.values()) == 1
    assert set(law) <= {1, 2, 3}
    # identity is the only element with full kernel: probability 1/|G|
    assert abs(law[3] - Fraction(1, 24)) < 1e-9


def test_oracle_sp4_f2():
    law = walk_closure(aperiodic_sp4(), 2, 720).rank_law(500)
    _near(law, {1: Fraction(19, 45), 2: Fraction(5, 12), 3: Fraction(5, 36),
                4: Fraction(1, 48), 5: Fraction(1, 720)})
    assert abs(law[5] - Fraction(1, 720)) < 1e-9    # identity only


def test_oracle_validation():
    with pytest.raises(NotPrimeError):
        _sl2(4)
    # Sp(4, F_3) and SL(2, F_997) exceed the group-order bound
    assert walk_closure(humphries_symplectic(2), 3,
                        group_order("humphries", 2, 3)) is None
    assert _sl2(997) is None


def test_oracle_matches_long_walk_frequencies():
    # a symmetric aperiodic SL(2) walk at moderate length is close to the
    # exact law of its products mod 2
    fam = aperiodic_sl2()
    ranks = [fp_rank(sample_word(fam, 101, derive_seed(5, 101, j)).product, 2)
             for j in range(400)]
    assert total_variation(empirical_rank_table(ranks),
                           _sl2(2).rank_law(101)) < 0.08


H2_SYMMETRIC = symmetric_closure(humphries_symplectic(2))
SP4_F2 = group_order("humphries", 2, 2)     # 720, either walk mode
# a finite group of signed permutations: its closure mod a prime beyond
# int64 products is small, and is computed with Python integers
SIGNED_PERMUTATIONS = GeneratorFamily((
    hru5(3),
    IntMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0))),
    IntMatrix(((-1, 0, 0), (0, -1, 0), (0, 0, 1)))))


@pytest.mark.parametrize("family, p, order, length", [
    (H2_SYMMETRIC, 2, SP4_F2, 3),           # odd coset
    (H2_SYMMETRIC, 2, SP4_F2, 4),           # even coset
    (humphries_symplectic(2), 2, SP4_F2, 4),    # positive-only letters
    (stanek(2), 2, group_order("stanek", 2, 2), 5),
    (stanek(1), 5, group_order("stanek", 1, 5), 6),     # SL(2, F_5)
    (hua_reiner(3), 2, group_order("hua-reiner", 3, 2), 7),
    (hua_reiner(3), 3, group_order("hua-reiner", 3, 3), 6),   # SL(3, F_3)
    (aperiodic_sl2(), 3, group_order("hua-reiner", 2, 3), 5),
    (SIGNED_PERMUTATIONS, 2 ** 61 - 1, 12, 5),
], ids=["humphries2-sym-p2-L3", "humphries2-sym-p2-L4", "humphries2-p2-L4",
        "stanek2-p2-L5", "stanek1-p5-L6", "hua-reiner3-p2-L7",
        "hua-reiner3-p3-L6", "aperiodic-sl2-p3-L5",
        "signed-permutations-p2^61-1-L5"])
def test_walk_rank_law_equals_enumeration(family, p, order, length):
    assert walk_closure(family, p, order).rank_law(length) == \
        rank_law_by_enumeration(family, p, length)


def test_walk_rank_law_keeps_the_parity_coset():
    # every symmetric Humphries letter is a transvection, odd in
    # Sp(4, F_2) = S6: the identity (rank 5) is reached only at even
    # lengths, and a rank-4 element only at odd lengths
    closure = walk_closure(H2_SYMMETRIC, 2, SP4_F2)
    even, odd = closure.rank_law(500), closure.rank_law(501)
    assert 5 in even and 4 not in even
    assert 4 in odd and 5 not in odd
    assert sum(even.values()) == sum(odd.values()) == 1


def test_walk_rank_law_bound_is_on_the_group_order():
    # SL(3, F_3) (5616 elements) is closed, SL(4, F_2) (20160) is not
    assert len(walk_closure(hua_reiner(3), 3,
                            group_order("hua-reiner", 3, 3)).ranks) == 5616
    assert walk_closure(hua_reiner(4), 2,
                        group_order("hua-reiner", 4, 2)) is None


def test_walk_closure_shares_tables_between_letters_alike_mod_p():
    closure = walk_closure(H2_SYMMETRIC, 2, SP4_F2)
    # the five transvections agree with their inverses mod 2: ten letters,
    # five tables
    assert len(closure.moves) == 10
    assert len({id(move) for move in closure.moves}) == 5
    assert len(closure.ranks) == 720                # Sp(4, F_2)
    assert closure.rank(()) == 5                    # the identity
    assert walk_closure(H2_SYMMETRIC, 3,            # Sp(4, F_3)
                        group_order("humphries", 2, 3)) is None
    with pytest.raises(NotPrimeError):
        walk_closure(H2_SYMMETRIC, 4, SP4_F2)


# a quarter turn mod 2**61 - 1: its rank multiplies residues past 2**63
QUARTER_TURN = GeneratorFamily((IntMatrix(((0, -1), (1, 0))),))
# its conjugate by a shear: an order-4 element whose column action takes
# 7 * (p - 1) > 2**63 on residues, so an int64 search would overflow
SHEARED_QUARTER_TURN = GeneratorFamily((IntMatrix(((2, -5), (1, -2))),))


@pytest.mark.parametrize("family, p, order", [
    (H2_SYMMETRIC, 2, SP4_F2),
    (QUARTER_TURN, 2 ** 61 - 1, 4),
], ids=["int64", "object"])
def test_walk_closure_ranks_python_int_elements(monkeypatch, family, p,
                                                order):
    seen = []

    def recording(a, q):
        seen.append([list(row) for row in a])
        return _fp_rank(a, q)

    monkeypatch.setattr(stats, "_fp_rank", recording)
    closure = walk_closure(family, p, order)
    assert len(seen) == len(closure.ranks) == order
    assert all(type(x) is int for a in seen for row in a for x in row)


@pytest.mark.parametrize("family, p, order", [
    (H2_SYMMETRIC, 2, SP4_F2),
    (humphries_symplectic(2), 2, SP4_F2),
    (symmetric_closure(stanek(2)), 2, group_order("stanek", 2, 2)),
    (hua_reiner(3), 3, group_order("hua-reiner", 3, 3)),      # SL(3, F_3)
    (SIGNED_PERMUTATIONS, 2 ** 61 - 1, 12),
    (QUARTER_TURN, 2 ** 61 - 1, 4),
    (SHEARED_QUARTER_TURN, 2 ** 61 - 1, 4),
], ids=["humphries2-sym-p2", "humphries2-p2", "stanek2-sym-p2",
        "hua-reiner3-p3", "signed-permutations-p2^61-1",
        "quarter-turn-p2^61-1", "sheared-quarter-turn-p2^61-1"])
def test_walk_closure_equals_one_element_at_a_time(family, p, order):
    closure = walk_closure(family, p, order)
    assert (closure.moves, closure.ranks) == \
        closure_one_element_at_a_time(family, p)


@pytest.mark.parametrize("order", [719, 721])
def test_walk_closure_refuses_a_wrong_order(order):
    # Sp(4, F_2) has 720 elements: told one fewer, the search stops past
    # it; told one more, it closes short of it
    with pytest.raises(RuntimeError, match="^the letters mod 2 close %s720 "
                       "elements, not %d$" % ("at least " * (order < 720),
                                              order)):
        walk_closure(H2_SYMMETRIC, 2, order)


def test_walk_closure_stops_past_a_wrong_order(monkeypatch):
    # SL(2, F_997) has about 10**9 elements: a search told 10 walks at most
    # 10 of them, each by every distinct generator, before it refuses
    compiled, walked = stats._family_kernels, []

    def counting(fam):
        grow, walk = compiled(fam)
        return grow, lambda *args: walked.append(len(args[0])) or walk(*args)

    monkeypatch.setattr(stats, "_family_kernels", counting)
    with pytest.raises(RuntimeError, match="close at least .*, not 10$"):
        walk_closure(aperiodic_sl2(), 997, 10)
    assert 0 < sum(walked) <= 10 * len(aperiodic_sl2())


_ORDER_GRID = [(name, param, mode) for name, params in (
    ("humphries", (2, 3, 4)), ("hua-reiner", (2, 3, 4, 5)),
    ("stanek", (1, 2, 3, 4))) for param in params
    for mode in ("positive-only", "symmetric")]


def test_group_order_is_the_order_the_search_finds():
    # every named family, both modes, p up to 13: wherever the formula
    # puts |G| within the bound, the search closes exactly that many
    # elements
    compared = 0
    for name, param, mode in _ORDER_GRID:
        fam = BatchConfig(name, param, (1, 1, 1), 1, 0, mode).resolve_family()
        for p in (2, 3, 5, 7, 11, 13):
            order = group_order(name, param, p)
            if order is not None:
                assert len(walk_closure(fam, p, order).ranks) == order, (
                    name, param, mode, p)
                compared += 1
    assert compared == 32
    assert group_order("hua-reiner", 3, 3) == 5616
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        group_order("nope", 2, 2)


def test_group_order_stops_counting_past_the_bound(monkeypatch):
    # |SL(254, F_p)| has about 3.9 million bits at p = 2**61 - 1; its first
    # factor, p, already passes the bound, and at p = 2 its fourteenth
    # factor of 2 does
    p = 2 ** 61 - 1
    assert group_order("hua-reiner", 254, p) is None
    assert group_order("hua-reiner", 254, 2) is None
    assert group_order("humphries", 127, p) is None
    # the bound is inclusive: Sp(4, F_2) is named at a bound of 720 only
    monkeypatch.setattr("symwalk.generators.GROUP_ORDER_BOUND", 720)
    assert group_order("humphries", 2, 2) == 720
    monkeypatch.setattr("symwalk.generators.GROUP_ORDER_BOUND", 719)
    assert group_order("humphries", 2, 2) is None


def test_walk_closure_over_a_known_order_does_not_search(monkeypatch):
    def no_walk(fam):
        raise AssertionError("walk compiled")

    reduce, reduced = stats.mod_p, []

    def counting(m, p):
        reduced.append(m)
        return reduce(m, p)

    monkeypatch.setattr(stats, "_family_kernels", no_walk)
    monkeypatch.setattr(stats, "mod_p", counting)
    assert walk_closure(hua_reiner(4), 2, None) is None
    assert walk_closure(humphries_symplectic(3), 2, None) is None
    assert len(reduced) == 2                # one member of each family
    assert walk_closure(QUARTER_TURN, 3, None) is None  # its only member
    # the first letter is still reduced: mod_p refuses a p not prime
    with pytest.raises(NotPrimeError, match="^4 is not prime$"):
        walk_closure(hua_reiner(4), 4, None)
    with pytest.raises(AssertionError, match="walk compiled"):
        walk_closure(hua_reiner(4), 2, 20160)  # a known order is searched
