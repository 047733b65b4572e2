import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import longest_run_rescan
from symwalk.generators import hua_reiner
from symwalk.punctured import longest_run_in, run_scaling_experiment
from symwalk.walker import Word, sample_word


def test_longest_run_examples():
    assert longest_run_in((0, 0, 1, 0, 0, 0, 1), 0) == 3
    assert longest_run_in((1, 1, 1), 0) == 0
    assert longest_run_in((), 0) == 0
    fam = hua_reiner(2)
    w = Word(fam, (0, 0, 1, 0))
    assert longest_run_in(w.letters, 0) == 2
    assert longest_run_in(w.letters, 1) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=60), st.integers(0, 2))
def test_longest_run_matches_rescan_oracle(letters, letter):
    assert longest_run_in(letters, letter) == \
        longest_run_rescan(letters, letter)


def test_longest_run_on_sampled_words_is_plausible():
    fam = hua_reiner(2)
    w = sample_word(fam, 2 ** 12, 5)
    r = longest_run_in(w.letters, 0)
    # expected ~ log2(n) = 12; enormous slack either way
    assert 5 <= r <= 40


def test_run_scaling_experiment_monotone_and_fitted():
    res = run_scaling_experiment(2, [256, 1024, 4096], samples=40, seed=7)
    means = [m for _, m in res.rows]
    assert means[0] < means[1] < means[2]
    # slope of mean run vs log n should be near 1/log 2
    assert res.fit.slope == pytest.approx(1 / math.log(2), rel=0.35)
    assert res.fit.r_squared > 0.9


def test_run_scaling_experiment_deterministic():
    a = run_scaling_experiment(3, [128, 512], samples=10, seed=1)
    b = run_scaling_experiment(3, [128, 512], samples=10, seed=1)
    assert a.rows == b.rows
    with pytest.raises(ValueError):
        run_scaling_experiment(1, [128], samples=1, seed=0)


def test_run_scaling_single_length_has_no_fit():
    res = run_scaling_experiment(2, [128], samples=5, seed=0)
    assert res.fit is None
    assert len(res.rows) == 1


@pytest.mark.parametrize("alphabet, lengths, samples, bad", [
    (1, [128], 1, "alphabet 1"),
    (2, [0], 5, "[0]"),
    (2, [64, -1], 5, "[64, -1]"),
    (2, [], 5, "[]"),
    (2, [4], 0, "samples 0"),
])
def test_run_scaling_experiment_validation(alphabet, lengths, samples, bad):
    with pytest.raises(ValueError, match="punctured needs") as info:
        run_scaling_experiment(alphabet, lengths, samples, seed=1)
    assert bad in str(info.value)
