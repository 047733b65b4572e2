import gc
import random
import weakref
from functools import reduce

import pytest

from symwalk.generators import (custom_family, hru5, hua_reiner,
                                humphries_symplectic, stanek,
                                symmetric_closure)
from symwalk.intmat import IntMatrix, det, identity, mat_mul
from symwalk.walker import (BatchConfig, BatchError, Word, derive_seed,
                            make_sample, run_batch, sample_word, word_product)


def test_single_generator_word_is_constant():
    fam = custom_family((identity(2),))
    w = sample_word(fam, 5, 12345)
    assert w.letters == (0, 0, 0, 0, 0)


def test_sample_word_deterministic():
    fam = humphries_symplectic(2)
    w1 = sample_word(fam, 1000, 999)
    w2 = sample_word(fam, 1000, 999)
    assert w1.letters == w2.letters


def test_letter_frequencies():
    fam = hua_reiner(2)
    w = sample_word(fam, 10 ** 5, 77)
    freq0 = w.letters.count(0) / len(w.letters)
    assert abs(freq0 - 0.5) < 0.01


def test_word_length_must_be_positive():
    with pytest.raises(ValueError):
        sample_word(hua_reiner(2), 0, 1)


def test_word_rejects_out_of_range_letters():
    fam = hua_reiner(2)
    with pytest.raises(ValueError):
        Word(fam, (0, 2))


def test_word_product_single_letter():
    fam = hua_reiner(2)
    assert word_product(Word(fam, (1,))) == fam.matrices[1]


def test_word_product_transvection_squared():
    fam = hua_reiner(2)
    assert word_product(Word(fam, (0, 0))) == IntMatrix(((1, 2), (0, 1)))


def test_word_product_u_times_s():
    u = IntMatrix(((1, 1), (0, 1)))
    s = IntMatrix(((0, -1), (1, 0)))
    fam = custom_family((u, s))
    assert word_product(Word(fam, (0, 1))) == IntMatrix(((1, -1), (1, 0)))


def test_word_product_concatenation():
    fam = humphries_symplectic(2)
    rng = random.Random(5)
    w1 = tuple(rng.randrange(5) for _ in range(17))
    w2 = tuple(rng.randrange(5) for _ in range(23))
    p1 = word_product(Word(fam, w1))
    p2 = word_product(Word(fam, w2))
    assert word_product(Word(fam, w1 + w2)) == mat_mul(p1, p2)


# criterion 06's aperiodic SL(2) family, and a family whose members have
# diagonal entries other than 1 and coefficients outside {-1, 0, 1}
_APERIODIC_SL2 = symmetric_closure(custom_family((
    IntMatrix(((1, 1), (0, 1))), IntMatrix(((0, 1), (-1, 1))))))
_WIDE_COEFFICIENTS = custom_family((
    IntMatrix(((2, 3, 0), (1, 2, 0), (0, 0, 1))),
    IntMatrix(((1, 0, 0), (0, 1, 0), (-5, 0, 1))),
    hru5(3)))


@pytest.mark.parametrize("fam", [humphries_symplectic(2), hua_reiner(3),
                                 stanek(2), stanek(4),
                                 symmetric_closure(humphries_symplectic(2)),
                                 stanek(3), hua_reiner(4), _APERIODIC_SL2,
                                 _WIDE_COEFFICIENTS])
def test_fast_product_matches_dense(fam):
    rng = random.Random(99)
    letters = tuple(rng.randrange(len(fam)) for _ in range(40))
    fast = word_product(Word(fam, letters))
    dense = reduce(mat_mul, (fam.matrices[i] for i in letters))
    assert fast == dense
    assert det(fast) == 1


def test_word_product_keeps_no_family_alive():
    fam = custom_family((IntMatrix(((2, 1), (1, 1))),
                         IntMatrix(((1, 0), (3, 1)))))
    word_product(Word(fam, (0, 1, 1, 0)))
    ref = weakref.ref(fam)
    del fam
    gc.collect()
    assert ref() is None


def test_run_batch_single_sample_cubes_generator():
    fam = custom_family((IntMatrix(((1, 1), (0, 1))),))
    cfg = BatchConfig("humphries", 2, (3, 3, 1), 1, 0)
    # bypass the named-family resolution: drive the pieces directly
    sample = make_sample(fam, 3, derive_seed(0, 3, 0))
    assert sample.product == IntMatrix(((1, 3), (0, 1)))


def test_run_batch_ordering_and_determinism():
    cfg = BatchConfig("hua-reiner", 2, (100, 200, 100), 10, 31337)
    recs1 = list(run_batch(cfg, lambda s: (s.word.length, s.seed,
                                           s.product.rows)))
    recs2 = list(run_batch(cfg, lambda s: (s.word.length, s.seed,
                                           s.product.rows)))
    assert recs1 == recs2
    assert [r[0] for r in recs1] == [100] * 10 + [200] * 10


def _pickleable_record(sample):
    return (sample.word.length, sample.product.rows)


def test_run_batch_parallel_matches_serial():
    cfg = BatchConfig("hua-reiner", 2, (50, 100, 50), 4, 2718)
    serial = list(run_batch(cfg, _pickleable_record, threads=1))
    parallel = list(run_batch(cfg, _pickleable_record, threads=2))
    assert serial == parallel


def _boom(sample):
    if sample.word.length == 200 and sample.word.letters[0] >= 0:
        raise RuntimeError("boom")
    return None


def test_run_batch_reports_failing_sample():
    cfg = BatchConfig("hua-reiner", 2, (100, 200, 100), 2, 1)
    with pytest.raises(BatchError) as exc:
        list(run_batch(cfg, _boom))
    assert exc.value.length == 200
    assert exc.value.index == 0


def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig("humphries", 2, (0, 10, 1), 1, 0)
    with pytest.raises(ValueError):
        BatchConfig("humphries", 2, (1, 10, 1), 0, 0)
    with pytest.raises(ValueError):
        BatchConfig("humphries", 2, (1, 10, 1), 1, 0, mode="weird")
    with pytest.raises(ValueError, match="lengths 500:100:1 end before"):
        BatchConfig("humphries", 2, (500, 100, 1), 1, 0)


def test_symmetric_mode_resolves_closed_family():
    cfg = BatchConfig("hua-reiner", 2, (1, 1, 1), 1, 0, mode="symmetric")
    fam = cfg.resolve_family()
    assert len(fam) == 4


def test_derive_seed_spreads():
    seeds = {derive_seed(1, length, j) for length in (100, 200)
             for j in range(100)}
    assert len(seeds) == 200
