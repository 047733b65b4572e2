import concurrent.futures
import gc
import pickle
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import has_python_int_rows
from symwalk import walker
from symwalk.generators import (GeneratorFamily, hru5, hua_reiner,
                                humphries_symplectic, stanek,
                                symmetric_closure)
from symwalk.homology import fp_rank, mapping_torus_homology, torsion_order
from symwalk.intmat import IntMatrix, det, identity, inverse, mat_mul
from symwalk.walker import (_BLOCK, BatchConfig, BatchError, Word,
                            _family_kernels, _kernels, _pack, _unpack,
                            derive_seed, letters, run_batch, sample_word,
                            word_product)


# powers of two reject half the words; 255 keeps all 8 bits of each top
# byte
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16,
                               127, 128, 129, 200, 254, 255])
def test_letters_is_the_randrange_stream(k):
    # every sampler draws through letters(); its bulk MT19937 replay must
    # keep exactly this stream, or every CSV changes
    for seed in (0, 1, 20240817, 2 ** 63 + 12345, 2 ** 64 - 1):
        for length in (0, 1, 2, 3, 31, 32, 33, 500, 16384):
            draw = random.Random(seed).randrange
            got = letters(seed, k, length)
            assert type(got) is bytes
            assert list(got) == [draw(k) for _ in range(length)]


@pytest.mark.parametrize("k", [0, -1, 256, 2 ** 32, 2 ** 40])
def test_letters_rejects_alphabets_the_replay_cannot_draw(k):
    with pytest.raises(ValueError, match=r"1 <= k <= 255, got k = %d$" % k):
        letters(1, k, 5)


def test_single_generator_word_is_constant():
    fam = GeneratorFamily((identity(2),))
    w = sample_word(fam, 5, 12345)
    assert w.letters == bytes(5)
    assert w == Word(fam, (0, 0, 0, 0, 0))


def test_sample_word_deterministic():
    fam = humphries_symplectic(2)
    w1 = sample_word(fam, 1000, 999)
    w2 = sample_word(fam, 1000, 999)
    assert w1.letters == w2.letters
    assert w1 == Word(fam, w1.letters)      # a word the checks accept


@pytest.mark.parametrize("k", [2, 5, 255], ids="{}-bytes".format)
def test_word_holds_letters_as_sample_word_draws_them(k):
    fam = GeneratorFamily((identity(1),) * k)
    drawn = sample_word(fam, 300, 4)
    assert type(drawn.letters) is bytes
    as_ints = list(drawn.letters)
    draw = random.Random(4).randrange
    assert as_ints == [draw(k) for _ in range(300)]
    for built in (as_ints, tuple(as_ints), np.array(as_ints),
                  [np.int64(a) for a in as_ints], drawn.letters):
        word = Word(fam, built)
        assert type(word.letters) is bytes
        assert word == drawn and hash(word) == hash(drawn)
    assert drawn.product == identity(1)


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
    # the message names the first letter out of range
    for word, bad in (((0, 2), 2), ((1, 0, 5, -1, 2), 5), ((0, -1), -1),
                      ((np.int64(2),), 2)):
        with pytest.raises(ValueError, match=r"^letter %d out of range for "
                                             r"family of 2$" % bad):
            Word(fam, word)


@pytest.mark.parametrize("letter", [0.5, 1.0, "a", None, np.float64(1.0)],
                         ids=["half", "float", "str", "none", "float64"])
def test_word_rejects_letters_that_are_not_integers(letter):
    # checked where the letter enters, not deep inside word_product
    with pytest.raises(ValueError, match="^letter %s is not an integer$"
                                         % re.escape(repr(letter))):
        Word(hua_reiner(2), (0, letter))


def test_word_accepts_numpy_integer_letters():
    fam = hua_reiner(2)
    word = Word(fam, (np.uint8(1), np.int64(0)))
    assert word.product == word_product(Word(fam, (1, 0)))


def test_word_product_single_letter():
    fam = hua_reiner(2)
    assert word_product(Word(fam, (1,))) == fam.matrices[1]


def test_word_product_transvection_squared():
    fam = hua_reiner(2)
    assert word_product(Word(fam, (0, 0))) == IntMatrix(((1, 2), (0, 1)))


def test_word_product_u_times_s():
    u = IntMatrix(((1, 1), (0, 1)))
    s = IntMatrix(((0, -1), (1, 0)))
    fam = GeneratorFamily((u, s))
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
_APERIODIC_SL2 = symmetric_closure(GeneratorFamily((
    IntMatrix(((1, 1), (0, 1))), IntMatrix(((0, 1), (-1, 1))))))
_WIDE_COEFFICIENTS = GeneratorFamily((
    IntMatrix(((2, 3, 0), (1, 2, 0), (0, 0, 1))),
    IntMatrix(((1, 0, 0), (0, 1, 0), (-5, 0, 1))),
    hru5(3)))


# the compiled walk of transvections (Humphries), signed permutations
# (Stanek's dd; Hua-Reiner's hru5, whose corner entry is (-1)**(n-1)),
# their products (Stanek n >= 4) and wider coefficients
_PRODUCT_FAMILIES = [humphries_symplectic(2), hua_reiner(3), stanek(2),
                     stanek(4), symmetric_closure(humphries_symplectic(2)),
                     stanek(3), hua_reiner(4), _APERIODIC_SL2,
                     _WIDE_COEFFICIENTS, humphries_symplectic(3),
                     symmetric_closure(humphries_symplectic(3)),
                     stanek(1), hua_reiner(2)]


@pytest.mark.parametrize("fam", _PRODUCT_FAMILIES)
def test_fast_product_matches_dense(fam):
    # prefixes of one word, on both sides of the first two re-packing
    # block edges; the empty prefix is the identity
    edges = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)
    rng = random.Random(99)
    word = tuple(rng.randrange(len(fam)) for _ in range(max(edges) + 1))
    dense = identity(fam.dim)
    for length in range(len(word) + 1):
        if length:
            dense = mat_mul(dense, fam.matrices[word[length - 1]])
        if length in (0, 1, 2, 40) + edges:
            fast = word_product(Word(fam, word[:length]))
            assert fast == dense, length
            assert det(fast) == 1


@pytest.mark.parametrize("length", [2000, 8000, 32000])
@pytest.mark.parametrize("fam", [
    symmetric_closure(humphries_symplectic(2)),
    symmetric_closure(humphries_symplectic(3)),
    symmetric_closure(stanek(2)),
], ids=["humphries2-sym", "humphries3-sym", "stanek2-sym"])
def test_long_words_stay_exact(fam, length):
    # the lengths a growth slope needs, far past the re-packing edges that
    # test_fast_product_matches_dense crosses, checked by two exact
    # identities instead of a dense product: a word times its reversed
    # word of inverse letters is I, and a rotated word's product is a
    # conjugate, with the same invariants
    word = sample_word(fam, length, derive_seed(8, length, 0))
    inverse_letter = [fam.matrices.index(inverse(m)) for m in fam.matrices]
    back = Word(fam, [inverse_letter[a] for a in reversed(word.letters)])
    assert mat_mul(word.product, back.product) == identity(fam.dim)
    cut = length // 3
    turned = Word(fam, word.letters[cut:] + word.letters[:cut]).product
    assert torsion_order(turned) == torsion_order(word.product)
    assert (mapping_torus_homology(turned)
            == mapping_torus_homology(word.product))
    assert fp_rank(turned, 3) == fp_rank(word.product, 3)


@pytest.mark.parametrize("length", [0, 1, _BLOCK])
def test_a_word_of_one_block_is_one_walk_call_and_no_pack(length,
                                                          monkeypatch):
    # the first block starts from the packed identity, not from _pack
    fam = stanek(2)
    word = sample_word(fam, _BLOCK, 5)
    expected = word_product(Word(fam, word.letters[:length]))
    grow, walk = _family_kernels(fam)
    calls = []

    def counting_walk(*args):
        calls.append(len(args[-1]))
        return walk(*args)

    def no_pack(col, w):
        raise AssertionError("_pack called")

    monkeypatch.setitem(vars(fam), "_kernels", (grow, counting_walk))
    monkeypatch.setattr(walker, "_pack", no_pack)
    assert word_product(Word(fam, word.letters[:length])) == expected
    assert calls == [length]


@pytest.mark.parametrize("fam, grow", [(humphries_symplectic(2), 2),
                                       (stanek(2), 1), (hua_reiner(3), 1),
                                       (_WIDE_COEFFICIENTS, 3),
                                       (GeneratorFamily((identity(2),)), 0)])
def test_grow_is_the_bits_one_letter_can_add(fam, grow):
    # ceil(log2 N) for N the largest column 1-norm of any member
    assert _kernels(fam.matrices)[0] == grow


@st.composite
def _packable_column(draw):
    # a width and digits in (-2**(w-1), 2**(w-1)), extremes and 0 favoured
    w = draw(st.integers(1, 200))
    top = 2 ** (w - 1) - 1
    digit = st.sampled_from((-top, 0, top)) | st.integers(-top, top)
    return w, draw(st.lists(digit, min_size=1, max_size=8))


@given(_packable_column())
def test_unpack_inverts_pack(w_digits):
    w, digits = w_digits
    assert _unpack(_pack(digits, w), w, len(digits)) == digits


def test_family_pickles_after_a_product():
    # pool tasks pickle the family: the compiled kernels must not ride on it
    fam = stanek(2)
    product = word_product(Word(fam, (0, 2, 1, 2)))
    clone = pickle.loads(pickle.dumps(fam))
    assert clone == fam
    assert vars(clone) == {"matrices": fam.matrices}
    assert word_product(Word(clone, (0, 2, 1, 2))) == product


def test_kernels_are_compiled_once_per_family():
    fam = humphries_symplectic(2)
    grow, walk = compiled = _kernels(fam.matrices)
    assert _kernels(humphries_symplectic(2).matrices) is compiled
    assert isinstance(grow, int) and callable(walk)


def test_equal_families_built_apart_or_unpickled_share_one_walk():
    fam = symmetric_closure(humphries_symplectic(2))
    walk = _family_kernels(fam)[1]
    apart = symmetric_closure(humphries_symplectic(2))
    unpickled = pickle.loads(pickle.dumps(fam))
    assert apart is not fam and unpickled is not fam
    for other in (fam, apart, unpickled):
        assert _family_kernels(other)[1] is walk
    # a word over each family runs that one walk
    word = sample_word(fam, 300, 8)
    assert (word_product(Word(apart, word.letters))
            == word_product(Word(unpickled, word.letters)) == word.product)


# every family of test_fast_product_matches_dense, and one with an
# identity member; symmetric Humphries g3 (14 letters) reaches every leaf
# of a three-level tree
@pytest.mark.parametrize("fam", _PRODUCT_FAMILIES + [GeneratorFamily((
    IntMatrix(((1, 1), (0, 1))), identity(2), IntMatrix(((0, -1), (1, 0)))))])
def test_walk_applies_each_letter(fam):
    walk = _kernels(fam.matrices)[1]
    rng = random.Random(7)
    n = fam.dim
    p = IntMatrix(tuple(tuple(rng.randrange(-9, 10) for _ in range(n))
                        for _ in range(n)))
    cols = list(np.array(p.rows).T)
    assert all(y is x for x, y in zip(cols, walk(*cols, ())))
    for a, m in enumerate(fam.matrices):
        got = walk(*cols, (a,))
        assert len(got) == n
        assert np.stack(got, 1).tolist() == list(map(list, mat_mul(p, m).rows))


@pytest.mark.parametrize("name, param", [("humphries", 2), ("humphries", 3),
                                         ("hua-reiner", 3), ("stanek", 2),
                                         ("stanek", 4)])
@pytest.mark.parametrize("mode", ["positive-only", "symmetric"])
def test_walk_looks_up_no_global_or_builtin(name, param, mode):
    fam = BatchConfig(name, param, (1, 1, 1), 1, 0, mode).resolve_family()
    assert _kernels(fam.matrices)[1].__code__.co_names == ()


def test_word_product_keeps_no_family_alive():
    fam = GeneratorFamily((IntMatrix(((2, 1), (1, 1))),
                           IntMatrix(((1, 0), (3, 1)))))
    word_product(Word(fam, (0, 1, 1, 0)))
    ref = weakref.ref(fam)
    del fam
    gc.collect()
    assert ref() is None


def test_run_batch_single_sample_cubes_generator():
    fam = GeneratorFamily((IntMatrix(((1, 1), (0, 1))),))
    cfg = BatchConfig("humphries", 2, (3, 3, 1), 1, 0)
    # bypass the named-family resolution: drive the pieces directly
    sample = sample_word(fam, 3, derive_seed(0, 3, 0))
    assert sample.product == IntMatrix(((1, 3), (0, 1)))


def test_run_batch_ordering_and_determinism():
    cfg = BatchConfig("hua-reiner", 2, (100, 200, 100), 10, 31337)
    recs1 = list(run_batch(cfg, lambda s: (s.length, s.letters,
                                           s.product.rows)))
    recs2 = list(run_batch(cfg, lambda s: (s.length, s.letters,
                                           s.product.rows)))
    assert recs1 == recs2
    assert [r[0] for r in recs1] == [100] * 10 + [200] * 10


def _pickleable_record(sample):
    return (sample.length, sample.product.rows)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_batch_labels_each_record(threads):
    cfg = BatchConfig("hua-reiner", 2, (50, 100, 50), 3, 2718)
    got = list(run_batch(cfg, _pickleable_record, threads=threads))
    assert [(length, j) for length, j, _ in got] == [
        (50, 0), (50, 1), (50, 2), (100, 0), (100, 1), (100, 2)]
    family = cfg.resolve_family()
    assert [record for _, _, record in got] == [
        _pickleable_record(sample_word(family, length,
                                       derive_seed(2718, length, j)))
        for length, j, _ in got]


def test_run_batch_parallel_matches_serial():
    cfg = BatchConfig("hua-reiner", 2, (50, 100, 50), 4, 2718)
    serial = list(run_batch(cfg, _pickleable_record, threads=1))
    parallel = list(run_batch(cfg, _pickleable_record, threads=2))
    assert serial == parallel


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool asked for and
    maps in-process, so no worker is ever started."""

    made = []

    def __init__(self, max_workers):
        self.max_workers, self.chunksize, self.closed = max_workers, None, False
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True

    def map(self, fn, tasks, chunksize=1):
        self.chunksize = chunksize
        return map(fn, tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)


@pytest.mark.parametrize("samples, threads, workers, chunk", [
    (1, 64, None, None),        # one sample runs in-process
    (1, 1, None, None),
    (3, 64, 3, 1),              # never more workers than samples
    (40, 2, 2, 2),              # 40 // (8 * threads)
    (40, 1, None, None),
])
def test_run_batch_pool_has_no_more_workers_than_samples(
        recording_pool, samples, threads, workers, chunk):
    cfg = BatchConfig("hua-reiner", 2, (5, 5, 1), samples, 11)
    got = list(run_batch(cfg, _pickleable_record, threads=threads))
    assert len(got) == samples
    assert got == [(5, j, _pickleable_record(sample_word(
        cfg.resolve_family(), 5, derive_seed(11, 5, j))))
        for j in range(samples)]
    made = _RecordingPool.made
    assert [(p.max_workers, p.chunksize) for p in made] == (
        [] if workers is None else [(workers, chunk)])
    assert all(p.closed for p in made)


def _boom(sample):
    if sample.length == 200 and sample.letters[0] >= 0:
        raise RuntimeError("boom")
    return None


def test_run_batch_reports_failing_sample():
    cfg = BatchConfig("hua-reiner", 2, (100, 200, 100), 2, 1)
    with pytest.raises(BatchError) as exc:
        list(run_batch(cfg, _boom))
    assert exc.value.length == 200
    assert exc.value.index == 0


def test_run_batch_reports_failing_sample_from_a_pool(recording_pool):
    cfg = BatchConfig("hua-reiner", 2, (100, 200, 100), 2, 1)
    with pytest.raises(BatchError) as exc:
        list(run_batch(cfg, _boom, threads=2))
    assert (exc.value.length, exc.value.index) == (200, 0)
    assert [p.closed for p in _RecordingPool.made] == [True]


def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig("humphries", 2, (0, 10, 1), 1, 0)
    with pytest.raises(ValueError):
        BatchConfig("humphries", 2, (1, 10, 1), 0, 0)
    with pytest.raises(ValueError):
        BatchConfig("humphries", 2, (1, 10, 1), 1, 0, mode="weird")
    with pytest.raises(ValueError, match="lengths 500:100:1 end before"):
        BatchConfig("humphries", 2, (500, 100, 1), 1, 0)
    with pytest.raises(ValueError, match="lengths 500:100:1 end before"):
        BatchConfig("humphries", 2, [500, 100, 1], 1, 0)    # a list, too


def test_symmetric_mode_resolves_closed_family():
    cfg = BatchConfig("hua-reiner", 2, (1, 1, 1), 1, 0, mode="symmetric")
    fam = cfg.resolve_family()
    assert len(fam) == 4
    assert cfg.resolve_family() is fam     # kept from the first call on


def test_derive_seed_spreads():
    seeds = {derive_seed(1, length, j) for length in (100, 200)
             for j in range(100)}
    assert len(seeds) == 200


def test_word_product_rows_are_python_ints():
    # 2 * _BLOCK + 88 letters: the columns are unpacked and re-packed twice
    for fam in (humphries_symplectic(2), stanek(2), hua_reiner(3)):
        word = sample_word(fam, 2 * _BLOCK + 88, 3)
        assert has_python_int_rows(word_product(word))
