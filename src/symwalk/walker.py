"""Seeded random words over a generator family and their exact products.

Reproducibility contract: every sample of a batch gets its own seed,
derived by mixing (master_seed, word_length, sample_index) through a
splitmix64-style hash, so the batch is embarrassingly parallel and the
output stream is a pure function of the config.  Every sampler in the
package -- words here, Lyapunov trials and longest runs -- turns a seed
into letters through ``letters`` alone.

``letters`` is the ``random.Random(seed).randrange(k)`` stream, replayed
in bulk from the raw MT19937 output (Matsumoto--Nishimura 1998) that
``randrange`` reads.  This rests on CPython's ``_randbelow``, checked by
CI on Python 3.10, 3.11, 3.12 and 3.13: ``randrange(k)`` is
``getrandbits(b)`` with ``b = k.bit_length()``, redrawn while the result
is ``>= k``; for ``b <= 8`` that is the top ``b`` bits of one 32-bit
output, and ``getrandbits(32*m)`` packs ``m`` consecutive outputs
little-endian.  ``tests/test_walker.py`` pins the replay against
``randrange`` itself, so a change to ``_randbelow`` fails there instead of
silently changing every CSV.  A family or alphabet holds at most 255
letters, so the ``b`` bits lie in the top byte of each output, every
fourth byte of the draw: one ``bytes.translate`` shifts those bytes down
and drops the ones ``>= k`` in C, and the letters stay ``bytes`` from
there on, as ``Word.letters``, through the compiled walk and
``stats.WalkClosure.rank``, into the Lyapunov rows (``np.frombuffer``) and
the longest runs.

Products apply each letter through its generator's column action: a letter
rebuilds only the columns where its generator differs from the identity,
each as a combination of old columns.  Each process compiles the matrices
of a family once into one function (``_kernels``) that loops over a block
of letters in one Python frame and picks each letter's column statement by
a binary ``if`` tree: a letter is no call and no interpreted loop over
terms.  A family object keeps its compiled walk once it has looked it up
(``_family_kernels``), so a product hashes no matrix.  Each column of the
running product is held as one integer, its entries packed ``w`` bits apart
(``sum(x_r * 2**(w*r))``, Kronecker substitution), so a combination of
columns is one big-integer operation per term instead of one per entry.
Packing is Z-linear, so the packed combination is exactly the packed
column, and unpacking with balanced digits recovers the entries while every
``|x_r| < 2**(w-1)``.  A letter multiplies the largest entry by at most the
largest column 1-norm ``N`` of any member, which adds at most ``grow =
ceil(log2 N)`` bits (``_kernels`` returns it with the walk), so the product
is unpacked and re-packed every ``_BLOCK`` letters, one walk call per
block, with a width of the current entry size plus ``grow`` bits per letter
of the next block: the width tracks the size the entries actually reach,
not the ``N**L`` bound of a whole word.  The first block starts from the
identity's packed columns (``2**(w*j)``, entries of one bit), so a word of
at most ``_BLOCK`` letters is one walk call and no ``_pack``.  The block
length comes from a sweep of 128 to 512 letters over the named families at
L = 10 to 8000: a re-pack (entry bound, ``_pack`` and ``_unpack``) costs
about as much as 60 letters at n = 4, and longer blocks widen every letter
of the block.  The same walk, called on arrays of
residues with one letter, closes the group of the letters mod p in
``stats.walk_closure``.

A ``Word`` carries its exact product: ``Word.product`` is computed on
first read and kept, so a record that needs only the letters
(``modp-rank`` within its group bound) never builds it.  The words
``sample_word`` draws and the products ``word_product`` builds are valid
by construction and skip their checks (``intmat._unchecked``); a ``Word``
a caller builds is checked, and its letters are held as ``bytes``, as
``sample_word`` holds them.
"""

from __future__ import annotations

import contextlib
import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .generators import (LETTER_BOUND, GeneratorFamily, make_family,
                         symmetric_closure)
from .intmat import IntMatrix, _unchecked, identity

POSITIVE = "positive-only"      # walk modes: the family as named, or it
SYMMETRIC = "symmetric"         # together with the inverses of its members

_MASK = (1 << 64) - 1
_BLOCK = 256                # word_product re-packs its columns this often;
                            # its length is picked by a sweep (module doc)


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(master_seed: int, length: int, index: int) -> int:
    """Per-sample seed: hash of (master_seed, length, index)."""
    s = splitmix64(master_seed & _MASK)
    s = splitmix64(s ^ ((length & _MASK) * 0xD1342543DE82EF95 & _MASK))
    s = splitmix64(s ^ ((index & _MASK) * 0xDABA0B6EB09322E3 & _MASK))
    return s


@lru_cache(maxsize=None)
def _byte_filter(k: int) -> tuple:
    """``(table, drop)`` for ``bytes.translate`` at ``k`` letters:
    ``table`` keeps the top ``k.bit_length()`` bits of a byte, and ``drop``
    holds the bytes whose top bits are ``>= k``."""
    shift = 8 - k.bit_length()
    table = bytes(b >> shift for b in range(256))
    return table, bytes(b for b in range(256) if table[b] >= k)


def letters(seed: int, k: int, length: int) -> bytes:
    """The first ``length`` letters of the uniform stream over ``k``
    letters seeded by ``seed``: ``random.Random(seed).randrange(k)`` each.

    The raw 32-bit MT19937 words are drawn in bulk and each keeps its top
    ``k.bit_length()`` bits, which lie in the word's top byte: the filter
    is one ``bytes.translate`` of the top bytes.  ``k`` outside 1..255
    raises ``ValueError``."""
    if not 1 <= k < LETTER_BOUND:
        raise ValueError("letters needs 1 <= k <= 255, got k = %d" % k)
    rng = random.Random(seed)
    bits = k.bit_length()
    table, drop = _byte_filter(k)
    out = b""
    while len(out) < length:
        # a word is kept with probability k / 2**bits: draw the expected
        # number of words still needed, plus a margin; short, draw again
        m = ((length - len(out)) << bits) // k + 64
        draw = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        out += draw[3::4].translate(table, drop)   # each word's top byte
    return out[:length]


@dataclass(frozen=True)
class Word:
    """A sequence of generator indices over a family, and its exact
    ``product``, computed on first read and kept.  Whatever sequence of
    ints it is built from, ``letters`` is held as ``bytes``, as
    ``sample_word`` draws it, so words with equal letters are equal."""

    family: GeneratorFamily
    letters: bytes

    def __post_init__(self):
        k = len(self.family)
        for a in self.letters:
            try:
                ok = 0 <= operator.index(a) < k
            except TypeError:
                raise ValueError("letter %r is not an integer" % (a,))
            if not ok:
                raise ValueError("letter %d out of range for family of %d"
                                 % (a, k))
        seq = self.letters
        # bytes(seq) of a numpy array would copy its buffer, not its letters
        object.__setattr__(self, "letters", seq if type(seq) is bytes
                           else bytes(map(operator.index, seq)))

    @property
    def length(self) -> int:
        return len(self.letters)

    @cached_property
    def product(self) -> IntMatrix:
        return word_product(self)


@dataclass(frozen=True)
class BatchConfig:
    """One experiment batch: family spec, a progression of word lengths,
    samples per length, and the master seed.  ``resolve_family`` builds
    the family once, closure included, and keeps it on the instance, so
    the CLI and ``run_batch`` walk one family object."""

    family_name: str
    family_param: int
    lengths: tuple          # (start, end, step), inclusive endpoints
    samples_per_length: int
    master_seed: int
    mode: str = POSITIVE

    def __post_init__(self):
        if len(self.lengths) != 3:
            raise ValueError("lengths must be (start, end, step), got %r"
                             % (self.lengths,))
        start, end, step = self.lengths
        if start < 1 or step < 1:
            raise ValueError("lengths must start >= 1 with step >= 1, got "
                             "%d:%d:%d" % (start, end, step))
        if self.samples_per_length < 1:
            raise ValueError("samples must be >= 1, got %d"
                             % self.samples_per_length)
        if end < start:
            raise ValueError("lengths %d:%d:%d end before they start"
                             % (start, end, step))
        if self.mode not in (POSITIVE, SYMMETRIC):
            raise ValueError("unknown mode %r" % self.mode)

    def length_values(self):
        start, end, step = self.lengths
        return list(range(start, end + 1, step))

    def resolve_family(self) -> GeneratorFamily:
        kept = vars(self)
        if "_family" not in kept:
            fam = make_family(self.family_name, self.family_param)
            if self.mode == SYMMETRIC:
                try:
                    fam = symmetric_closure(fam)
                except ValueError as exc:
                    raise ValueError("%s family at param %d in %s mode: %s" % (
                        self.family_name, self.family_param, self.mode,
                        exc)) from None
            kept["_family"] = fam
        return kept["_family"]


def sample_word(family: GeneratorFamily, length: int, seed: int) -> Word:
    """Uniform i.i.d. letters over the family, deterministic in the seed."""
    if length < 1:
        raise ValueError("word length must be >= 1")
    return _unchecked(Word, family=family,
                      letters=letters(seed, len(family), length))


def _pack(col, w: int) -> int:
    """``sum(x_r * 2**(w*r))``: a column as one integer, ``w`` bits a row."""
    v = 0
    for x in reversed(col):
        v = (v << w) + x
    return v


def _unpack(v: int, w: int, n: int) -> list:
    """The ``n`` balanced base-``2**w`` digits of ``v``; the inverse of
    ``_pack`` while every ``|x_r| < 2**(w-1)``."""
    mask, half, col = (1 << w) - 1, 1 << (w - 1), []
    for _ in range(n):
        x = v & mask
        v >>= w
        if x >= half:       # a negative digit borrowed 1 from the rows above
            x -= 1 << w
            v += 1
        col.append(x)
    return col


@lru_cache(maxsize=None)
def _kernels(matrices: tuple) -> tuple:
    """``(grow, walk)`` for a family of these member matrices.
    ``walk(p0, .., letters)`` takes the packed columns ``p0..`` of a product
    ``P`` and returns those of ``P`` times each member ``letters`` names.  A
    binary ``if a < mid:`` tree ending in chains of at most 3 members picks
    the statement of letter ``a``, e.g. ``p1 = p1 + p0``: it rebuilds only
    the columns where its member differs from the identity, diagonal term
    first (``pass`` for the identity).  The source holds only ``p<i>``,
    ``a``, ``letters``, keywords and ``%d`` integers, compiled with an empty
    namespace.  ``grow = ceil(log2 N)`` for ``N`` the largest column 1-norm
    of any member.  Cached for the life of the process, which meets one
    family per run, on the matrices, so the cache keeps no family alive."""
    n = matrices[0].dim
    args = ", ".join("p%d" % i for i in range(n))
    updates = []
    for m in matrices:
        cols = {}
        for j, (col, e) in enumerate(zip(zip(*m.rows), identity(n).rows)):
            if col != e:
                terms = sorted(((i, c) for i, c in enumerate(col) if c),
                               key=lambda term: term[0] != j)
                # " + p1 - 2 * p0" -> "p1 - 2 * p0"; a leading "-" stays unary
                cols["p%d" % j] = "".join(
                    " %s %sp%d" % ("-" if c < 0 else "+",
                                   "" if abs(c) == 1 else "%d * " % abs(c), i)
                    for i, c in terms).lstrip(" +")
        updates.append("%s = %s" % (", ".join(cols), ", ".join(cols.values()))
                       if cols else "pass")

    def tree(lo, hi, pad):      # the source lines of members lo..hi-1
        if hi - lo > 3:
            mid = (lo + hi) // 2
            return ([pad + "if a < %d:" % mid] + tree(lo, mid, pad + "    ")
                    + [pad + "else:"] + tree(mid, hi, pad + "    "))
        if hi - lo == 1:
            return [pad + updates[lo]]
        heads = ["if a == %d:" % lo, "elif a == %d:" % (lo + 1)][:hi - lo - 1]
        return [line for head, update in zip(heads + ["else:"], updates[lo:hi])
                for line in (pad + head, pad + "    " + update)]

    namespace = {}
    exec("\n".join(["def walk(%s, letters):" % args, "    for a in letters:"]
                   + tree(0, len(matrices), " " * 8)
                   + ["    return %s," % args]), namespace)
    norm = max(sum(map(abs, col)) for m in matrices for col in zip(*m.rows))
    return (norm - 1).bit_length(), namespace["walk"]


def _family_kernels(family: GeneratorFamily) -> tuple:
    """``_kernels(family.matrices)``, kept on the family object from its
    first lookup on, so that a product hashes no matrix.  Equal families
    share one walk through ``_kernels``'s cache, and a family pickles
    without it (``GeneratorFamily.__getstate__``)."""
    kept = vars(family)
    if "_kernels" not in kept:
        kept["_kernels"] = _kernels(family.matrices)
    return kept["_kernels"]


def word_product(word: Word) -> IntMatrix:
    """Exact left-to-right product of the lettered generators; the empty
    word gives the identity."""
    grow, walk = _family_kernels(word.family)
    n = word.family.dim
    # a letter multiplies max|x| by at most N <= 2**grow, so after a block
    # |x| < 2**(bits + len(block)*grow) < 2**(w-1): unpack holds.  The
    # first block starts from the identity, packed: column j is 2**(w*j),
    # and its entries have bits = 1
    block = word.letters[:_BLOCK]
    w = 1 + len(block) * grow + 2
    packed = walk(*[1 << w * j for j in range(n)], block)
    cols = [_unpack(v, w, n) for v in packed]
    for start in range(_BLOCK, word.length, _BLOCK):
        block = word.letters[start:start + _BLOCK]
        bits = max(abs(x) for col in cols for x in col).bit_length()
        w = bits + len(block) * grow + 2
        packed = walk(*[_pack(col, w) for col in cols], block)
        cols = [_unpack(v, w, n) for v in packed]
    return _unchecked(IntMatrix, rows=tuple(zip(*cols)))


class BatchError(RuntimeError):
    """A per-sample callback failed; carries the failing (length, index)."""

    def __init__(self, length, index, cause):
        super().__init__("batch sample (length=%d, index=%d) failed: %s"
                         % (length, index, cause))
        self.length = length
        self.index = index


def _run_one(args):
    family, length, index, seed, per_sample = args
    return per_sample(sample_word(family, length, seed))


def run_batch(config: BatchConfig, per_sample, threads: int = 1):
    """Yield ``(length, index, per_sample(Word))`` in deterministic
    (length, index) order.  With threads > 1 and more than one sample, a
    process pool of at most one worker per sample computes the records
    (per_sample must then be picklable); the emission order is unchanged.
    """
    family = config.resolve_family()
    tasks = [(family, length, j, derive_seed(config.master_seed, length, j),
              per_sample)
             for length in config.length_values()
             for j in range(config.samples_per_length)]
    workers = min(threads, len(tasks))
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            results = map(_run_one, tasks)
        else:
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=workers)
            stack.enter_context(pool)
            chunk = max(1, len(tasks) // (8 * threads))
            results = pool.map(_run_one, tasks, chunksize=chunk)
        for _, length, j, _, _ in tasks:
            try:
                yield length, j, next(results)
            except Exception as exc:
                raise BatchError(length, j, exc) from exc
