import pytest

import symwalk.generators as generators
from symwalk.generators import (GeneratorFamily, birman_u, birman_y, hru2,
                                hru5, hua_reiner, humphries_symplectic,
                                make_family, stanek, stanek_dd, stanek_r21,
                                stanek_tk, symmetric_closure)
from symwalk.intmat import (IntMatrix, det, identity, inverse, is_symplectic,
                            mat_mul)
from symwalk.walker import sample_word


def test_birman_u_2_1():
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]
    assert birman_u(2, 1).to_lists() == expected


def test_birman_y_2_1():
    expected = [[1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert birman_y(2, 1).to_lists() == expected


# every named generator at g = n = 2 and 3, rows separated by ";"
LITERALS = {
    ("birman_y", 2, 1): "1 0 -1 0; 0 1 0 0; 0 0 1 0; 0 0 0 1",
    ("birman_y", 2, 2): "1 0 0 0; 0 1 0 -1; 0 0 1 0; 0 0 0 1",
    ("birman_u", 2, 1): "1 0 0 0; 0 1 0 0; 1 0 1 0; 0 0 0 1",
    ("birman_u", 2, 2): "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 1 0 1",
    ("birman_z", 2, 1): "1 0 -1 1; 0 1 1 -1; 0 0 1 0; 0 0 0 1",
    ("birman_y", 3, 1):
        "1 0 0 -1 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; "
        "0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 1",
    ("birman_y", 3, 2):
        "1 0 0 0 0 0; 0 1 0 0 -1 0; 0 0 1 0 0 0; "
        "0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 1",
    ("birman_y", 3, 3):
        "1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 -1; "
        "0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 1",
    ("birman_u", 3, 1):
        "1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; "
        "1 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 1",
    ("birman_u", 3, 2):
        "1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; "
        "0 0 0 1 0 0; 0 1 0 0 1 0; 0 0 0 0 0 1",
    ("birman_u", 3, 3):
        "1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; "
        "0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 1 0 0 1",
    ("birman_z", 3, 1):
        "1 0 0 -1 1 0; 0 1 0 1 -1 0; 0 0 1 0 0 0; "
        "0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 1",
    ("birman_z", 3, 2):
        "1 0 0 0 0 0; 0 1 0 0 -1 1; 0 0 1 0 1 -1; "
        "0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 1",
    ("hru2", 2): "1 1; 0 1",
    ("hru5", 2): "0 -1; 1 0",
    ("hru2", 3): "1 1 0; 0 1 0; 0 0 1",
    ("hru5", 3): "0 0 1; 1 0 0; 0 1 0",
    ("stanek_r21", 2): "1 0 0 0; 1 1 0 0; 0 0 1 -1; 0 0 0 1",
    ("stanek_tk", 2, 1): "1 0 0 0; 0 1 0 0; 1 0 1 0; 0 0 0 1",
    ("stanek_tk", 2, 2): "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 1 0 1",
    ("stanek_dd", 2): "0 1 0 0; 0 0 -1 0; 0 0 0 1; 1 0 0 0",
    ("stanek_r21", 3):
        "1 0 0 0 0 0; 1 1 0 0 0 0; 0 0 1 0 0 0; "
        "0 0 0 1 -1 0; 0 0 0 0 1 0; 0 0 0 0 0 1",
    ("stanek_tk", 3, 1):
        "1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; "
        "1 0 0 1 0 0; 0 0 0 0 1 0; 0 0 0 0 0 1",
    ("stanek_tk", 3, 2):
        "1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; "
        "0 0 0 1 0 0; 0 1 0 0 1 0; 0 0 0 0 0 1",
    ("stanek_tk", 3, 3):
        "1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; "
        "0 0 0 1 0 0; 0 0 0 0 1 0; 0 0 1 0 0 1",
    ("stanek_dd", 3):
        "0 1 0 0 0 0; 0 0 1 0 0 0; 0 0 0 -1 0 0; "
        "0 0 0 0 1 0; 0 0 0 0 0 1; 1 0 0 0 0 0",
}


def test_named_generators_equal_their_literal_matrices():
    for (name, *args), text in LITERALS.items():
        expected = IntMatrix(tuple(tuple(int(x) for x in row.split())
                                   for row in text.split(";")))
        assert getattr(generators, name)(*args) == expected, (name, args)


def test_humphries_cardinality_g2():
    assert len(humphries_symplectic(2)) == 5


@pytest.mark.parametrize("g", range(2, 15))
def test_humphries_cardinality(g):
    fam = humphries_symplectic(g)
    assert len(fam) == 2 * g + 1
    for m in fam.matrices:
        assert m.dim == 2 * g and is_symplectic(m)
        assert det(m) == 1


def test_humphries_rejects_g1():
    with pytest.raises(ValueError):
        humphries_symplectic(1)


@pytest.mark.parametrize("make, args, entry, n", [
    ("stanek_r21", (1,), (2, 3), 2),
    ("birman_z", (2, 2), (2, 5), 4),
    ("birman_y", (2, 3), (3, 5), 4),
    ("birman_u", (2, 0), (2, 0), 4),        # index 0 would wrap to row n
    ("stanek_tk", (2, 0), (2, 0), 4),
    ("birman_y", (2, -1), (-1, 1), 4),
])
def test_generator_entries_outside_the_matrix_are_rejected(make, args,
                                                           entry, n):
    with pytest.raises(ValueError) as exc:
        getattr(generators, make)(*args)
    assert str(exc.value) == "entry %s is outside the %d x %d matrix" % (
        entry, n, n)


def test_hru5_examples():
    assert hru5(2) == IntMatrix(((0, -1), (1, 0)))
    assert hru5(3) == IntMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))


def test_hru2_example():
    assert hru2(3) == IntMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))


def test_hua_reiner_rejects_n1():
    with pytest.raises(ValueError):
        hua_reiner(1)


def test_stanek_dd2():
    assert stanek_dd(2) == IntMatrix(
        ((0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0)))


def test_stanek_tk21():
    expected = identity(4).to_lists()
    expected[2][0] = 1
    assert stanek_tk(2, 1).to_lists() == expected


def test_stanek_n1_is_hua_reiner_sl2():
    assert stanek(1) == hua_reiner(2)


def test_stanek_cardinalities():
    assert len(stanek(2)) == 3
    assert len(stanek(3)) == 3
    assert len(stanek(4)) == 2
    with pytest.raises(ValueError):
        stanek(0)


@pytest.mark.parametrize("n", [4, 5])
def test_stanek_first_generator_is_r21_times_t1(n):
    # from n = 4 on the family merges stanek_r21(n) and stanek_tk(n, 1)
    assert stanek(n).matrices[0] == mat_mul(stanek_r21(n), stanek_tk(n, 1))


def test_stanek_preserves_the_standard_form():
    # the original listing does not state which form the Stanek generators
    # preserve; it is the standard J
    for n in (2, 3, 4, 5):
        for m in stanek(n).matrices:
            assert m.dim == 2 * n and is_symplectic(m)


def test_all_generators_det_one():
    for fam in (humphries_symplectic(3), hua_reiner(4), stanek(3)):
        for m in fam.matrices:
            assert det(m) == 1


_NAMED = ([("humphries", g) for g in (2, 3, 4, 5)]
          + [("hua-reiner", n) for n in (2, 3, 4, 5)]
          + [("stanek", n) for n in (1, 2, 3, 4, 5)])


@pytest.mark.parametrize("name, param", _NAMED)
def test_named_families_pass_the_checked_path(name, param):
    # make_family builds every family through GeneratorFamily's checks
    # (det 1 each); every member is symplectic too unless the family is
    # Hua-Reiner's SL(n)
    fam = make_family(name, param)
    if name != "hua-reiner":
        assert all(is_symplectic(m) for m in fam.matrices)


@pytest.mark.parametrize("name, builder", [("humphries", "birman_y"),
                                           ("hua-reiner", "hru2"),
                                           ("stanek", "stanek_dd")])
def test_a_named_member_of_det_two_is_refused(name, builder, monkeypatch):
    # a named family is input transcribed from the literature, checked
    # like a caller's: one corrupted member fails its det check
    def doubled(n, *args):
        dim = n if name == "hua-reiner" else 2 * n
        return generators._matrix(dim, {(1, 1): 2})

    monkeypatch.setattr(generators, builder, doubled)
    with pytest.raises(ValueError, match="^generator has determinant != 1$"):
        make_family(name, 3)


def test_symmetric_closure_identity():
    fam = GeneratorFamily((identity(2),))
    assert len(symmetric_closure(fam)) == 1


def test_symmetric_closure_transvection():
    fam = GeneratorFamily((IntMatrix(((1, 1), (0, 1))),))
    closed = symmetric_closure(fam)
    assert len(closed) == 2
    assert IntMatrix(((1, -1), (0, 1))) in closed.matrices


def test_symmetric_closure_hua_reiner():
    closed = symmetric_closure(hua_reiner(2))
    assert len(closed) == 4
    assert IntMatrix(((0, 1), (-1, 0))) in closed.matrices


def test_symmetric_closure_order():
    # the members in their order, then each inverse that is not a member,
    # in member order
    t, u = IntMatrix(((1, 1), (0, 1))), IntMatrix(((1, 0), (1, 1)))
    s = IntMatrix(((-1, 0), (0, -1)))       # its own inverse
    assert symmetric_closure(GeneratorFamily((t, s, u))).matrices == (
        t, s, u, inverse(t), inverse(u))
    assert symmetric_closure(GeneratorFamily((t, inverse(t), s))).matrices \
        == (t, inverse(t), s)
    # a repeated member stays repeated, and its inverse comes once
    assert symmetric_closure(GeneratorFamily((t, s, t))).matrices == (
        t, s, t, inverse(t))
    fam = humphries_symplectic(3)
    assert symmetric_closure(fam).matrices == (
        fam.matrices + tuple(map(inverse, fam.matrices)))


@pytest.mark.parametrize("name, param", [("hua-reiner", 3), ("stanek", 2),
                                         ("stanek", 4)])
def test_symmetric_closure_of_a_named_family(name, param):
    # the members first, then their inverses: signed permutations among
    # them, so some inverse may already be a member
    fam = make_family(name, param)
    closed = symmetric_closure(fam)
    assert closed.matrices[:len(fam)] == fam.matrices
    assert set(closed.matrices) == (set(fam.matrices)
                                    | set(map(inverse, fam.matrices)))
    assert len(set(closed.matrices)) == len(closed)


def test_symmetric_closure_holds_at_most_255_members(monkeypatch):
    # 128 transvections and their 128 inverses, all distinct
    fam = GeneratorFamily(tuple(IntMatrix(((1, k), (0, 1)))
                                for k in range(1, 129)))
    assert len(symmetric_closure(GeneratorFamily(fam.matrices[:127]))) == 254

    def no_det(m):
        raise AssertionError("det called")
    # the count is refused before any member's det
    monkeypatch.setattr(generators, "det", no_det)
    with pytest.raises(ValueError, match="at most 255 members, got 256$"):
        symmetric_closure(fam)


def test_det_preserved_over_long_walk():
    fam = hua_reiner(3)
    sample = sample_word(fam, 10 ** 4, 42)
    assert det(sample.product) == 1


def test_family_rejects_det_not_one():
    with pytest.raises(ValueError):
        GeneratorFamily((IntMatrix(((2, 0), (0, 1))),))
    # symmetric_closure trusts its input, and inverse() would invert this
    # det -1 swap: a caller's family is refused where it enters
    with pytest.raises(ValueError, match="determinant != 1"):
        symmetric_closure(GeneratorFamily((IntMatrix(((1, 1), (0, 1))),
                                           IntMatrix(((0, 1), (1, 0))))))


def test_family_rejects_no_members():
    with pytest.raises(ValueError, match="^a generator family must be "
                                         "nonempty$"):
        GeneratorFamily(())


def test_family_rejects_dimension_zero():
    with pytest.raises(ValueError, match="dimension >= 1, got 0"):
        GeneratorFamily((IntMatrix(()),))


def test_family_holds_at_most_255_members():
    # a letter is one byte; the count is checked before any member's det
    assert len(GeneratorFamily((identity(1),) * 255)) == 255
    with pytest.raises(ValueError, match="at most 255 members, got 256$"):
        GeneratorFamily((identity(1),) * 256)


def test_humphries_size_is_checked_before_any_matrix(monkeypatch):
    # 2g+1 members at genus 128 is 257: refused before the first _matrix;
    # genus 127, 255 members, passes the check and builds
    def unbuilt(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(generators, "_matrix", unbuilt)
    with pytest.raises(ValueError, match="^humphries family at genus 128 has "
                       "257 members, more than 255$"):
        make_family("humphries", 128)
    with pytest.raises(AssertionError, match="a matrix was built"):
        make_family("humphries", 127)


def test_family_rejects_mixed_dims():
    with pytest.raises(ValueError):
        GeneratorFamily((identity(2), identity(4)))


def test_make_family_dispatch():
    assert make_family("humphries", 2) == humphries_symplectic(2)
    assert make_family("hua-reiner", 3) == hua_reiner(3)
    assert make_family("stanek", 2) == stanek(2)
    for name in ("nope", "hua_reiner"):         # one spelling per family
        with pytest.raises(ValueError, match="^unknown family %r$" % name):
            make_family(name, 2)
