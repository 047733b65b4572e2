import random

import pytest

from symwalk.homology import (DivisorChain, mapping_torus_homology,
                              smith_normal_form)
from symwalk.intmat import IntMatrix, det, identity, is_symplectic
from symwalk.prescribe import (prescribe_symplectic, sl2_block,
                               verify_prescription)


def test_sl2_block_examples():
    assert sl2_block(1, 1) == IntMatrix(((-1, 1), (-3, 2)))
    assert sl2_block(2, 3) == IntMatrix(((-13, 2), (-20, 3)))
    assert sl2_block(2, 2) == IntMatrix(((-9, 2), (-14, 3)))


def test_sl2_block_properties():
    rng = random.Random(0)
    for _ in range(40):
        r = rng.randint(1, 30)
        s = rng.randint(1, 30)
        b = sl2_block(r, s)
        assert det(b) == 1
        assert b.dim == 2 and is_symplectic(b)
        assert smith_normal_form(b - identity(2)).divisors == (r, r * s)


def test_sl2_block_rejects_nonpositive():
    with pytest.raises(ValueError):
        sl2_block(0, 1)
    with pytest.raises(ValueError):
        sl2_block(1, 0)


def test_prescribe_single_block():
    chain = DivisorChain((2, 6))
    m = prescribe_symplectic(chain)
    assert m == sl2_block(2, 3)
    assert verify_prescription(m, chain)


def test_prescribe_two_blocks_layout():
    chain = DivisorChain((1, 1, 2, 4))
    m = prescribe_symplectic(chain)
    assert m.dim == 4
    # blocks sit on coordinate pairs (0, 2) and (1, 3)
    b0 = sl2_block(1, 1)
    b1 = sl2_block(2, 2)
    assert (m[0, 0], m[0, 2], m[2, 0], m[2, 2]) == \
        (b0[0, 0], b0[0, 1], b0[1, 0], b0[1, 1])
    assert (m[1, 1], m[1, 3], m[3, 1], m[3, 3]) == \
        (b1[0, 0], b1[0, 1], b1[1, 0], b1[1, 1])
    assert verify_prescription(m, chain)


def test_prescribed_homology_round_trip():
    chain = DivisorChain((2, 6))
    m = prescribe_symplectic(chain)
    h = mapping_torus_homology(m)
    assert h.betti == 1
    assert h.torsion == (2, 6)
    assert h.torsion_order == 12


def test_prescribe_input_validation():
    with pytest.raises(ValueError):
        prescribe_symplectic(DivisorChain((2, 4, 8)))      # odd length
    with pytest.raises(ValueError):
        prescribe_symplectic(DivisorChain((1, 2, 0, 0)))   # zero entries
    with pytest.raises(ValueError, match="chain must be nonempty"):
        prescribe_symplectic(DivisorChain(()))


def test_verify_rejects_wrong_chain_or_matrix():
    chain = DivisorChain((2, 6))
    m = prescribe_symplectic(chain)
    assert not verify_prescription(m, DivisorChain((1, 12)))
    assert not verify_prescription(m, DivisorChain((1, 1, 2, 6)))
    # det 1 but not symplectic for the standard form in dimension 4
    not_symplectic = IntMatrix(((1, 1, 0, 0), (0, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)))
    assert det(not_symplectic) == 1
    assert not is_symplectic(not_symplectic)
    chain4 = DivisorChain(smith_normal_form(
        not_symplectic - identity(4)).divisors)
    assert not verify_prescription(not_symplectic, chain4)


def test_random_chains_round_trip():
    rng = random.Random(314)
    for _ in range(30):
        g = rng.randint(1, 4)
        ds = []
        cur = 1
        for _ in range(2 * g):
            cur *= rng.randint(1, 4)
            ds.append(cur)
        chain = DivisorChain(tuple(ds))
        m = prescribe_symplectic(chain)
        assert verify_prescription(m, chain)
        assert m.dim == 2 * g and is_symplectic(m)
