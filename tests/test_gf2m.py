import numpy as np
import pytest

from hashdec.gf2m import PRIMITIVE_POLYS, GaloisField


def test_alpha_relation_m4():
    # under x^4 + x + 1, alpha^4 = alpha + 1 = 0b0011
    f = GaloisField(4)
    assert f.exp_table[4] == 0b0011


def test_alpha_has_full_multiplicative_order():
    f = GaloisField(4)
    x = 1
    seen = set()
    for i in range(15):
        x = f.mul(x, 2)  # multiply by alpha
        seen.add(x)
    assert x == 1 and len(seen) == 15


def test_log_exp_inverse_m6():
    f = GaloisField(6)
    assert f.log_table[f.exp_table[7]] == 7


@pytest.mark.parametrize("m", range(2, 11))
def test_tables_are_mutually_inverse(m):
    f = GaloisField(m)
    for a in range(1, (1 << m)):
        if a > f.order:
            break
        assert f.exp_table[f.log_table[a]] == a


def test_m_out_of_range():
    with pytest.raises(ValueError, match="2 <= m <= 10"):
        GaloisField(1)
    with pytest.raises(ValueError, match="2 <= m <= 10"):
        GaloisField(11)


def test_field_arithmetic():
    f = GaloisField(4)
    for a in range(1, 16):
        assert f.mul(a, f.inv(a)) == 1
        assert f.mul(a, 0) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_conventional_polynomials_cover_range():
    assert sorted(PRIMITIVE_POLYS) == list(range(2, 11))
    assert PRIMITIVE_POLYS[4] == 0b10011
    assert PRIMITIVE_POLYS[6] == 0b1000011
    assert PRIMITIVE_POLYS[8] == 0b100011101
