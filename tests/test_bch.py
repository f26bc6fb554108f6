import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hashdec.bch import (
    brute_force_ml_decode,
    build_code,
    decode_hard,
    encode,
    extract_message,
    poly_mod,
    poly_mul,
    syndromes,
    write_descriptor,
)


@pytest.fixture(scope="module")
def bch15():
    return build_code(4, 2)


@pytest.fixture(scope="module")
def bch63():
    return build_code(6, 3)


@pytest.mark.parametrize(
    "m,t,n,k",
    [(3, 1, 7, 4), (4, 2, 15, 7), (6, 3, 63, 45), (7, 6, 127, 85), (8, 9, 255, 187)],
)
def test_code_table(m, t, n, k):
    code = build_code(m, t)
    assert (code.n, code.k, code.t) == (n, k, t)
    assert code.parity_check_matrix.shape == (n - k, n)
    assert len(code.generator_polynomial) == n - k + 1


def test_build_code_returns_one_read_only_code(bch15):
    code = build_code(6, 3)
    assert build_code(6, 3) is code
    with pytest.raises(ValueError, match="read-only"):
        code.parity_check_matrix[0, 0] ^= 1
    with pytest.raises(ValueError, match="read-only"):
        bch15.all_codewords()[0, 0] = 1
    for table in (code.generator_polynomial, code.field.exp_table, code.field.log_table):
        assert not table.flags.writeable


@pytest.mark.slow
def test_code_table_511():
    code = build_code(9, 15)
    assert (code.n, code.k) == (511, 376)


def test_generator_15_7(bch15):
    # x^8 + x^7 + x^6 + x^4 + 1, from the lcm of the minimal polynomials
    assert bch15.generator_int == 0b111010001


def test_generator_divides_xn_plus_1(bch15, bch63):
    for code in (bch15, bch63):
        xn1 = (1 << code.n) | 1
        assert poly_mod(xn1, code.generator_int) == 0


def test_degenerate_construction_rejected():
    with pytest.raises(ValueError):
        build_code(3, 4)  # 2t = 8 >= n = 7 leaves no code
    # t exhausting every cyclotomic coset still leaves the repetition code
    assert build_code(3, 3).k == 1


def test_minimum_distance_exhaustive_small_codes():
    for m, t in ((3, 1), (4, 2)):
        code = build_code(m, t)
        weights = code.all_codewords().sum(axis=1)
        assert weights[0] == 0
        assert weights[1:].min() >= 2 * t + 1


def test_encode_zero_message(bch15):
    assert not np.any(encode(bch15, np.zeros(7, dtype=np.uint8)))


def test_encode_round_trip_exhaustive(bch15):
    for value in range(128):
        msg = ((value >> np.arange(7)) & 1).astype(np.uint8)
        cw = encode(bch15, msg)
        assert not np.any(syndromes(bch15, cw))
        res = decode_hard(bch15, cw)
        assert res.success and res.errors_corrected == 0
        assert np.array_equal(extract_message(bch15, res.codeword), msg)


def test_encode_length_check(bch15):
    with pytest.raises(ValueError, match="k = 7"):
        encode(bch15, np.zeros(8, dtype=np.uint8))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**45 - 1), st.integers(0, 2**45 - 1))
def test_encode_linearity(a, b):
    code = test_encode_linearity.code
    bits = lambda v: ((v >> np.arange(code.k)) & 1).astype(np.uint8)
    lhs = encode(code, bits(a) ^ bits(b))
    rhs = encode(code, bits(a)) ^ encode(code, bits(b))
    assert np.array_equal(lhs, rhs)


test_encode_linearity.code = build_code(6, 3)


@pytest.mark.parametrize("m,t", [(4, 2), (6, 3), (7, 6), (8, 9)])
def test_systematic_words_have_zero_syndrome(m, t):
    code = build_code(m, t)
    rng = np.random.default_rng(m * 100 + t)
    for _ in range(25):
        cw = encode(code, rng.integers(0, 2, code.k).astype(np.uint8))
        assert not np.any(syndromes(code, cw))
        assert not np.any((code.parity_check_matrix @ cw) % 2)


def test_syndrome_single_flip_formula(bch15):
    # flipping bit j of the zero codeword gives S_i = alpha^(i*j)
    for j in (0, 3, 11):
        rx = np.zeros(15, dtype=np.uint8)
        rx[j] = 1
        s = syndromes(bch15, rx)
        for i in range(1, 5):
            assert s[i - 1] == bch15.field.pow_alpha(i * j)


def test_syndrome_two_flips_match_direct_evaluation(bch15):
    # independent oracle: evaluate r(alpha^i) by repeated field multiplication
    rng = np.random.default_rng(3)
    f = bch15.field
    for _ in range(20):
        rx = encode(bch15, rng.integers(0, 2, 7).astype(np.uint8))
        i1, i2 = rng.choice(15, 2, replace=False)
        rx[i1] ^= 1
        rx[i2] ^= 1
        expected = []
        for i in range(1, 5):
            acc, x = 0, 1
            alpha_i = f.pow_alpha(i)
            for j in range(15):
                if rx[j]:
                    acc ^= x
                x = f.mul(x, alpha_i)
            expected.append(acc)
        assert np.array_equal(syndromes(bch15, rx), expected)


@pytest.mark.parametrize("m,t", [(4, 2), (6, 3), (7, 6)])
def test_correction_guarantee(m, t):
    code = build_code(m, t)
    rng = np.random.default_rng(m)
    for _ in range(200):
        cw = encode(code, rng.integers(0, 2, code.k).astype(np.uint8))
        e = rng.choice(code.n, rng.integers(0, code.t + 1), replace=False)
        rx = cw.copy()
        rx[e] ^= 1
        res = decode_hard(code, rx)
        assert res.success
        assert np.array_equal(res.codeword, cw)
        assert res.errors_corrected == len(e)


def test_decode_reports_failure_beyond_radius(bch63):
    rng = np.random.default_rng(11)
    failures = 0
    for _ in range(50):
        rx = rng.integers(0, 2, 63).astype(np.uint8)
        res = decode_hard(bch63, rx)
        if not res.success:
            failures += 1
            assert res.codeword is None
    assert failures > 0  # random words mostly fall outside every sphere


def test_decode_matches_brute_force_exhaustively(bch15):
    # all 2^15 received words: decoding succeeds exactly inside the spheres
    # of radius t, and there it returns the nearest codeword
    words = ((np.arange(1 << 15)[:, None] >> np.arange(15)) & 1).astype(np.uint8)
    corrected = 0
    for rx in words:
        nearest = brute_force_ml_decode(bch15, rx)
        dist = int(np.count_nonzero(nearest != rx))
        res = decode_hard(bch15, rx)
        assert res.success == (dist <= bch15.t)
        if res.success:
            assert np.array_equal(res.codeword, nearest)
            assert res.errors_corrected == dist
            corrected += 1
    assert corrected == 128 * (1 + 15 + 105)  # 2^k spheres of V(15, 2) words


# sha256 of decode_hard's (success, errors_corrected, codeword) on the words
# below, taken from the decoder that evaluated syndromes and Berlekamp-Massey
# through numpy scalar lookups; table-driven decoding must not move it
DECODE_GOLDEN_63 = "d852fc394ccb033b10b41a3992055f06715c75fd81d2ebac2f413f84b945058e"


def test_decode_golden_digest(bch63):
    # alternately a random word and a codeword with 0-5 flipped bits
    rng = np.random.default_rng(63)
    digest = hashlib.sha256()
    for i in range(2000):
        if i % 2:
            rx = rng.integers(0, 2, 63).astype(np.uint8)
        else:
            rx = encode(bch63, rng.integers(0, 2, bch63.k).astype(np.uint8))
            rx[rng.choice(63, rng.integers(0, 6), replace=False)] ^= 1
        res = decode_hard(bch63, rx)
        digest.update(bytes([res.success, res.errors_corrected]))
        if res.codeword is not None:
            assert res.codeword.dtype == np.uint8
            digest.update(res.codeword.tobytes())
    assert digest.hexdigest() == DECODE_GOLDEN_63


def test_extract_message_rejects_nonzero_syndrome(bch15):
    bad = np.zeros(15, dtype=np.uint8)
    bad[2] = 1
    with pytest.raises(ValueError, match="syndrome"):
        extract_message(bch15, bad)


def test_brute_force_identity_and_capacity(bch15):
    cw = encode(bch15, np.ones(7, dtype=np.uint8))
    assert np.array_equal(brute_force_ml_decode(bch15, cw), cw)
    with pytest.raises(ValueError, match="too large"):
        build_code(6, 3).all_codewords()


def test_brute_force_tie_breaks_lexicographically():
    toy = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    assert np.array_equal(brute_force_ml_decode(toy, np.array([0, 1], dtype=np.uint8)), [0, 0])


def test_determinism(bch63):
    rng = np.random.default_rng(13)
    rx = rng.integers(0, 2, 63).astype(np.uint8)
    r1 = decode_hard(bch63, rx)
    r2 = decode_hard(bch63, rx)
    assert r1.success == r2.success
    if r1.success:
        assert np.array_equal(r1.codeword, r2.codeword)


def test_descriptor_file(tmp_path, bch15):
    path = tmp_path / "code.txt"
    write_descriptor(bch15, path)
    text = path.read_text().splitlines()
    assert "m 4" in text and "n 15" in text and "k 7" in text and "t 2" in text
    assert f"generator_polynomial {hex(0b111010001)}" in text
    assert sum(1 for ln in text if ln.startswith("H ")) == 8


def test_poly_helpers():
    # (x + 1)(x^2 + x + 1) = x^3 + 1 over GF(2)
    assert poly_mul(0b11, 0b111) == 0b1001
    assert poly_mod(0b1001, 0b11) == 0
