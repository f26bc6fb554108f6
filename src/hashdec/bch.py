"""Binary BCH codes: construction, systematic encoding, hard-decision decoding.

Bit vectors are uint8 numpy arrays with bit j holding the coefficient of x^j,
so a codeword c satisfies c(alpha^i) = 0 for i = 1..2t. Systematic encoding
places the k message bits first: c(x) = m(x) + x^k * p(x) with
p = (m(x) * x^(n-k)) mod g(x).

Decoding is Berlekamp-Massey locator synthesis followed by a Chien search;
anything outside every decoding sphere is reported as a failure, never
silently mapped to a codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .checkpoint import write_lines
from .gf2m import GaloisField

BRUTE_FORCE_MAX_K = 16


# ---------------------------------------------------------------------------
# GF(2)[x] helpers on int bitmasks (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------

def poly_deg(p):
    return p.bit_length() - 1


def poly_mul(a, b):
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        b >>= 1
    return res


def poly_mod(a, m):
    dm = poly_deg(m)
    while poly_deg(a) >= dm:
        a ^= m << (poly_deg(a) - dm)
    return a


def _minimal_polynomial(field: GaloisField, i):
    """Minimal polynomial of alpha^i over GF(2), packed as an int bitmask."""
    coset, j = [], i % field.order
    while j not in coset:
        coset.append(j)
        j = (j * 2) % field.order
    coeffs = [1]  # product of (x + alpha^j) over the coset, built up degree by degree
    for j in coset:
        beta = field.pow_alpha(j)
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] ^= c
            nxt[d] ^= field.mul(c, beta)
        coeffs = nxt
    packed = 0
    for d, c in enumerate(coeffs):
        if c not in (0, 1):
            raise AssertionError("minimal polynomial has a coefficient outside GF(2)")
        packed |= c << d
    return packed


def _rref_gf2(rows):
    """Reduced row echelon form over GF(2); returns only the nonzero rows."""
    a = rows.copy().astype(np.uint8)
    nrows, ncols = a.shape
    pivot_row = 0
    for col in range(ncols):
        hits = np.nonzero(a[pivot_row:, col])[0]
        if hits.size == 0:
            continue
        sel = pivot_row + hits[0]
        if sel != pivot_row:
            a[[pivot_row, sel]] = a[[sel, pivot_row]]
        others = np.nonzero(a[:, col])[0]
        others = others[others != pivot_row]
        a[others] ^= a[pivot_row]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return a[:pivot_row]


# ---------------------------------------------------------------------------
# code object
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    """Outcome of a hard-decision decode attempt.

    ``success`` is False when the received word lies outside every decoding
    sphere; callers must handle that case explicitly.
    """

    success: bool
    codeword: np.ndarray | None
    errors_corrected: int


class BchCode:
    """A binary BCH(n, k) code over GF(2^m) correcting up to t errors."""

    def __init__(self, m, t):
        if t < 1:
            raise ValueError(f"designed correction radius must be >= 1, got {t}")
        field = GaloisField(m)
        n = field.order
        if 2 * t >= n:
            raise ValueError(f"2t = {2 * t} leaves no code of length n = {n}")
        minimals = []
        for i in range(1, 2 * t + 1):
            p = _minimal_polynomial(field, i)
            if p not in minimals:
                minimals.append(p)
        g = 1
        for p in minimals:
            g = poly_mul(g, p)
        k = n - poly_deg(g)
        if k <= 0:
            raise ValueError(f"BCH construction degenerate for m={m}, t={t}: k={k}")

        self.field = field
        self.m, self.n, self.k, self.t = m, n, k, t
        self.generator_int = g
        self.generator_polynomial = np.array(
            [(g >> d) & 1 for d in range(poly_deg(g) + 1)], dtype=np.uint8
        )

        # decoding tables, built once per code: row j of _powers holds
        # alpha^(i*j) for i = 1..2t; the Chien search's points alpha^(-j) have
        # logs -i*j; _exp2 spans two periods, so a sum of two logs needs no modulo
        logs = np.outer(np.arange(n), np.arange(1, 2 * t + 1))
        self._powers = field.exp_table[logs % n]
        self._chien_logs = -logs[:, :t].T % n
        self._exp2 = np.concatenate([field.exp_table, field.exp_table])

        # raw parity checks: row (i-1)*m + b is bit b of alpha^(i*j) for column j
        raw = (self._powers.T[:, None, :] >> np.arange(m)[:, None]) & 1
        self.parity_check_matrix = _rref_gf2(raw.reshape(2 * t * m, n))
        if self.parity_check_matrix.shape[0] != n - k:
            raise AssertionError(
                f"parity-check rank {self.parity_check_matrix.shape[0]} != n-k = {n - k}"
            )
        self._codeword_cache = None
        # a code is shared by every caller of ``build_code``: none may change it
        for table in (field.exp_table, field.log_table, self.generator_polynomial,
                      self._powers, self._chien_logs, self._exp2, self.parity_check_matrix):
            table.flags.writeable = False

    def __repr__(self):
        return f"BchCode(n={self.n}, k={self.k}, t={self.t})"

    def all_codewords(self):
        """Every codeword as a (2^k, n) uint8 array; only for small k."""
        if self.k > BRUTE_FORCE_MAX_K:
            raise ValueError(f"k = {self.k} too large to enumerate (max {BRUTE_FORCE_MAX_K})")
        if self._codeword_cache is None:
            msgs = np.arange(1 << self.k, dtype=np.int64)
            bits = (msgs[:, None] >> np.arange(self.k)) & 1
            self._codeword_cache = np.stack(
                [encode(self, row.astype(np.uint8)) for row in bits]
            )
            self._codeword_cache.flags.writeable = False
        return self._codeword_cache


@cache
def build_code(m, t):
    """The binary BCH code of length 2^m - 1 correcting t errors.

    Built once per (m, t) and process, decoding tables included; every call
    returns that one read-only code.
    """
    return BchCode(m, t)


def encode(code: BchCode, message):
    """Systematic encode: [message | parity] with parity = m(x)*x^(n-k) mod g."""
    message = np.asarray(message, dtype=np.uint8)
    if message.shape != (code.k,):
        raise ValueError(f"message length {message.shape} != k = {code.k}")
    m_int = 0
    for j in np.nonzero(message)[0]:
        m_int |= 1 << int(j)
    r = poly_mod(m_int << (code.n - code.k), code.generator_int)
    out = np.zeros(code.n, dtype=np.uint8)
    out[: code.k] = message
    for j in range(code.n - code.k):
        out[code.k + j] = (r >> j) & 1
    return out


def syndromes(code: BchCode, received):
    """Syndromes S_i = r(alpha^i) for i = 1..2t, as field-element ints."""
    received = np.asarray(received, dtype=np.uint8)
    if received.shape != (code.n,):
        raise ValueError(f"received length {received.shape} != n = {code.n}")
    return np.bitwise_xor.reduce(code._powers[received.nonzero()[0]], axis=0)


def decode_hard(code: BchCode, received):
    """Berlekamp-Massey + Chien search; corrects up to t errors or fails."""
    received = np.asarray(received, dtype=np.uint8)
    s = syndromes(code, received)
    if not s.any():
        return DecodeResult(True, received.copy(), 0)

    # Python lists: Berlekamp-Massey looks up one element at a time
    exp, log, order = code._exp2.tolist(), code.field.log_table.tolist(), code.n

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    syn = [0] + s.tolist()  # 1-based
    # locator synthesis (coefficients are field elements, index = degree)
    c_poly, b_poly = [1], [1]
    L, gap, b = 0, 1, 1
    for r in range(2 * code.t):
        d = syn[r + 1]
        for i in range(1, min(L, len(c_poly) - 1, r) + 1):
            d ^= mul(c_poly[i], syn[r + 1 - i])
        if d == 0:
            gap += 1
            continue
        coef = exp[log[d] - log[b] + order]
        shifted = [0] * gap + [mul(coef, x) for x in b_poly]
        if 2 * L <= r:
            prev = c_poly
            c_poly = _poly_add(c_poly, shifted)
            L = r + 1 - L
            b_poly, b, gap = prev, d, 1
        else:
            c_poly = _poly_add(c_poly, shifted)
            gap += 1

    while c_poly and c_poly[-1] == 0:
        c_poly.pop()
    deg = len(c_poly) - 1
    if L > code.t or deg != L:
        return DecodeResult(False, None, 0)

    # Chien search: position j is in error iff Lambda(alpha^{-j}) = 0
    vals = c_poly[0]
    for c, chien_logs in zip(c_poly[1:], code._chien_logs):
        if c:
            vals = vals ^ code._exp2[log[c] + chien_logs]
    error_pos = (vals == 0).nonzero()[0]
    if error_pos.size != L:
        return DecodeResult(False, None, 0)

    # the syndromes are linear: the corrected word's are s minus the error rows'
    if (s ^ np.bitwise_xor.reduce(code._powers[error_pos], axis=0)).any():
        return DecodeResult(False, None, 0)
    corrected = received.copy()
    corrected[error_pos] ^= 1
    return DecodeResult(True, corrected, L)


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x ^ y for x, y in zip(a, b)] + a[len(b):]


def extract_message(code: BchCode, codeword):
    """First k bits of a systematic codeword; rejects words with nonzero syndrome."""
    codeword = np.asarray(codeword, dtype=np.uint8)
    if np.any(syndromes(code, codeword)):
        raise ValueError("extract_message called on a word with nonzero syndrome")
    return codeword[: code.k].copy()


def brute_force_ml_decode(code_or_codewords, received):
    """Nearest codeword by Hamming distance; ties go to the lexicographically
    smallest codeword. Exponential in k - a test oracle, not a decoder."""
    received = np.asarray(received, dtype=np.uint8)
    if isinstance(code_or_codewords, BchCode):
        cws = code_or_codewords.all_codewords()
    else:
        cws = np.asarray(code_or_codewords, dtype=np.uint8)
    # lexicographic order makes the argmin tie-break deterministic
    order = np.lexsort(cws.T[::-1])
    cws = cws[order]
    dists = np.count_nonzero(cws != received[None, :], axis=1)
    return cws[int(np.argmin(dists))].copy()


def bits_to_hex(bits):
    """Hex mask of a bit vector: bit j of the mask is entry j."""
    value = 0
    for j in np.nonzero(np.asarray(bits))[0]:
        value |= 1 << int(j)
    return hex(value)


def write_descriptor(code: BchCode, path):
    """Write a human-auditable description of the code to a text file."""
    lines = [
        "# BCH code descriptor (bit j of a hex mask = coefficient of x^j)",
        f"m {code.m}",
        f"n {code.n}",
        f"k {code.k}",
        f"t {code.t}",
        f"primitive_polynomial {hex(code.field.primitive_polynomial)}",
        f"generator_polynomial {hex(code.generator_int)}",
        f"parity_check_rows {code.parity_check_matrix.shape[0]}",
    ]
    for row in code.parity_check_matrix:
        lines.append(f"H {bits_to_hex(row)}")
    write_lines(path, lines)
