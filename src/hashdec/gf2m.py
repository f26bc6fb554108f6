"""Arithmetic in GF(2^m) via exp/log tables.

Field elements are plain ints in [0, 2^m - 1]; addition is XOR. Each
extension degree uses a fixed, conventional primitive polynomial so that
code constructions are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

# conventional primitive polynomials, indexed by extension degree m
PRIMITIVE_POLYS = {
    2: 0b111,            # x^2 + x + 1
    3: 0b1011,           # x^3 + x + 1
    4: 0b10011,          # x^4 + x + 1
    5: 0b100101,         # x^5 + x^2 + 1
    6: 0b1000011,        # x^6 + x + 1
    7: 0b10001001,       # x^7 + x^3 + 1
    8: 0b100011101,      # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,     # x^9 + x^4 + 1
    10: 0b10000001001,   # x^10 + x^3 + 1
}


class GaloisField:
    """GF(2^m) with exp/log tables generated by the primitive element alpha
    of ``PRIMITIVE_POLYS[m]``, the conventional polynomial for m."""

    def __init__(self, m):
        if not 2 <= m <= 10:
            raise ValueError(f"extension degree must satisfy 2 <= m <= 10, got {m}")
        self.m = m
        self.primitive_polynomial = primitive_polynomial = PRIMITIVE_POLYS[m]
        self.order = (1 << m) - 1  # size of the multiplicative group
        exp = np.zeros(self.order, dtype=np.int64)
        log = np.zeros(self.order + 1, dtype=np.int64)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= primitive_polynomial
        if x != 1:
            raise ValueError(
                f"polynomial {primitive_polynomial:#x} is not primitive for m={m}"
            )
        self.exp_table = exp
        self.log_table = log

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[(self.log_table[a] + self.log_table[b]) % self.order])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return int(self.exp_table[(self.order - self.log_table[a]) % self.order])

    def pow_alpha(self, i):
        """alpha raised to an arbitrary integer exponent."""
        return int(self.exp_table[i % self.order])

