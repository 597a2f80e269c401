"""Small finite fields GF(q) with table-driven arithmetic.

Elements are integers 0..q-1.  For q = p^e with e > 1 the integer x
encodes the polynomial sum(digit_i * X^i) where the digits are the
base-p digits of x, reduced modulo a pinned irreducible modulus so that
every run of every machine computes the same tables.
"""

import numpy as np

from ._kernels import decode_vectors
from .group import factorize


class FieldError(ValueError):
    pass


# modulus coefficients, lowest degree first, length e+1, trailing 1
PINNED_MODULI = {
    4: (1, 1, 1),          # X^2 + X + 1 over GF(2)
    8: (1, 1, 0, 1),       # X^3 + X + 1
    9: (1, 0, 1),          # X^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),   # X^4 + X + 1
    25: (2, 0, 1),         # X^2 + 2 over GF(5)
    27: (1, 2, 0, 1),      # X^3 + 2X + 1
}


def factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^e with p prime, or FieldError."""
    factors = factorize(q)
    if len(factors) != 1:
        raise FieldError(f"{q} is not a prime power")
    return factors[0]


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by den over GF(p); coefficients lowest first."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        f = (c * lead_inv) % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    return [c % p for c in num[:dd]]


def _is_irreducible(modulus, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= e//2."""
    e = len(modulus) - 1
    if modulus[-1] % p == 0:
        return False
    for deg in range(1, e // 2 + 1):
        # iterate monic polys of this degree by counting in base p
        for row in decode_vectors(0, p**deg, p, deg):
            den = row[::-1].tolist() + [1]
            if not any(_poly_mod(modulus, den, p)):
                return False
    return True


class FieldSpec:
    """GF(q) with dense add/mul/neg/inv tables."""

    def __init__(self, q: int):
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus = None
        else:
            if q not in PINNED_MODULI:
                raise FieldError(f"no pinned modulus for q={q}")
            self.modulus = PINNED_MODULI[q]
            if len(self.modulus) != e + 1:
                raise FieldError("modulus degree does not match the extension degree")
            if not _is_irreducible(self.modulus, p):
                raise FieldError("pinned modulus is reducible; tables would be wrong")
        self.add, self.mul = self._build_tables()
        self.neg = np.argmax(self.add == 0, axis=1)
        self.inv = np.argmax(self.mul == 1, axis=1)
        self.inv[0] = 0  # by convention; never a field statement

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The q x q add and mul tables, all pairs at once: add is the
        digitwise sum mod p, mul the product of the digit polynomials
        reduced by the modulus from the top degree down."""
        q, p, e = self.q, self.p, self.e
        digits = decode_vectors(0, q, p, e)[:, ::-1]  # base-p digits, lowest first
        weights = p ** np.arange(e, dtype=np.int64)
        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        prod = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
        for i in range(e):
            prod[:, :, i : i + e] += digits[:, None, i, None] * digits[None, :, :]
        if e > 1:
            modulus = np.array(self.modulus, dtype=np.int64)
            lead_inv = pow(int(modulus[-1]), p - 2, p)
            for top in range(2 * e - 2, e - 1, -1):
                factor = (prod[:, :, top] % p) * lead_inv % p
                prod[:, :, top - e : top + 1] -= factor[:, :, None] * modulus
        mul = (prod[:, :, :e] % p) @ weights
        return add, mul

    def vector_space(self, d: int) -> np.ndarray:
        """All q^d coordinate vectors, row-major odometer order."""
        return decode_vectors(0, self.q**d, self.q, d)

    def __repr__(self):
        return f"FieldSpec(q={self.q})"
