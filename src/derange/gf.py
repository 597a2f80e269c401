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
        self.neg = np.array([self._find_neg(x) for x in range(q)], dtype=np.int64)
        self.inv = np.array([self._find_inv(x) for x in range(q)], dtype=np.int64)

    def _encode(self, digits) -> int:
        x = 0
        for c in reversed(digits):
            x = x * self.p + c
        return x

    def _build_tables(self):
        q, p, e = self.q, self.p, self.e
        add = np.empty((q, q), dtype=np.int64)
        mul = np.empty((q, q), dtype=np.int64)
        # base-p digits of every element, lowest first
        digits = decode_vectors(0, q, p, e)[:, ::-1].tolist()
        for x, dx in enumerate(digits):
            for y, dy in enumerate(digits):
                add[x, y] = self._encode([(a + b) % p for a, b in zip(dx, dy)])
                prod = [0] * (2 * e - 1) if e > 1 else [dx[0] * dy[0] % p]
                if e > 1:
                    for i, a in enumerate(dx):
                        for j, b in enumerate(dy):
                            prod[i + j] = (prod[i + j] + a * b) % p
                    prod = _poly_mod(prod, list(self.modulus), p)
                    prod += [0] * (e - len(prod))
                mul[x, y] = self._encode(prod)
        return add, mul

    def _find_neg(self, x: int) -> int:
        hits = np.nonzero(self.add[x] == 0)[0]
        return int(hits[0])

    def _find_inv(self, x: int) -> int:
        if x == 0:
            return 0  # by convention; never a field statement
        hits = np.nonzero(self.mul[x] == 1)[0]
        return int(hits[0])

    def dot(self, u, v) -> np.ndarray:
        """Componentwise products folded with field addition.

        u, v broadcast along the last axis; returns the scalar products.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        prods = self.mul[u, v]
        acc = prods[..., 0]
        for i in range(1, prods.shape[-1]):
            acc = self.add[acc, prods[..., i]]
        return acc

    def vector_space(self, d: int) -> np.ndarray:
        """All q^d coordinate vectors, row-major odometer order."""
        return decode_vectors(0, self.q**d, self.q, d)

    def __repr__(self):
        return f"FieldSpec(q={self.q})"
