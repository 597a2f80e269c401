"""Permutations of {0, ..., m-1} stored as image arrays.

The convention throughout is the right action x^g = images[x], and
composition reads left to right: (f * g) maps x to g(f(x)).  Degrees up
to MAX_DEGREE = 250 are the supported envelope; images are uint8 so
byte-level comparisons double as lexicographic order on image tuples.
"""

from __future__ import annotations

from math import lcm

import numpy as np

MAX_DEGREE = 250


class PermError(ValueError):
    pass


class GroupError(ValueError):
    pass


class Perm:
    """An immutable permutation; ``images[i]`` is the image of point i."""

    __slots__ = ("images", "key")

    def __init__(self, images, validate: bool = True):
        if validate:
            # checked before the uint8 cast, which would wrap or overflow
            src = np.asarray(images)
            if src.ndim != 1 or src.size == 0 or src.size > MAX_DEGREE:
                raise PermError(f"bad image array of shape {src.shape}")
            if src.dtype.kind not in "iu":
                raise PermError(f"images must be integers, not {src.dtype}")
            hit = np.zeros(src.size, dtype=bool)
            if src.min() >= 0 and src.max() < src.size:
                hit[src] = True
            if not hit.all():
                raise PermError(f"images are not a bijection on 0..{src.size - 1}")
        arr = np.asarray(images, dtype=np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "images", arr)
        object.__setattr__(self, "key", arr.tobytes())

    # construction helpers

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(np.arange(degree, dtype=np.uint8), validate=False)

    @staticmethod
    def from_cycles(degree: int, *cycles) -> "Perm":
        """Build a permutation from disjoint cycles, e.g. (0,1,2)."""
        images = np.arange(degree, dtype=np.uint8)
        seen = set()
        for cyc in cycles:
            for pt in cyc:
                if pt in seen:
                    raise PermError(f"point {pt} repeated across cycles")
                seen.add(pt)
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if not 0 <= a < degree:
                    raise PermError(f"point {a} out of range for degree {degree}")
                images[a] = b
        return Perm(images)

    # arithmetic

    @property
    def degree(self) -> int:
        return self.images.size

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        if other.images.size != self.images.size:
            raise PermError("degree mismatch in composition")
        return Perm(other.images[self.images], validate=False)

    def inverse(self) -> "Perm":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.images.size, dtype=np.uint8)
        return Perm(inv, validate=False)

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    # structure

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.images.size)).all())

    def cycles(self, singletons: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated to start at its least point."""
        out = []
        seen = np.zeros(self.degree, dtype=bool)
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = int(self.images[start])
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = int(self.images[nxt])
            if len(cyc) > 1 or singletons:
                out.append(tuple(cyc))
        return out

    @property
    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(singletons=True)))

    # hashing and ordering (lexicographic on image tuples)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.key == other.key

    def __lt__(self, other: "Perm"):
        return self.key < other.key

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return f"Perm.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Perm[{body}]"


# ---------------------------------------------------------------------------
# batched helpers on (m, degree) uint8 row arrays

def rows_of(perms, degree: int) -> np.ndarray:
    """The images of the perms as one (m, degree) row array; m may be 0."""
    if not perms:
        return np.empty((0, degree), dtype=np.uint8)
    return np.array([p.images for p in perms], dtype=np.uint8)


def _img(g) -> np.ndarray:
    return g.images if isinstance(g, Perm) else np.asarray(g, dtype=np.uint8)


def invert_rows(rows: np.ndarray) -> np.ndarray:
    m, n = rows.shape
    inv = np.empty_like(rows)
    inv[np.arange(m)[:, None], rows] = np.arange(n, dtype=rows.dtype)
    return inv


def conjugate_rows(rows: np.ndarray, g, g_inv=None) -> np.ndarray:
    """Row-wise conjugates g^-1 * row * g."""
    g = _img(g)
    if g_inv is None:
        g_inv = np.empty_like(g)
        g_inv[g] = np.arange(g.size, dtype=np.uint8)
    else:
        g_inv = _img(g_inv)
    return g[rows[:, g_inv]]


def fixed_points(rows: np.ndarray, points) -> np.ndarray:
    """mask[i, j] = row i fixes the j-th of the given points."""
    pts = np.asarray(points, dtype=np.intp)
    return rows[:, pts] == pts.astype(rows.dtype)


def fixes_any(rows: np.ndarray, points) -> np.ndarray:
    """mask[i] = row i fixes at least one of the given points."""
    return fixed_points(rows, points).any(axis=1)


def least_derangement(rows: np.ndarray, points) -> Perm | None:
    """The lex-least row that fixes none of the points, or None."""
    rows = rows[~fixes_any(rows, points)]
    return Perm(lex_sorted(rows)[0], validate=False) if rows.size else None


def lex_order(rows: np.ndarray) -> np.ndarray:
    """Indices that put the rows of a 2-D array in lexicographic order
    (a stable sort)."""
    return np.lexsort(rows.T[::-1])


def lex_sorted(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array in lexicographic order (a stable sort)."""
    return rows[lex_order(rows)]


def lex_keys(rows: np.ndarray) -> np.ndarray:
    """One np.void key per row of an (m, n) uint8 row array, at any degree.

    Keys compare bytewise, so they sort like the rows do
    lexicographically, and lex-sorted rows are found by np.searchsorted
    on their keys.  The keys are a view of the rows when those are
    contiguous.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def cayley_table(gen_rows: np.ndarray) -> np.ndarray:
    """The (m, m) table of a group acting regularly on points 0..m-1,
    the identity at 0: table[y, x] is the point of x*y, so row y is right
    multiplication by the element at y.  Row i of gen_rows is the row of
    a generator, which sits at point gen_rows[i, 0].  Filled breadth
    first from the identity: y = x*s right-multiplies by x and then by s,
    so its row is one gather of s's row.  Raises GroupError when the
    generators miss a point.
    """
    m = gen_rows.shape[1]
    dtype = np.int16 if m <= 32767 else np.int32
    gens = gen_rows.astype(dtype)
    table = np.empty((m, m), dtype=dtype)
    table[0] = np.arange(m)
    step, rows = memoryview(gens), list(gens)
    reached = bytearray(m)
    reached[0] = 1
    order = [0]
    for x in order:  # grows while it is walked
        for s, gen in enumerate(rows):
            y = step[s, x]
            if not reached[y]:
                reached[y] = 1
                gen.take(table[x], out=table[y])
                order.append(y)
    if len(order) < m:
        raise GroupError(f"the group's generators reach {len(order)} of its {m} listed elements")
    return table


def in_listing(listing: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mask[i] = row i is one of the rows of a lex-sorted listing: one
    search of the listing's lex keys."""
    keys, probe = lex_keys(listing), lex_keys(rows)
    return keys.take(np.searchsorted(keys, probe), mode="clip") == probe
