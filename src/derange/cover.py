"""Hyperplane covers of GF(q)^d.

Counts the fully-nonzero vectors on a hyperplane (exact closed form
plus a dumb exhaustive oracle), checks the two cover conditions (union
is everything, intersection is zero), searches for minimum covers and
builds the coordinate-plus-pencil cover of size d+q-1 that meets the
lower bound.  Both conditions come from one elimination over GF(q)
per normal set, in ``_kernels.cover_all_scan``: the intersection is zero
when the normals have rank d, and the union is decided by a scan of the
(q-1)^r vectors whose coordinates in the pivot normals are all nonzero.
ENUM_CAP bounds every listing of vectors: the (q-1)^r of that scan, and
the q^d that good_count_bruteforce scans and min_cover_search draws its
normals from.

A cover has d independent normals, and some g in GL(d, q) maps them to
the unit normals e_1..e_d, keeping covering, trivial intersection and
size: so min_cover_search proves minimality on sets holding e_1..e_d.
"""

from dataclasses import dataclass
from itertools import combinations, count

import numpy as np

from ._kernels import cover_all_scan, good_count_scan
from .gf import FieldError, FieldSpec, factor_prime_power
from .group import ENUM_CAP, ResourceCapExceeded

SEARCH_BUDGET = 10**6


def good_count_formula(q: int, d: int, k: int) -> int:
    """Fully-nonzero solutions of a.v = 0 when a has k nonzero coords."""
    factor_prime_power(q)  # raises unless q is a prime power
    if not (1 <= k <= d):
        raise FieldError(f"need 1 <= k <= d, got k={k}, d={d}")
    return (q - 1) ** (d - k) * d_sequences(q, k)[0]


def d_sequences(q: int, j: int) -> tuple[int, int]:
    """(D0(j), D1(j)): good solutions of sum a_i x_i = m for m=0 / m!=0."""
    if j < 1:
        raise FieldError(f"need j >= 1, got {j}")
    num1 = (q - 1) ** j - (-1) ** j
    if num1 % q:
        raise ArithmeticError("D1 closed form produced a non-integer; bug")
    d1 = num1 // q
    num0 = (q - 1) ** (j - 1) - (-1) ** (j - 1)
    d0 = (q - 1) * (num0 // q)
    if num0 % q:
        raise ArithmeticError("D0 closed form produced a non-integer; bug")
    return d0, d1


@dataclass(frozen=True)
class Hyperplane:
    """U = {v : normal . v = 0}."""

    normal: tuple[int, ...]

    @staticmethod
    def make(normal) -> "Hyperplane":
        tup = tuple(int(x) for x in normal)
        if not any(tup):
            raise FieldError("hyperplane normal must be nonzero")
        return Hyperplane(tup)


def _field_coords(field: FieldSpec, normal) -> tuple[int, ...]:
    """The normal's coordinates, each an element 0..q-1 of the field, or
    FieldError: a coordinate outside is never wrapped into the field."""
    vec = tuple(int(x) for x in normal)
    bad = [x for x in vec if not 0 <= x < field.q]
    if bad:
        raise FieldError(f"normal coordinate {bad[0]} is not an element of GF({field.q})")
    return vec


def canonical_normal(field: FieldSpec, normal) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1; a coordinate outside
    0..q-1 raises FieldError."""
    vec = _field_coords(field, normal)
    for x in vec:
        if x:
            s = int(field.inv[x])
            return tuple(int(field.mul[s, y]) for y in vec)
    raise FieldError("zero vector has no canonical normal")


def all_canonical_normals(field: FieldSpec, d: int) -> list[tuple[int, ...]]:
    """One normal per hyperplane, first nonzero coord 1, lex sorted."""
    vecs = [tuple(int(x) for x in vec) for vec in field.vector_space(d)]
    return [vec for vec in vecs if next((x for x in vec if x), 0) == 1]


@dataclass
class CoverInstance:
    field: FieldSpec
    d: int
    hyperplanes: list[Hyperplane]
    covers_all: bool | None = None
    trivial_intersection: bool | None = None

    def normal_rows(self) -> np.ndarray:
        """The normals as an (s, d) array; FieldError unless each is d
        elements 0..q-1 of the field, so none is wrapped or indexed past
        the field tables."""
        rows = [h.normal for h in self.hyperplanes]
        try:  # ragged or wrong-length normals, or a coordinate past int64
            out = np.array(rows, dtype=np.int64).reshape(len(rows), self.d)
        except (ValueError, OverflowError):
            for normal in rows:
                _field_coords(self.field, normal)  # raises for a coordinate past int64
            raise FieldError(f"normal length does not match d={self.d}") from None
        # viewed unsigned, a negative coordinate is over q too
        if out.size and out.view(np.uint64).max() >= self.field.q:
            for normal in rows:
                _field_coords(self.field, normal)  # raises for the first bad one
        return out


def make_cover(q: int, d: int, normals) -> CoverInstance:
    field = FieldSpec(q)
    canon = sorted({canonical_normal(field, n) for n in normals})
    for cn in canon:
        if len(cn) != d:
            raise FieldError(f"normal length {len(cn)} does not match d={d}")
    return CoverInstance(field, d, [Hyperplane.make(cn) for cn in canon])


def check_cover(cover: CoverInstance) -> tuple[bool, bool, bool]:
    """(covers_all, trivial_intersection, bound_ok); sets the instance flags.

    bound_ok is vacuously true unless both conditions hold, in which case
    the size bound 2 <= d <= |planes| - q + 1 must follow.
    """
    q, d = cover.field.q, cover.d
    covers_all, rank = cover_all_scan(cover.field, d, cover.normal_rows())
    trivial = rank == d
    cover.covers_all = covers_all
    cover.trivial_intersection = trivial
    bound_ok = not (covers_all and trivial) or 2 <= d <= len(cover.hyperplanes) - q + 1
    return covers_all, trivial, bound_ok


def _check_space_cap(q: int, d: int) -> None:
    if q**d > ENUM_CAP:
        raise ResourceCapExceeded(f"q^d = {q**d} exceeds enumeration cap {ENUM_CAP}")


def good_count_bruteforce(a: Hyperplane, field: FieldSpec, d: int | None = None) -> int:
    """Exact count by scanning all q^d vectors; oracle for the formula."""
    if d is None:
        d = len(a.normal)
    if len(a.normal) != d:
        raise FieldError("normal length does not match dimension")
    _field_coords(field, a.normal)
    _check_space_cap(field.q, d)
    return good_count_scan(field, d, np.array(a.normal, dtype=np.int64))


def min_cover_search(q: int, d: int, budget: int = SEARCH_BUDGET) -> tuple[int, CoverInstance]:
    """Smallest set meeting both cover conditions, first witness in
    (size, lex) order; budget bounds the subsets checked in all.

    Some g in GL(d, q) maps a cover's d independent normals to e_1..e_d,
    so the minimum is the least s at which e_1..e_d and s-d other normals
    cover (below d the rank is short); the witness is then the first
    s-subset in lex order that covers.
    """
    _check_space_cap(q, d)  # all_canonical_normals lists GF(q)^d
    field = FieldSpec(q)
    planes = [Hyperplane.make(n) for n in all_canonical_normals(field, d)]
    basis = [h for h in planes if h.normal.count(0) == d - 1]  # canonical units
    rest = [h for h in planes if h not in basis]
    examined = count(1)

    def first_cover(combos) -> CoverInstance | None:
        for combo in combos:
            if next(examined) > budget:
                raise ResourceCapExceeded(f"cover search exceeded budget {budget}")
            cover = CoverInstance(field, d, list(combo))
            covers_all, trivial, bound_ok = check_cover(cover)
            if covers_all and trivial:
                if not bound_ok:
                    raise ArithmeticError("cover found below the size bound; bug")
                return cover

    for size in range(d, len(planes) + 1):
        if first_cover(basis + list(more) for more in combinations(rest, size - d)) is not None:
            cover = first_cover(combinations(planes, size))
            if cover is None:
                raise ArithmeticError(f"no cover of size {size} in lex order; bug")
            return size, cover
    raise ResourceCapExceeded("no cover found; dimension or field too small")


def tight_cover_construct(q: int, d: int) -> CoverInstance:
    """Coordinate hyperplanes plus the pencil through x1=x2=0.

    The pencil contributes the q+1 hyperplanes containing that
    codimension-2 space; two of them are coordinate hyperplanes already,
    so the whole set has size d+q-1.
    """
    if d < 2:
        raise FieldError(f"need d >= 2, got {d}")
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    pencil = [[1, t] + [0] * (d - 2) for t in range(1, q)]
    cover = make_cover(q, d, units + pencil)
    if len(cover.hyperplanes) != d + q - 1:
        raise ArithmeticError("tight construction has the wrong size; bug")
    return cover
