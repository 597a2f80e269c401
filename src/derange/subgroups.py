"""Complete subgroup enumeration up to conjugacy, for small parents.

Subgroups are grown breadth first: every subgroup is reachable from the
trivial group by adjoining one element of prime-power order at a time
(any element is the product of its own prime-power powers, so a proper
overgroup always holds such an element outside the smaller group).
Candidates within one double coset H g H generate the same extension,
and for n in the normalizer N(H) the conjugate g^n gives <H, g>^n, a
conjugate extension; so one candidate per N(H)-orbit of double cosets
suffices.  Taking the first of each orbit in index order finds the same
classes and representatives as trying every double coset.

Everything runs in element-index space over a multiplication table
held column by column, column y being right multiplication by element
y: each generator's column is found by one search of lex keys, and
every other column is one gather of two columns already filled
(``perm.cayley_table``, which also fills quotient tables).  Each
candidate <H, g> is closed coset by coset from H, and stops once it
holds more than half the parent.  The parent order cap keeps the table
small.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import row_orders
from .group import GroupError, PermutationGroup, ResourceCapExceeded, factorize
from .perm import Perm, cayley_table, invert_rows, lex_keys, lex_order, rows_of
from .structure import conjugacy_classes

ORDER_CAP = 6000


def table_closure(mult: np.ndarray, gens, base=None) -> np.ndarray:
    """Sorted indices of the subgroup generated by gens, over a
    multiplication table with mult[x, g] = x*g and 0 the identity.

    base, when given, holds the indices of a subgroup H of <gens>;
    without it H is trivial.  The subgroup is grown as a union of right
    cosets H*r (Dimino's algorithm): for each representative r, in the
    order found, and each generator s, r*s lies in a coset already in or
    starts a new one, H*(r*s), adjoined by reading column r*s at H.  The
    union is then closed under right multiplication by the generators.
    By Lagrange's theorem a subgroup holding more than half the elements
    is the whole group, so the walk stops there.  The columns are the
    rows of mult.T, which is C-contiguous for the tables built here.
    """
    m = len(mult)
    col = memoryview(mult.T)  # col[s, x] = x*s
    h = [0] if base is None else np.asarray(base).tolist()
    seen = np.zeros(m, dtype=bool)
    seen[h] = True
    found = memoryview(seen)
    size = len(h)
    gens = [int(s) for s in gens]
    reps = [0]
    for r in reps:  # grows while it is walked
        for s in gens:
            x = col[s, r]
            if not found[x]:
                size += len(h)
                if 2 * size > m:
                    return np.arange(m)
                for y in h:
                    found[col[x, y]] = True
                reps.append(x)
    return np.flatnonzero(seen)


@dataclass
class ElementTable:
    """All elements of a small group in lex order, with index-space
    multiplication, inverses, element orders, and conjugacy class ids.

    The listing and the class ids are those of the group's class table
    (structure.conjugacy_classes), and elements are located by their lex
    keys, so any degree is accepted.  The identity is the lex-least
    element, so index 0.
    """

    group: PermutationGroup
    rows: np.ndarray = field(repr=False)
    mult: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)
    orders: np.ndarray = field(repr=False)
    class_id: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, group: PermutationGroup, cap: int = ORDER_CAP) -> "ElementTable":
        m = group.order
        if m > cap:
            raise ResourceCapExceeded(f"group order {m} over element table cap {cap}")
        gen_rows = rows_of(group.generators, group.degree)
        # a group given by its listing has the generators its caller
        # gave; the class table and the columns below trust them
        if not group.contains_rows(gen_rows).all():
            raise GroupError("a generator of the group is not in its listing")
        table = conjugacy_classes(group, cap=cap)
        rows = table.rows
        # gen_cols[i, x] = index of x*g_i, whose images are g_i[rows[x]]
        gen_cols = np.searchsorted(lex_keys(rows), lex_keys(gen_rows[:, rows].reshape(-1, group.degree)))
        # cols[y, x] = index of x*y, so mult[x, y] is its transposed view
        cols = cayley_table(gen_cols.reshape(len(gen_rows), m))
        inv = np.empty(m, dtype=np.int64)
        inv[lex_order(invert_rows(rows))] = np.arange(m)
        return cls(group, rows, cols.T, inv, row_orders(rows), table.class_of)

    @property
    def size(self) -> int:
        return len(self.rows)

    def perm(self, i: int) -> Perm:
        return Perm(self.rows[i], validate=False)

    def index(self, g: Perm) -> int:
        """Index of an element of the group."""
        if g.degree != self.group.degree:
            raise GroupError(f"permutation of degree {g.degree}, not the group's {self.group.degree}")
        i = int(np.searchsorted(lex_keys(self.rows), lex_keys(g.images[None, :]))[0])
        if i == self.size or (self.rows[i] != g.images).any():
            raise GroupError("permutation is not an element of the table's group")
        return i

    def closure(self, gens: list[int], base: np.ndarray | None = None) -> np.ndarray:
        """Sorted element indices of the subgroup the indices generate;
        base, when given, lists a subgroup of it to grow from."""
        return table_closure(self.mult, gens, base)

    def conjugators(self, gens: list[int], target_sorted: np.ndarray) -> np.ndarray:
        """All y with every generator conjugate y^-1 g y inside target."""
        m = self.size
        ys = np.arange(m)
        ok = np.ones(m, dtype=bool)
        for g in gens:
            conj = self.mult[self.mult[self.inv, g], ys]
            pos = np.searchsorted(target_sorted, conj)
            pos = np.minimum(pos, len(target_sorted) - 1)
            ok &= target_sorted[pos] == conj
        return ys[ok]


@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: sorted element indices of the
    representative plus a generating set of indices."""

    indices: np.ndarray
    gen_indices: list[int]

    @property
    def order(self) -> int:
        return len(self.indices)


def subgroup_classes(
    parent: PermutationGroup,
    table: ElementTable | None = None,
    cap: int = ORDER_CAP,
) -> list[SubgroupClass]:
    """Every subgroup of the parent, one per conjugacy class, sorted by
    (order, element indices).  Includes the trivial group and the parent.

    Each frontier subgroup H is extended by prime-power candidates g in
    increasing index order.  After g is tried, its whole N(H)-orbit of
    double cosets H g^n H is dropped: H^n = H gives <H, g^n> = <H, g>^n,
    a conjugate that the dedup would reject anyway.  The tried g is the
    least of its orbit still in the pool, so the classes found, their
    representatives and their generator lists are those of trying every
    double coset.

    A table passed in must be the parent's: a table of another group
    raises GroupError.
    """
    et = table if table is not None else ElementTable.of(parent, cap)
    m = et.size
    if et.group.degree != parent.degree or m != parent.order:
        raise GroupError(
            f"element table of a degree-{et.group.degree} group of order {m}, "
            f"not the parent's degree {parent.degree} and order {parent.order}"
        )
    parent_gens = [et.index(g) for g in parent.generators]
    prime_power_orders = [o for o in sorted(set(et.orders.tolist())) if len(factorize(o)) == 1]
    pp_mask = np.isin(et.orders, prime_power_orders)

    classes: list[SubgroupClass] = []
    buckets: dict[tuple, list[int]] = {}
    seen_sets: set[bytes] = set()

    def invariant(idx: np.ndarray) -> tuple:
        return (len(idx), np.sort(et.class_id[idx]).tobytes())

    def add(idx: np.ndarray, gens: list[int]) -> bool:
        key = idx.tobytes()
        if key in seen_sets:
            return False
        seen_sets.add(key)
        inv_key = invariant(idx)
        bucket = buckets.setdefault(inv_key, [])
        for ci in bucket:
            other = classes[ci]
            cand = et.conjugators(gens, other.indices)
            if cand.size:
                return False
        bucket.append(len(classes))
        classes.append(SubgroupClass(idx, gens))
        return True

    triv = np.array([0], dtype=np.int64)
    add(triv, [])
    frontier = []

    # seed with one cyclic subgroup per conjugacy class of elements, from
    # each class's first row, in listing order; the identity's is row 0.
    # These are all the trivial group's extensions, so it is not on the
    # frontier
    first = np.full(int(et.class_id.max()) + 1, m)
    np.minimum.at(first, et.class_id, np.arange(m))
    for x in np.sort(first)[1:].tolist():
        idx = et.closure([x])
        if add(idx, [x]):
            frontier.append(len(classes) - 1)

    while frontier:
        fresh = []
        for ci in frontier:
            H = classes[ci]
            if 2 * H.order >= m:
                continue
            h_idx = H.indices
            in_h = np.zeros(m, dtype=bool)
            in_h[h_idx] = True
            pool = pp_mask & ~in_h
            norm = et.conjugators(H.gen_indices, h_idx)
            norm_inv = et.inv[norm]
            while pool.any():
                g = int(np.argmax(pool))
                idx = et.closure(H.gen_indices + [g], h_idx)
                if add(idx, H.gen_indices + [g]):
                    fresh.append(len(classes) - 1)
                # g's N(H)-orbit is closed under conjugation by H, so
                # H x H = H x over it and one product clears the orbit
                orbit = np.zeros(m, dtype=bool)
                orbit[et.mult[et.mult[norm_inv, g], norm]] = True
                pool[et.mult[h_idx[:, None], np.flatnonzero(orbit)[None, :]].ravel()] = False
        frontier = fresh

    whole = np.arange(m, dtype=np.int64)
    add(whole, parent_gens)

    classes.sort(key=lambda c: (c.order, c.indices.tobytes()))
    return classes
