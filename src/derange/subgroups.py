"""Complete subgroup enumeration up to conjugacy, for small parents.

Subgroups are grown breadth first: every subgroup is reachable from the
trivial group by adjoining one element of prime-power order at a time
(any element is the product of its own prime-power powers, so a proper
overgroup always holds such an element outside the smaller group).
Candidates within one double coset H g H generate the same extension,
so one per double coset suffices.

Everything runs in element-index space over a precomputed
multiplication table; the parent order cap keeps the table small.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import row_orders
from .group import GroupError, PermutationGroup, ResourceCapExceeded
from .perm import Perm

ORDER_CAP = 6000


def _encode(rows: np.ndarray, degree: int) -> np.ndarray:
    weights = (degree ** np.arange(degree - 1, -1, -1)).astype(np.int64)
    return rows.astype(np.int64) @ weights


@dataclass
class ElementTable:
    """All elements of a small group in lex order, with index-space
    multiplication, inverses, element orders, and conjugacy class ids."""

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
        n = group.degree
        rows = group.element_rows()
        enc = _encode(rows, n)
        rows = rows[np.argsort(enc)]
        enc = np.sort(enc)
        # identity is the lex-least permutation, so index 0
        if not (rows[0] == np.arange(n, dtype=np.uint8)).all():
            raise GroupError("row encoding did not sort the identity first")

        dtype = np.int16 if m <= 32767 else np.int32
        mult = np.empty((m, m), dtype=dtype)
        for i in range(m):
            # (elem_i * elem_j).images = rows[j][rows[i]], vectorized over j
            mult[i] = np.searchsorted(enc, _encode(rows[:, rows[i]], n))

        inv_rows = np.empty_like(rows)
        ar = np.arange(n, dtype=np.uint8)
        for i in range(m):
            inv_rows[i, rows[i]] = ar
        inv = np.searchsorted(enc, _encode(inv_rows, n)).astype(np.int64)

        orders = row_orders(rows)

        class_id = np.full(m, -1, dtype=np.int64)
        gens = [int(np.searchsorted(enc, _encode(g.images[None, :], n)[0])) for g in group.generators]
        nxt = 0
        for x in range(m):
            if class_id[x] >= 0:
                continue
            class_id[x] = nxt
            frontier = [x]
            while frontier:
                fresh = []
                for e in frontier:
                    for y in gens:
                        c = int(mult[mult[inv[y], e], y])
                        if class_id[c] < 0:
                            class_id[c] = nxt
                            fresh.append(c)
                frontier = fresh
            nxt += 1
        return cls(group, rows, mult, inv, orders, class_id)

    @property
    def size(self) -> int:
        return len(self.rows)

    def perm(self, i: int) -> Perm:
        return Perm(self.rows[i], validate=False)

    def closure(self, gens: list[int]) -> np.ndarray:
        """Sorted element indices of the subgroup the indices generate."""
        seen = np.zeros(self.size, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            cur = np.asarray(frontier)
            frontier = []
            for g in gens:
                prod = np.unique(self.mult[cur, g])
                fresh = prod[~seen[prod]]
                if fresh.size:
                    seen[fresh] = True
                    frontier.extend(fresh.tolist())
        return np.nonzero(seen)[0]

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


def _is_prime_power(o: int) -> bool:
    if o < 2:
        return False
    p = 2
    while p * p <= o:
        if o % p == 0:
            while o % p == 0:
                o //= p
            return o == 1
        p += 1
    return True


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
    (order, element indices).  Includes the trivial group and the parent."""
    et = table if table is not None else ElementTable.of(parent, cap)
    m = et.size
    pp_mask = np.array([_is_prime_power(int(o)) for o in et.orders])

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
    frontier = [0]

    # seed with one cyclic subgroup per conjugacy class of elements
    for c in range(int(et.class_id.max()) + 1):
        x = int(np.argmax(et.class_id == c))
        if x == 0:
            continue
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
            while pool.any():
                g = int(np.argmax(pool))
                idx = et.closure(H.gen_indices + [g])
                if add(idx, H.gen_indices + [g]):
                    fresh.append(len(classes) - 1)
                hg = et.mult[h_idx, g]
                pool[et.mult[hg[:, None], h_idx[None, :]].ravel()] = False
        frontier = fresh

    whole = np.arange(m, dtype=np.int64)
    add(whole, [int(np.searchsorted(_encode(et.rows, parent.degree), _encode(g.images[None, :], parent.degree)[0])) for g in parent.generators])

    classes.sort(key=lambda c: (c.order, c.indices.tobytes()))
    return classes


def subgroup_class_groups(
    parent: PermutationGroup,
    table: ElementTable | None = None,
    cap: int = ORDER_CAP,
) -> list[PermutationGroup]:
    """Subgroup class representatives as permutation groups."""
    et = table if table is not None else ElementTable.of(parent, cap)
    out = []
    for c in subgroup_classes(parent, et, cap):
        gens = [et.perm(i) for i in c.gen_indices]
        out.append(PermutationGroup(parent.degree, gens))
    return out
