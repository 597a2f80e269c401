"""Conjugacy classes, normal subgroups and Sylow subgroups.

Class tables feed the normal-subgroup lattice: a normal subgroup is a
union of classes, hence the join of the normal closures of the class
representatives it contains.  They do not count anything: a class table
lists the whole group first, so counting is a scan of the element
blocks (``derangements.count_nonderangements``).
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import row_orders
from .group import BSGS, ENUM_CAP, GroupError, PermutationGroup, ResourceCapExceeded, factorize
from .perm import Perm, conjugate_rows, lex_sorted, rows_of


def p_part(n: int, p: int) -> int:
    """Largest power of the prime p dividing n."""
    return p ** dict(factorize(n)).get(p, 0)


def is_prime(p: int) -> bool:
    return factorize(p) == [(p, 1)]


def class_orbit_rows(group: PermutationGroup, rep: Perm) -> np.ndarray:
    """The full conjugacy class of rep as lex-sorted uint8 rows.

    Breadth-first orbit under conjugation by the generators; on a finite
    set that closes the orbit under the whole group.
    """
    seen = {rep.key}
    frontier = rep.images[None, :]
    blocks = [frontier]
    pairs = [(g, g.inverse()) for g in group.generators]
    while frontier.size:
        new = []
        for g, g_inv in pairs:
            for row in conjugate_rows(frontier, g, g_inv):
                k = row.tobytes()
                if k not in seen:
                    seen.add(k)
                    new.append(row)
        if not new:
            break
        frontier = np.array(new, dtype=np.uint8)
        blocks.append(frontier)
    return lex_sorted(np.concatenate(blocks, axis=0))


@dataclass(frozen=True)
class ConjugacyClass:
    rep: Perm  # lexicographically least element of the class
    size: int


class ConjugacyClassTable:
    """All conjugacy classes of one group, sorted by (size, rep)."""

    def __init__(self, group: PermutationGroup, classes: list[ConjugacyClass]):
        self.group = group
        self.classes = sorted(classes, key=lambda c: (c.size, c.rep.key))
        if sum(c.size for c in self.classes) != group.order:
            raise GroupError("class sizes do not sum to the group order")

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


def conjugacy_classes(group: PermutationGroup, cap: int = 10**6) -> ConjugacyClassTable:
    """Conjugacy class table of a group of order at most cap.

    The group is listed (over cap it raises ResourceCapExceeded before
    any orbit search) and walked in lex order; each element not yet seen
    has its class closed exactly by orbit search, until the class
    equation accounts for the whole order.
    """
    rows = group.element_rows(cap=cap)
    seen: set[bytes] = set()
    classes = []
    covered = 0
    for el in lex_sorted(rows):
        if covered == group.order:
            break
        if el.tobytes() in seen:
            continue
        orbit = class_orbit_rows(group, Perm(el, validate=False))
        seen.update(r.tobytes() for r in orbit)
        classes.append(ConjugacyClass(Perm(orbit[0].copy(), validate=False), len(orbit)))
        covered += len(orbit)
    return ConjugacyClassTable(group, classes)


# ---------------------------------------------------------------------------
# normal subgroups

def normal_closure(group: PermutationGroup, seeds) -> PermutationGroup:
    """Smallest normal subgroup of group containing the seed elements.

    The queue is a stack of rows.  One batched membership test finds the
    topmost row outside the closure so far; the members above it are
    discarded, since a member stays one as the closure grows, and that
    row is adjoined and its conjugates by the generators pushed.  The
    extensions are those of popping and adjoining one row at a time.
    """
    b = BSGS(group.degree)
    pairs = [(g, g.inverse()) for g in group.generators]
    queue = rows_of(list(seeds), group.degree)
    while len(queue):
        outside = np.flatnonzero(~b.contains_rows(queue))
        if not outside.size:
            break
        top = outside[-1]
        h = queue[top]
        b.extend(Perm(h, validate=False))
        queue = np.concatenate(
            [queue[:top]] + [conjugate_rows(h[None, :], g, g_inv) for g, g_inv in pairs]
        )
    return PermutationGroup.from_chain(b)


def normal_subgroups(group: PermutationGroup, class_cap: int = 10**6) -> list[PermutationGroup]:
    """Every normal subgroup, smallest order first.

    A normal subgroup is a union of classes, hence the join of the
    normal closures of the classes it contains; closing the single-class
    closures under joins therefore finds all of them.

    The closure under joins is semi-naive: after the first round only
    pairs with a member new since the previous round are joined, since
    every old pair was joined a round earlier, and a pair where one side
    contains the other is skipped, since its join is that side.  Neither
    skip can lose a subgroup, so the kept generator lists are those of
    joining every pair every round.
    """
    table = conjugacy_classes(group, cap=class_cap)
    atoms = []
    for cls in table:
        if cls.rep.is_identity():
            continue
        atoms.append(normal_closure(group, [cls.rep]))
    lattice: dict[int, list[PermutationGroup]] = {}

    def add(h: PermutationGroup) -> bool:
        bucket = lattice.setdefault(h.order, [])
        for other in bucket:
            if h.same_group(other):
                return False
        bucket.append(h)
        return True

    trivial = PermutationGroup(group.degree, [], name="1")
    add(trivial)
    for a in atoms:
        add(a)
    out = [h for bucket in lattice.values() for h in bucket]
    fresh = {id(h) for h in out}
    while fresh:
        added = set()
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                if id(a) not in fresh and id(b) not in fresh:
                    continue
                if _nested(a, b):
                    continue
                join = normal_closure(group, a.generators + b.generators)
                if add(join):
                    added.add(id(join))
        fresh = added
        out = [h for bucket in lattice.values() for h in bucket]
    if not any(h.order == group.order for h in out):
        out.append(PermutationGroup(group.degree, group.generators, name=group.name))
    out.sort(key=lambda h: (h.order, [g.key for g in h.generators]))
    return out


def _nested(a: PermutationGroup, b: PermutationGroup) -> bool:
    """True when one of a, b contains the other: Lagrange, then a sift."""
    small, big = (a, b) if a.order <= b.order else (b, a)
    return big.order % small.order == 0 and small.is_subgroup_of(big)


# ---------------------------------------------------------------------------
# Sylow subgroups


def p_element_rows(group: PermutationGroup, p: int) -> np.ndarray:
    """All nonidentity elements of p-power order, largest order first.

    In Sym(degree) a p-power order is at most the largest power p^e not
    above the degree, so an element is kept when g^(p^e) is the identity.
    Only the kept rows get their orders computed, for a stable sort: rows
    of one order keep their enumeration order.
    """
    if group.order > ENUM_CAP:
        raise ResourceCapExceeded(f"order {group.order} over enumeration cap {ENUM_CAP}")
    e = 0
    while p ** (e + 1) <= group.degree:
        e += 1
    ident = np.arange(group.degree, dtype=np.uint8)
    keep = [np.empty((0, group.degree), dtype=np.uint8)]
    for block in group.element_blocks():
        row_start = (np.arange(len(block), dtype=np.intp) * group.degree)[:, None]
        power = block  # raised to the p-th power e times, by one flat gather per step
        for _ in range(e):
            step = power + row_start
            for _ in range(p - 1):
                power = power.ravel()[step]
        hit = (power == ident).all(axis=1) & (block != ident).any(axis=1)
        keep.append(block[hit])
    rows = np.concatenate(keep, axis=0)
    return rows[np.argsort(-row_orders(rows), kind="stable")]


def sylow_subgroup(group: PermutationGroup, p: int) -> PermutationGroup:
    """One Sylow p-subgroup, grown inside normalizers.

    A p-element g outside a p-subgroup P that normalizes it gives the
    larger p-group P<g>, and while |P| is short of the full p-part the
    normalizer of P holds such an element, so the loop cannot stall.
    Each round drops the pool rows already in P (the pool only shrinks,
    as P only grows) and adjoins the first remaining row whose
    conjugates of P's strong generators all lie in P.
    """
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    target = p_part(group.order, p)
    b = BSGS(group.degree)
    if target == 1:
        return PermutationGroup.from_chain(b, name=f"Sylow_{p}")
    # big orders first so the chain grows in few steps
    pool = p_element_rows(group, p)
    while b.order < target:
        pool = pool[~b.contains_rows(pool)]
        gens = rows_of(b.strong_gens, group.degree)
        g = next((row for row in pool if b.contains_rows(conjugate_rows(gens, row)).all()), None)
        if g is None:
            break
        b.extend(Perm(g, validate=False))
    if b.order != target:
        raise GroupError(f"grew a {p}-subgroup of order {b.order}, not the p-part {target}")
    return PermutationGroup.from_chain(b, name=f"Sylow_{p}")
