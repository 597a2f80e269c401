"""Conjugacy classes, normal subgroups and Sylow subgroups.

A class table lists the whole group in lex order with the class of each
element, found by passes over the whole listing at once: every element
is labelled with the least index of its orbit under conjugation by the
generators.  It feeds the normal-subgroup lattice, which is searched in
class space: a normal subgroup is a union of classes closed under the
tabled class products (``class_products``), so each member is a bitmask
over the classes, and each mask's group is the table's rows in those
classes, checked closed, with no Schreier-Sims.  Such a group, like a
Sylow subgroup, holds its lex-sorted listing, and its stabilizer chain
is read off the listing only when asked for.  Class tables do not count
anything: counting is a scan of the element blocks
(``derangements.count_nonderangements``).
"""

from dataclasses import dataclass

import numpy as np

from .group import ENUM_CAP, GroupError, PermutationGroup, ResourceCapExceeded, factorize
from .perm import Perm, conjugate_rows, in_listing, invert_rows, lex_keys, lex_sorted, rows_of

# the largest group a class table lists
CLASS_CAP = 10**6


def p_part(n: int, p: int) -> int:
    """Largest power of the prime p dividing n."""
    return p ** dict(factorize(n)).get(p, 0)


def is_prime(p: int) -> bool:
    return factorize(p) == [(p, 1)]


@dataclass(frozen=True)
class ConjugacyClass:
    rep: Perm  # lexicographically least element of the class
    size: int


class ConjugacyClassTable:
    """All conjugacy classes of one group, sorted by (size, rep), with the
    group's elements as lex-sorted rows and, per row, the index of its
    class in that order.

    The given class_of indexes the given classes; it is renumbered when
    they are sorted.
    """

    def __init__(self, group: PermutationGroup, classes: list[ConjugacyClass],
                 rows: np.ndarray, class_of: np.ndarray):
        rank = sorted(range(len(classes)), key=lambda c: (classes[c].size, classes[c].rep.key))
        self.group = group
        self.classes = [classes[c] for c in rank]
        if sum(c.size for c in self.classes) != group.order:
            raise GroupError("class sizes do not sum to the group order")
        renumber = np.empty(len(rank), dtype=np.intp)
        renumber[rank] = np.arange(len(rank))
        self.rows = rows
        self.class_of = renumber[class_of]

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


def conjugacy_classes(group: PermutationGroup, cap: int = CLASS_CAP) -> ConjugacyClassTable:
    """Conjugacy class table of a group of order at most cap.

    The group is listed (over cap it raises ResourceCapExceeded before
    any orbit search) and sorted lexicographically.  Conjugation by each
    generator permutes the listing; its index map is found with one
    search of all conjugates' lex keys.  The classes are the orbits of
    these maps (on a finite set the generators close an orbit under the
    whole group), labelled by their least index: each label is lowered
    to its image's under every map, then shortcut by pointer jumping,
    until nothing changes.  Then labels agree along each cycle of each
    map, so on each orbit; and an index whose label is itself is the
    lex-least element of its class.
    """
    rows = lex_sorted(group.element_rows(cap=cap))
    keys = lex_keys(rows)
    gens = rows_of(group.generators, group.degree)
    # maps[k][x] = index of gens[k]^-1 * rows[x] * gens[k]
    maps = [np.searchsorted(keys, lex_keys(conjugate_rows(rows, g, g_inv)))
            for g, g_inv in zip(gens, invert_rows(gens))]
    index = np.arange(len(rows))
    label = index
    while True:
        last = label
        for f in maps:
            label = np.minimum(label, label[f])
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
        if np.array_equal(label, last):
            break
    reps = np.flatnonzero(label == index)
    sizes = np.bincount(label)[reps]
    classes = [ConjugacyClass(Perm(rows[r].copy(), validate=False), s)
               for r, s in zip(reps.tolist(), sizes.tolist())]
    return ConjugacyClassTable(group, classes, rows, np.searchsorted(reps, label))


# ---------------------------------------------------------------------------
# normal subgroups

def normal_closure(table: ConjugacyClassTable, mask: int) -> PermutationGroup:
    """The normal subgroup that is the union of the classes of mask,
    checked closed under products.

    Its elements are the table's rows in those classes, already
    lex-sorted.  Each of them times the representative of each of its
    classes must be one of them again, found by one search of their lex
    keys (``perm.in_listing``); else GroupError.  That suffices: for x
    and a conjugate y = g^-1 r g of a representative r, x * y is the
    conjugate by g of (g x g^-1) * r, and g x g^-1 lies in the union
    too.  So the union is closed under products, a subgroup, and normal
    as a union of classes.
    """
    classes = _bits(mask)
    inside = np.zeros(len(table), dtype=bool)
    inside[classes] = True
    rows = table.rows[inside[table.class_of]]
    if not inside.all():  # the whole listing is the group
        reps = rows_of([table.classes[c].rep for c in classes], table.group.degree)
        # products[r, x] = rows[x] * reps[r]
        if not in_listing(rows, reps[:, rows].reshape(-1, table.group.degree)).all():
            raise GroupError(f"the classes of mask {mask:#x} are not closed under products")
    return PermutationGroup.from_listing(rows)


def class_products(table: ConjugacyClassTable) -> list[list[int]]:
    """supp[i][j], the bitmask of the classes met by rep_i * C_j.

    C_i * C_j is the union of the conjugates of rep_i * C_j, so it meets
    the same classes; and a product of two normal subsets commutes, so
    the table is symmetric and only j >= i is formed.  The products of
    one rep with the rows of the classes from i on are located in the
    lex-sorted listing, one rep at a time, so at most one listing's
    worth of product rows is alive.
    """
    k = len(table)
    keys = lex_keys(table.rows)
    supp = [[0] * k for _ in range(k)]
    for i, cls in enumerate(table):
        later = table.class_of >= i
        products = table.rows[later][:, cls.rep.images]
        met = np.zeros((k, k), dtype=bool)
        met[table.class_of[later], table.class_of[np.searchsorted(keys, lex_keys(products))]] = True
        for j in range(i, k):
            bits = np.packbits(met[j], bitorder="little").tobytes()
            supp[i][j] = supp[j][i] = int.from_bytes(bits, "little")
    return supp


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def normal_subgroups(group: PermutationGroup, class_cap: int = CLASS_CAP) -> list[PermutationGroup]:
    """Every normal subgroup, sorted by order and then by class mask.

    A normal subgroup is a union of classes closed under products, so
    each one is a bitmask over the class table closed under
    class_products: an atom is the closure of one class and the
    identity, the join of two members the closure of their union,
    nesting is a subset test and equal masks are equal subgroups.  Every
    normal subgroup is the join of its classes' atoms, so closing the
    atoms under joins finds them all.  The join rounds are semi-naive:
    after the first, only pairs with a member new since the last round
    are joined, and a pair is skipped when its union is a member (a
    nested pair, say) or was closed before.

    Bit i of a mask is class i of the table, in its (size, rep) order,
    and members of one order are listed by their masks as integers.
    normal_closure builds each member off the table's listing, once per
    mask, and checks it closed.
    """
    table = conjugacy_classes(group, cap=class_cap)
    sizes = [c.size for c in table]
    supp = class_products(table)
    one = 1 << int(table.class_of[0])  # the identity is the lex-least row

    def close(mask: int, done: int) -> int:
        """The least product-closed union of classes containing mask,
        given that the classes of done are closed among themselves."""
        inside = _bits(mask)
        todo = _bits(mask & ~done)
        for i in todo:  # grows while it is walked
            row = supp[i]
            met = 0
            for j in inside:
                met |= row[j]
            new = _bits(met & ~mask)
            mask |= met
            inside += new
            todo += new
        return mask

    fresh = {close(one | 1 << i, one) for i in range(len(table))}
    masks = fresh | {one}
    unions = set(masks)  # unions of pairs whose closures are known
    while fresh:
        joins = set()
        for a in fresh:
            for b in masks:
                if a | b not in unions:
                    unions.add(a | b)
                    joins.add(close(a | b, a))
        fresh = joins - masks
        masks |= fresh
        unions |= fresh
    order = sorted(masks, key=lambda m: (sum(sizes[c] for c in _bits(m)), m))
    return [normal_closure(table, m) for m in order]


# ---------------------------------------------------------------------------
# Sylow subgroups

# candidates per membership search in sylow_subgroup's normalizer test:
# the first normalizing candidate is usually among the pool's first few
# (over the 9,864 growth rounds of acceptance check c08 its median index
# is 0 and its 90th percentile 7), so a larger block mostly conjugates
# by candidates that are never needed
_NORMALIZER_BLOCK = 64


def p_element_rows(group: PermutationGroup, p: int) -> np.ndarray:
    """All nonidentity elements of p-power order, largest order first.

    In Sym(degree) a p-power order is at most the largest power p^e not
    above the degree, so an element is kept when g^(p^e) is the identity.
    The e p-th-power steps also give each kept row its order: p^j for
    the least j with g^(p^j) the identity, that is the number of its
    powers g^(p^i), i < e, that are not the identity.  The sort on it is
    stable: rows of one order keep their enumeration order.
    """
    if group.order > ENUM_CAP:
        raise ResourceCapExceeded(f"order {group.order} over enumeration cap {ENUM_CAP}")
    e = 0
    while p ** (e + 1) <= group.degree:
        e += 1
    ident = np.arange(group.degree, dtype=np.uint8)
    keep = [np.empty((0, group.degree), dtype=np.uint8)]
    exps = [np.empty(0, dtype=np.intp)]
    for block in group.element_blocks():
        row_start = (np.arange(len(block), dtype=np.intp) * group.degree)[:, None]
        powers = [block]  # g^(p^j) for j = 0..e, by one flat gather per multiplication
        for _ in range(e):
            power = powers[-1]
            step = power + row_start
            for _ in range(p - 1):
                power = power.ravel()[step]
            powers.append(power)
        hit = np.flatnonzero((powers[-1] == ident).all(axis=1))
        exp = np.zeros(len(hit), dtype=np.intp)
        for power in powers[:-1]:
            exp += (power[hit] != ident).any(axis=1)
        keep.append(block[hit[exp > 0]])  # the identity alone has exponent 0
        exps.append(exp[exp > 0])
    rows = np.concatenate(keep, axis=0)
    return rows[np.argsort(-np.concatenate(exps), kind="stable")]


def _first_normalizing(listing: np.ndarray, gens: np.ndarray, pool: np.ndarray) -> np.ndarray | None:
    """The first pool row that conjugates every generator row into the
    lex-sorted listing, or None.  With no generators
    that is the first row, untested: every row normalizes the trivial
    group.  The candidates are tested in blocks, one membership search
    per block."""
    if not len(gens):
        return pool[0] if len(pool) else None
    n = pool.shape[1]
    for lo in range(0, len(pool), _NORMALIZER_BLOCK):
        cands = pool[lo:lo + _NORMALIZER_BLOCK]
        # conj[c, k] = cands[c]^-1 * gens[k] * cands[c]
        conj = cands[np.arange(len(cands))[:, None, None],
                     gens[np.arange(len(gens))[None, :, None], invert_rows(cands)[:, None, :]]]
        hits = in_listing(listing, conj.reshape(-1, n)).reshape(len(cands), len(gens)).all(axis=1)
        if hits.any():
            return cands[np.argmax(hits)]
    return None


def sylow_subgroup(group: PermutationGroup, p: int) -> PermutationGroup:
    """One Sylow p-subgroup, grown inside normalizers.

    A p-element g outside a p-subgroup P that normalizes it gives the
    larger p-group P<g>, and while |P| is short of the full p-part the
    normalizer of P holds such an element, so the loop cannot stall.
    P is held as its lex-sorted element listing, and membership is one
    search of its lex keys.  Each round drops the pool rows already in P
    (the pool only shrinks, as P only grows) and adjoins the first
    remaining row that conjugates the generators adjoined so far into P;
    those generate P, so it normalizes P (in the first round, with none
    adjoined, the first row).  P<g> is the union of the disjoint cosets
    P g^j for j below the least i >= 1 with g^i in P.

    The result is generated by the adjoined rows and holds its listing.
    """
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    target = p_part(group.order, p)
    n = group.degree
    ident = np.arange(n, dtype=np.uint8)
    listing = ident[None, :]
    gens = np.empty((0, n), dtype=np.uint8)
    # big orders first so P grows in few steps
    pool = p_element_rows(group, p) if target > 1 else gens
    while len(listing) < target:
        pool = pool[~in_listing(listing, pool)]
        g = _first_normalizing(listing, gens, pool)
        if g is None:
            break
        powers = [g]  # g^1, g^2, ... up to the identity
        while (powers[-1] != ident).any():
            powers.append(g[powers[-1]])
        i = 1 + int(np.argmax(in_listing(listing, np.array(powers))))
        cosets = [listing] + [power[listing] for power in powers[:i - 1]]
        gens = np.concatenate([gens, g[None, :]])
        listing = lex_sorted(np.concatenate(cosets))
    if len(listing) != target:
        raise GroupError(f"grew a {p}-subgroup of order {len(listing)}, not the p-part {target}")
    return PermutationGroup.from_listing(
        listing, [Perm(g, validate=False) for g in gens], name=f"Sylow_{p}")
