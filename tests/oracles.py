"""Shared brute-force oracles for the test suite.

Everything here trades speed for obvious correctness: no conjugacy
shortcuts, no lattice pruning, just exhaustive closure growth.  Also the
one-element helpers the tests share (a group's elements as ``Perm``s,
conjugation, the derangement test, equality of two subgroups, the direct
product of two groups, a block system's blocks and a class table's
sizes, and a quotient model's coset as rows), the lex-least coset key
and the quotient model enumerated with it, the class-sum count of
non-derangements that the scan must match, the reference versions of
the class table, the chain-grown Sylow subgroup and the plain reading
of its certificate facts, the stabilizer chain, the normal closure
grown by Schreier-Sims (batched, and one element at a time), a quotient
model's greedy generating points, the normal-subgroup lattice (the plain
round loop, and the class-mask lattice with a Schreier-Sims chain per
member), the subgroup-lattice scan, the quotient
isomorphism search and its dedup pass that the library's
faster ones must match output for output, the normal-subgroup orders
found by a sympy scan of class unions, a subdirect product grown by
Schreier-Sims from its generators (the group the chain built from the
factors must equal), the scan of all q^d vectors behind the two
hyperplane-cover flags, the minimum-cover search that checks every
smaller subset first, GF(q) tables built one pair at a time and the
dot product folded one coordinate at a time, and the one recipe for
launching the ``derange`` CLI in a separate process.
"""

import os
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np

from derange._kernels import decode_vectors
from derange.cover import CoverInstance, Hyperplane, check_cover
from derange.gf import PINNED_MODULI, FieldSpec, _poly_mod
from derange.group import BSGS, PermutationGroup, ResourceCapExceeded, factorize
from derange.perm import (
    Perm,
    conjugate_rows,
    fixes_any,
    invert_rows,
    lex_keys,
    lex_sorted,
    rows_of,
)
from derange.structure import (
    ConjugacyClass,
    ConjugacyClassTable,
    _bits,
    class_products,
    conjugacy_classes,
    p_element_rows,
    p_part,
)
from derange.subdirect import quotient_isomorphisms
from derange.subgroups import SubgroupClass, table_closure


def elements(group) -> list[Perm]:
    """Every element of the group as a Perm, in enumeration order."""
    return [Perm(row, validate=False) for row in group.element_rows()]


def conjugate(h: Perm, g: Perm) -> Perm:
    """g^-1 * h * g."""
    return g.inverse() * h * g


def is_derangement(g: Perm, omega) -> bool:
    """g fixes no point of omega."""
    return not fixes_any(g.images[None, :], list(omega))[0]


def blocks(system) -> list[tuple[int, ...]]:
    """The blocks of a block system, each as its sorted points, in
    block-label order."""
    out = [[] for _ in range(system.num_blocks)]
    for p, b in enumerate(system.block_of.tolist()):
        if b >= 0:
            out[b].append(p)
    return [tuple(b) for b in out]


def class_sizes(table) -> list[int]:
    """The sizes of a conjugacy class table's classes, in table order."""
    return [c.size for c in table.classes]


def class_sum_nonderangements(group, omega, class_cap: int = 10**6) -> int:
    """Non-derangements counted by classes: the summed sizes of the
    conjugacy classes whose representative fixes a point of omega.

    Sound only for a G-invariant omega, where "fixes a point of omega"
    is constant on classes; any other omega raises ValueError.
    """
    pts = np.asarray(sorted(int(x) for x in omega))
    inside = set(pts.tolist())
    if any(g(x) not in inside for g in group.generators for x in inside):
        raise ValueError("point set is not group-invariant")
    table = conjugacy_classes(group, cap=class_cap)
    return sum(c.size for c in table if bool((c.rep.images[pts] == pts).any()))


def reference_conjugacy_classes(group, cap: int = 10**6):
    """``conjugacy_classes`` one class at a time: the least row of the
    lex-sorted listing not yet in a class is the least of its own class,
    which is closed by breadth-first orbit search under conjugation by
    the generators.  The library's table must match it: rows, class ids,
    representatives and sizes."""
    rows = lex_sorted(group.element_rows(cap=cap))
    keys = lex_keys(rows)
    class_of = np.full(len(rows), -1, dtype=np.intp)
    gens = rows_of(group.generators, group.degree)
    gens_inv = invert_rows(gens)
    at = np.arange(len(gens))[None, :, None]
    classes = []
    x = 0
    while x < len(rows):
        c = len(classes)
        class_of[x] = c
        frontier = np.array([x])
        size = 1
        while frontier.size:
            # conj[f, k] = gens[k]^-1 * rows[f] * gens[k]
            conj = gens[at, rows[frontier][:, gens_inv]].reshape(-1, group.degree)
            hit = np.searchsorted(keys, lex_keys(conj))
            # the distinct rows not yet in a class form the next frontier
            frontier = np.array(sorted(set(hit[class_of[hit] < 0].tolist())), dtype=np.intp)
            class_of[frontier] = c
            size += frontier.size
        classes.append(ConjugacyClass(Perm(rows[x].copy(), validate=False), size))
        left = np.flatnonzero(class_of[x:] < 0)
        x += int(left[0]) if left.size else len(rows)
    return ConjugacyClassTable(group, classes, rows, class_of)


def reference_sylow_subgroup(group, p: int) -> PermutationGroup:
    """``sylow_subgroup`` on a stabilizer chain: P is a ``BSGS`` grown by
    Schreier-Sims, membership is a sift, and each round adjoins the first
    pool row outside P that conjugates P's strong generators into P.  The
    library's listing-grown P must be the same element set."""
    target = p_part(group.order, p)
    b = BSGS(group.degree)
    pool = p_element_rows(group, p) if target > 1 else np.empty((0, group.degree), dtype=np.uint8)
    while b.order < target:
        pool = pool[~b.contains_rows(pool)]
        gens = rows_of(b.strong_gens, group.degree)
        g = next((row for row in pool if b.contains_rows(conjugate_rows(gens, row)).all()), None)
        if g is None:
            raise ValueError(f"grew a {p}-subgroup of order {b.order}, not the p-part {target}")
        b.extend(Perm(g, validate=False))
    return PermutationGroup.from_chain(b, name=f"Sylow_{p}")


def reference_sylow_facts(action, p: int, P) -> tuple:
    """(d, orbit lengths, elementary abelian, stabilizer count, lex-least
    derangement or None) of a p-subgroup P of a two-orbit action, each
    read the plain way: |P| = p^d, the orbits by union-find over P's
    generators, elementary abelian by generator orders and pairwise
    products, the distinct stabilizers as sets of fixing elements, and
    the least derangement by a scan of the sorted elements."""
    d = dict(factorize(P.order)).get(p, 0)
    if P.order != p**d:
        raise ValueError(f"order {P.order} is not a power of {p}")
    gens = P.generators
    elementary = all(g.order == p for g in gens) and all(a * b == b * a for a in gens for b in gens)
    members = sorted(elements(P))
    stabs = {frozenset(g.key for g in members if g(x) == x) for x in range(P.degree)}
    witness = next((g for g in members if is_derangement(g, action.omega)), None)
    lengths = tuple(sorted(len(o) for o in P.orbits()))
    return d, lengths, elementary, len(stabs), witness


def reference_generating_points(model) -> list[int]:
    """``QuotientModel.generating_points`` closing every candidate: greedy
    by descending element order, ties by coset-representative lex order,
    a candidate kept when the closure with it is larger."""
    m = model.order
    gens: list[int] = []
    orders = model.element_orders
    size = 1
    for p in sorted(range(m), key=lambda p: (-int(orders[p]), model.reps[p].key)):
        if size == m:
            break
        got = table_closure(model.table.T, gens + [p]).size
        if got > size:
            gens, size = gens + [p], got
    return gens


def coset_rows(model, p: int) -> np.ndarray:
    """The parent-group elements of a quotient model's coset at point p,
    as rows: each kernel element, then the coset's representative."""
    return model.reps[p].images[model.kernel_rows]


def lex_coset_key(kernel_rows: np.ndarray, g: Perm) -> bytes:
    """The bytes of the lex-least element of the coset N * g, N listed
    as kernel_rows."""
    return lex_sorted(g.images[kernel_rows])[0].tobytes()


def reference_quotient(G, N) -> tuple[list[Perm], np.ndarray, dict[bytes, int]]:
    """(reps, table, enc) of ``subdirect.quotient`` keyed one coset at a
    time by its lex-least element: breadth first from the identity's
    coset, reps[p] * s for each point p in order and each generator s
    of G, with enc mapping each coset's lex-least bytes to its point."""
    kernel_rows = N.element_rows()
    m = G.order // N.order
    reps = [Perm.identity(G.degree)]
    enc = {lex_coset_key(kernel_rows, reps[0]): 0}
    gen_point = [[0] * m for _ in G.generators]
    found = [(0, -1)]
    for p in range(m):
        for si, s in enumerate(G.generators):
            c = reps[p] * s
            q = enc.setdefault(lex_coset_key(kernel_rows, c), len(reps))
            if q == len(reps):
                reps.append(c)
                found.append((p, si))
            gen_point[si][p] = q
    if len(reps) != m:
        raise ValueError(f"{len(reps)} cosets found, {m} expected")
    table = np.empty((m, m), dtype=np.int64)
    table[0] = np.arange(m)
    for q in range(1, m):
        p, si = found[q]
        table[q] = np.asarray(gen_point[si])[table[p]]
    return reps, table, enc


class ReferenceBSGS:
    """``group.BSGS`` one element at a time: the same deterministic
    Schreier-Sims, sifting each element and each Schreier generator with
    ``Perm`` products and keeping transversals as dicts.  The batched
    chain must build the same base, strong generators and transversals."""

    def __init__(self, degree: int, generators=()):
        self.degree = degree
        self.base: list[int] = []
        self.strong_gens: list[Perm] = []
        self.transversals: list[dict[int, Perm]] = []
        for g in generators:
            self.extend(g)

    # g reduced through levels[start:]; returns (residue, stuck level)
    def sift(self, g: Perm, start: int = 0) -> tuple[Perm, int]:
        for i in range(start, len(self.base)):
            p = g(self.base[i])
            u = self.transversals[i].get(p)
            if u is None:
                return g, i
            g = g * u.inverse()
        return g, len(self.base)

    def __contains__(self, g: Perm) -> bool:
        residue, i = self.sift(g)
        return i == len(self.base) and residue.is_identity()

    def extend(self, g: Perm) -> bool:
        residue, j = self.sift(g)
        if j == len(self.base) and residue.is_identity():
            return False
        self._insert(residue, j)
        self._complete(j)
        return True

    def _insert(self, residue: Perm, j: int) -> None:
        if j == len(self.base):
            self.base.append(int(residue.moved_points()[0]))
            self.transversals.append({})
        self.strong_gens.append(residue)
        for i in range(j + 1):
            self._rebuild(i)

    def _level_gens(self, i: int) -> list[Perm]:
        prefix = self.base[:i]
        return [g for g in self.strong_gens if all(g(b) == b for b in prefix)]

    def _rebuild(self, i: int) -> None:
        gens = self._level_gens(i)
        base = self.base[i]
        tr = {base: Perm.identity(self.degree)}
        frontier = [base]
        while frontier:
            nxt = []
            for p in frontier:
                u = tr[p]
                for s in gens:
                    q = s(p)
                    if q not in tr:
                        tr[q] = u * s
                        nxt.append(q)
            frontier = nxt
        self.transversals[i] = tr

    def _verify_level(self, i: int):
        tr = self.transversals[i]
        gens = self._level_gens(i)
        for p in sorted(tr):
            u = tr[p]
            for s in gens:
                w = u * s * tr[s(p)].inverse()
                if w.is_identity():
                    continue
                residue, j = self.sift(w, i + 1)
                if not (j == len(self.base) and residue.is_identity()):
                    return residue, j
        return None

    def _complete(self, start: int) -> None:
        i = min(start, len(self.base) - 1)
        while i >= 0:
            bad = self._verify_level(i)
            if bad is None:
                i -= 1
                continue
            residue, j = bad
            self._insert(residue, j)
            i = j

    @property
    def order(self) -> int:
        n = 1
        for tr in self.transversals:
            n *= len(tr)
        return n

    def transversal_rows(self) -> list[np.ndarray]:
        return [rows_of([tr[p] for p in sorted(tr)], self.degree) for tr in self.transversals]


def seeded_normal_closure(group, seeds) -> PermutationGroup:
    """Smallest normal subgroup of group containing the seed elements,
    grown by Schreier-Sims on the batched chain.

    The queue is a stack of rows.  One batched membership test finds the
    topmost row outside the closure so far; the members above it are
    discarded, since a member stays one as the closure grows, and that
    row is adjoined and its conjugates by the generators pushed.  The
    extensions are those of popping and adjoining one row at a time
    (``reference_normal_closure``).
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


def reference_normal_closure(group, seeds) -> ReferenceBSGS:
    """The chain of ``seeded_normal_closure`` grown one popped element at
    a time."""
    b = ReferenceBSGS(group.degree)
    queue = list(seeds)
    while queue:
        h = queue.pop()
        if b.extend(h):
            queue.extend(conjugate(h, g) for g in group.generators)
    return b


def closure_rows(degree: int, gen_rows: np.ndarray, cap: int | None = None) -> np.ndarray:
    """All elements of <gens> as rows, by breadth-first word closure.

    Independent of the stabilizer chain and of any element table.  Rows
    come out sorted lexicographically.
    """
    ident = np.arange(degree, dtype=np.uint8)
    if len(gen_rows) == 0:
        return ident[None, :]
    gens = np.asarray(gen_rows, dtype=np.uint8)
    seen = {ident.tobytes()}
    rows = [ident]
    frontier = ident[None, :]
    while frontier.size:
        new = []
        for g in gens:
            prod = g[frontier]  # frontier rows, then g
            for row in prod:
                k = row.tobytes()
                if k not in seen:
                    seen.add(k)
                    new.append(row)
        if cap is not None and len(rows) + len(new) > cap:
            raise ResourceCapExceeded(f"closure exceeds cap {cap}")
        if not new:
            break
        frontier = np.array(new, dtype=np.uint8)
        rows.extend(new)
    out = np.array(rows, dtype=np.uint8)
    return out[np.lexsort(out.T[::-1])]


def subgroup_scan(G):
    """Every subgroup of G as an explicit group, by breadth-first
    closure growth: adjoin one element at a time from the trivial group."""
    elems = [Perm(r, validate=False) for r in G.element_rows()]
    triv = PermutationGroup(G.degree, [])
    tkey = frozenset(p.key for p in elements(triv))
    seen = {tkey: triv}
    frontier = [(triv, tkey)]
    while frontier:
        nxt = []
        for H, hkey in frontier:
            for g in elems:
                if g.key in hkey:
                    continue
                K = PermutationGroup(G.degree, H.generators + [g])
                key = frozenset(p.key for p in elements(K))
                if key not in seen:
                    seen[key] = K
                    nxt.append((K, key))
        frontier = nxt
    return list(seen.values())


def reference_subgroup_classes(parent, et) -> list[SubgroupClass]:
    """``subgroup_classes`` with the double-coset prune alone: after each
    candidate g, only H g H leaves the pool, never its conjugates under
    the normalizer of H.  The library's scan must give the same classes,
    representatives and generator lists, in the same order."""
    m = et.size
    prime_power_orders = [o for o in sorted(set(et.orders.tolist())) if len(factorize(o)) == 1]
    pp_mask = np.isin(et.orders, prime_power_orders)
    classes = []
    buckets = {}
    seen_sets = set()

    def add(idx, gens):
        key = idx.tobytes()
        if key in seen_sets:
            return False
        seen_sets.add(key)
        bucket = buckets.setdefault((len(idx), np.sort(et.class_id[idx]).tobytes()), [])
        if any(et.conjugators(gens, classes[ci].indices).size for ci in bucket):
            return False
        bucket.append(len(classes))
        classes.append(SubgroupClass(idx, gens))
        return True

    add(np.array([0], dtype=np.int64), [])
    frontier = [0]
    first = np.full(int(et.class_id.max()) + 1, m)
    np.minimum.at(first, et.class_id, np.arange(m))
    for x in np.sort(first)[1:].tolist():
        if add(et.closure([x]), [x]):
            frontier.append(len(classes) - 1)
    while frontier:
        fresh = []
        for ci in frontier:
            H = classes[ci]
            if 2 * H.order >= m:
                continue
            h_idx = H.indices
            pool = pp_mask.copy()
            pool[h_idx] = False
            while pool.any():
                g = int(np.argmax(pool))
                if add(et.closure(H.gen_indices + [g]), H.gen_indices + [g]):
                    fresh.append(len(classes) - 1)
                hg = et.mult[h_idx, g]
                pool[et.mult[hg[:, None], h_idx[None, :]].ravel()] = False
        frontier = fresh
    add(np.arange(m, dtype=np.int64), [et.index(g) for g in parent.generators])
    classes.sort(key=lambda c: (c.order, c.indices.tobytes()))
    return classes


def are_conjugate(G, H, K) -> bool:
    """True when H^y = K for some y in G, by scanning all of G."""
    if H.order != K.order:
        return False
    want = frozenset(p.key for p in elements(K))
    for y in elements(G):
        if frozenset(conjugate(h, y).key for h in elements(H)) == want:
            return True
    return False


def _combine(g1: Perm, g2: Perm) -> Perm:
    return Perm(np.concatenate([g1.images, g2.images + g1.degree]), validate=False)


def direct_product(G1, G2) -> PermutationGroup:
    """G1 x G2 acting on G1's points followed by G2's, shifted past them."""
    id1, id2 = Perm.identity(G1.degree), Perm.identity(G2.degree)
    gens = [_combine(g, id2) for g in G1.generators]
    gens += [_combine(id1, h) for h in G2.generators]
    P = PermutationGroup(G1.degree + G2.degree, gens or [_combine(id1, id2)])
    if P.order != G1.order * G2.order:
        raise ValueError(f"order {P.order} is not {G1.order} * {G2.order}")
    return P


def reference_materialize(desc) -> PermutationGroup:
    """The subdirect product of a Goursat descriptor, by Schreier-Sims on
    lifted quotient generators plus both kernels' generators; the order
    check |G1| |N2| is what certifies the point map."""
    q1, q2 = desc.q1, desc.q2
    id1 = Perm.identity(q1.parent.degree)
    id2 = Perm.identity(q2.parent.degree)
    gens = [_combine(q1.reps[p], q2.reps[desc.point_map[p]]) for p in q1.generating_points]
    gens.extend(_combine(n, id2) for n in q1.kernel.generators)
    gens.extend(_combine(id1, n) for n in q2.kernel.generators)
    G = PermutationGroup(q1.parent.degree + q2.parent.degree, gens)
    if G.order != desc.subgroup_order:
        raise ValueError(f"order {G.order} is not the descriptor's {desc.subgroup_order}")
    return G


def brute_derangement(G):
    """Lex-least element fixing no point, or None, by full scan."""
    idx = np.arange(G.degree, dtype=np.uint8)
    rows = G.element_rows()
    hit = ~(rows == idx[None, :]).any(axis=1)
    if not hit.any():
        return None
    cand = rows[hit]
    return Perm(cand[np.lexsort(cand.T[::-1])][0], validate=False)


def same_group(a, b) -> bool:
    """a and b are one subgroup: equal orders, and a's generators in b."""
    return a.order == b.order and a.is_subgroup_of(b)


def class_union_normal_subgroups(group) -> list[int]:
    """The orders of all normal subgroups, sorted, from a scan of every
    union of conjugacy classes, built with sympy alone.

    sympy lists the classes, and its products locate the classes met by
    C_i * C_j: those of class i's first element times each element of
    class j, since C_i * C_j is the union of that set's conjugates.  A
    union holding the identity is a normal subgroup exactly when it is
    closed under these products, and the scan keeps each such union whose
    size divides the order.
    """
    from sympy.combinatorics import Permutation
    from sympy.combinatorics import PermutationGroup as SympyGroup

    n = group.degree
    gens = [Permutation(g.images.tolist(), size=n) for g in group.generators]
    classes = [list(c) for c in SympyGroup(gens or [Permutation(n - 1)]).conjugacy_classes()]
    class_of = {tuple(x.array_form): i for i, c in enumerate(classes) for x in c}
    k = len(classes)
    products = [[0] * k for _ in range(k)]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            for y in cj:
                products[i][j] |= 1 << class_of[tuple((ci[0] * y).array_form)]
    identity = 1 << class_of[tuple(range(n))]
    order = sum(len(c) for c in classes)
    found = []
    for union in range(1 << k):
        if not union & identity:
            continue
        inside = [i for i in range(k) if union >> i & 1]
        size = sum(len(classes[i]) for i in inside)
        if order % size == 0 and all(not products[i][j] & ~union for i in inside for j in inside):
            found.append(size)
    return sorted(found)


def chain_normal_subgroups(group, class_cap=10**6) -> list[PermutationGroup]:
    """The class-mask lattice with a Schreier-Sims chain per member: the
    atoms and semi-naive join rounds of ``normal_subgroups`` on masks,
    each new mask's group grown by ``seeded_normal_closure`` (an atom's
    from its class representative, a join's from both sides'
    generators), sorted by order and then by generator list.  A member
    whose order is not the size of its classes raises ValueError."""
    table = conjugacy_classes(group, cap=class_cap)
    sizes = [c.size for c in table]
    supp = class_products(table)
    one = 1 << int(table.class_of[0])

    def close(mask: int) -> int:
        grew = True
        while grew:
            grew = False
            for i in _bits(mask):
                for j in _bits(mask):
                    if supp[i][j] & ~mask:
                        mask |= supp[i][j]
                        grew = True
        return mask

    members = {one: PermutationGroup(group.degree, [], name="1")}
    lattice: dict[int, list[int]] = {1: [one]}

    def add(mask: int, seeds) -> bool:
        if mask in members:
            return False
        h = seeded_normal_closure(group, seeds)
        size = sum(sizes[c] for c in _bits(mask))
        if h.order != size:
            raise ValueError(f"normal closure of order {h.order} on classes of total size {size}")
        members[mask] = h
        lattice.setdefault(size, []).append(mask)
        return True

    for i, cls in enumerate(table):
        if 1 << i != one:
            add(close(one | 1 << i), [cls.rep])
    out = [m for bucket in lattice.values() for m in bucket]
    fresh = set(out)
    while fresh:
        added = set()
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                if (a in fresh or b in fresh) and a | b not in (a, b):
                    join = close(a | b)
                    if add(join, members[a].generators + members[b].generators):
                        added.add(join)
        fresh = added
        out = [m for bucket in lattice.values() for m in bucket]
    groups = [members[m] for m in out]
    groups.sort(key=lambda h: (h.order, [g.key for g in h.generators]))
    return groups


def reference_normal_subgroups(group, class_cap=10**6):
    """``normal_subgroups`` with the plain round loop: every round joins
    every pair of known normal subgroups, until a round adds none."""
    table = conjugacy_classes(group, cap=class_cap)
    atoms = []
    for cls in table:
        if cls.rep.is_identity():
            continue
        atoms.append(seeded_normal_closure(group, [cls.rep]))
    lattice = {}

    def add(h):
        bucket = lattice.setdefault(h.order, [])
        for other in bucket:
            if same_group(h, other):
                return False
        bucket.append(h)
        return True

    trivial = PermutationGroup(group.degree, [], name="1")
    add(trivial)
    for a in atoms:
        add(a)
    grew = True
    while grew:
        grew = False
        flat = [h for bucket in lattice.values() for h in bucket]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                join = seeded_normal_closure(group, flat[i].generators + flat[j].generators)
                if add(join):
                    grew = True
    out = [h for bucket in lattice.values() for h in bucket]
    if not any(h.order == group.order for h in out):
        out.append(PermutationGroup(group.degree, group.generators, name=group.name))
    out.sort(key=lambda h: (h.order, [g.key for g in h.generators]))
    return out


def reference_isomorphisms(q1, q2):
    """Every isomorphism of two quotient models, in the order and form of
    ``quotient_isomorphisms(q1, q2, dedup=False)``: the same generator
    images tried in the same order, but each partial map grown to the
    subgroup its domain generates by checking every product of a known
    point with a new one."""
    if q1.order != q2.order:
        return []
    if q1.order == 1:
        return [np.zeros(1, dtype=np.int64)]
    m = q1.order
    t1, t2 = q1.table, q2.table
    gens = q1.generating_points
    ord1, ord2 = q1.element_orders, q2.element_orders
    cands = []
    for g in gens:
        pool = [p for p in range(m) if int(ord2[p]) == int(ord1[g])]
        pool.sort(key=lambda p: q2.reps[p].key)
        cands.append(pool)
    found = []

    def close(fwd, bwd, frontier):
        while frontier:
            cur = np.asarray(sorted(set(frontier)), dtype=np.int64)
            known = np.nonzero(fwd >= 0)[0]
            a = np.concatenate([
                t1[cur[None, :], known[:, None]].ravel(),
                t1[known[None, :], cur[:, None]].ravel(),
            ]).astype(np.int64)
            b = np.concatenate([
                t2[fwd[cur][None, :], fwd[known][:, None]].ravel(),
                t2[fwd[known][None, :], fwd[cur][:, None]].ravel(),
            ]).astype(np.int64)
            have = fwd[a]
            if ((have >= 0) & (have != b)).any():
                return False
            mask = have < 0
            if not mask.any():
                break
            na, nb = a[mask], b[mask]
            order = np.argsort(na, kind="stable")
            na, nb = na[order], nb[order]
            keep = np.concatenate([[True], na[1:] != na[:-1]])
            ka, kb = na[keep], nb[keep]
            if np.unique(kb).size != kb.size or (bwd[kb] >= 0).any():
                return False
            fwd[ka] = kb
            bwd[kb] = ka
            if (fwd[na] != nb).any():
                return False
            frontier = ka.tolist()
        return True

    def extend(depth, fwd, bwd):
        if depth == len(gens):
            found.append(fwd.copy())
            return
        g = gens[depth]
        for c in cands[depth]:
            if bwd[c] >= 0:
                continue
            f2, b2 = fwd.copy(), bwd.copy()
            f2[g], b2[c] = c, g
            if close(f2, b2, [g]):
                extend(depth + 1, f2, b2)

    fwd = np.full(m, -1, dtype=np.int64)
    bwd = np.full(m, -1, dtype=np.int64)
    fwd[0] = bwd[0] = 0
    extend(0, fwd, bwd)
    return found


def reference_dedup_isomorphisms(q1, q2):
    """One isomorphism per class modulo inner automorphisms of q2, in the
    order and form of ``quotient_isomorphisms(q1, q2, dedup=True)``: the
    full search, then the first map found with each conjugation key, the
    lex-least row of the generator images conjugated by each element."""
    isos = quotient_isomorphisms(q1, q2, dedup=False)
    if len(isos) < 2:
        return isos
    gens = q1.generating_points
    t2 = q2.table
    inv2 = np.argmax(t2 == 0, axis=1)
    ys = np.arange(q2.order)
    keep, seen = [], set()
    for iso in isos:
        imgs = iso[gens]
        # y^-1 * x * y for every y (rows), every generator image x (cols)
        conj = t2[ys[:, None], t2[imgs[None, :], inv2[ys][:, None]]]
        key = lex_sorted(conj)[0].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(iso)
    return keep


def reference_field_tables(q: int) -> tuple[np.ndarray, ...]:
    """(add, mul, neg, inv) of GF(q), one pair at a time: digitwise sums
    mod p, and products of the digit polynomials reduced by the pinned
    modulus with polynomial long division; neg and inv by search, with
    inv[0] = 0.  The pinned modulus is not checked here."""
    ((p, e),) = factorize(q)
    digits = decode_vectors(0, q, p, e)[:, ::-1].tolist()  # lowest first

    def encode(coeffs):
        x = 0
        for c in reversed(coeffs):
            x = x * p + c
        return x

    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for x, dx in enumerate(digits):
        for y, dy in enumerate(digits):
            add[x, y] = encode([(a + b) % p for a, b in zip(dx, dy)])
            prod = [0] * (2 * e - 1)
            for i, a in enumerate(dx):
                for j, b in enumerate(dy):
                    prod[i + j] = (prod[i + j] + a * b) % p
            if e > 1:
                prod = _poly_mod(prod, list(PINNED_MODULI[q]), p)
            mul[x, y] = encode(prod + [0] * (e - len(prod)))
    neg = np.array([next(y for y in range(q) if add[x, y] == 0) for x in range(q)])
    inv = np.array([0] + [next(y for y in range(q) if mul[x, y] == 1) for x in range(1, q)])
    return add, mul, neg, inv


def dot(field, u, v) -> np.ndarray:
    """Componentwise products of u and v, broadcast along the last axis,
    folded with field addition one coordinate at a time."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    prods = field.mul[u, v]
    acc = prods[..., 0]
    for i in range(1, prods.shape[-1]):
        acc = field.add[acc, prods[..., i]]
    return acc


def full_cover_scan(field, d: int, normals) -> tuple[bool, bool]:
    """(covers_all, trivial_intersection) for hyperplane normals over
    GF(q)^d, zero rows allowed, by evaluating every normal on every one
    of the q^d vectors: each vector lies on some plane, and only the
    zero vector lies on all of them."""
    normals = np.asarray(normals, dtype=np.int64).reshape(-1, d)
    values = np.arange(field.q)
    on = np.empty((len(normals), field.q**d), dtype=bool)
    for i, normal in enumerate(normals):
        dots = np.zeros(1, dtype=np.int64)  # a.v for every v, one coordinate at a time
        for a in normal:
            dots = field.add[dots[:, None], field.mul[a, values][None, :]].ravel()
        on[i] = dots == 0
    return bool(on.any(axis=0).all()), int(on.all(axis=0).sum()) == 1


def reference_min_cover_search(q: int, d: int):
    """(size, cover): the first set of hyperplanes meeting both cover
    conditions in (size, lex) order, found by checking every subset of
    every size from 1 up; None when no set of normals covers."""
    field = FieldSpec(q)
    # one normal per hyperplane, its first nonzero coordinate 1, in lex order
    planes = [Hyperplane(n) for n in product(range(q), repeat=d) if next((x for x in n if x), 0) == 1]
    for size in range(1, len(planes) + 1):
        for combo in combinations(planes, size):
            cover = CoverInstance(field, d, list(combo))
            covers_all, trivial, _ = check_cover(cover)
            if covers_all and trivial:
                return size, cover
    return None


SRC = Path(__file__).resolve().parent.parent / "src"


def derange_process(*args):
    """``(cmd, env)`` that run ``derange ARGS`` in a fresh interpreter,
    calling the console script's target ``derange.cli:derange`` with this
    checkout's ``src/`` first on ``PYTHONPATH``: no install needed, and
    an installed copy is never the one tested."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "from derange.cli import derange; derange(prog_name='derange')"
    return [sys.executable, "-c", code, *args], env
