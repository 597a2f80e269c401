"""Subdirect products of two permutation groups.

Subgroups of G1 x G2 projecting onto both factors are parametrized by
Goursat triples (N1, N2, phi): Ni normal in Gi, phi an isomorphism
G1/N1 -> G2/N2; the subgroup is {(g1, g2) : phi(g1 N1) = g2 N2}.

Quotients are modeled by their regular action on cosets.  That action
can live on up to QUOTIENT_CAP points, beyond the supported permutation
degree, so it is kept as a plain index table: element <-> the point its
coset occupies, product of x and y = table[y, x].
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import row_orders
from .group import BSGS, GroupError, PermutationGroup, ResourceCapExceeded
from .perm import (
    MAX_DEGREE,
    Perm,
    conjugate_rows,
    fixes_any,
    least_derangement,
    lex_order,
    lex_sorted,
    rows_of,
    rows_then,
)
from .structure import normal_subgroups
from .subgroups import table_closure

QUOTIENT_CAP = 2000
ISO_CAP = 10**5


@dataclass(eq=False)
class QuotientModel:
    """Regular coset model of parent/kernel.

    table[p] is the permutation of coset points induced by right
    multiplication with the element at point p, so the table doubles as
    the multiplication table: point of x*y equals table[point(y),
    point(x)].  reps[p] is a parent-group representative of the coset at
    point p, reps[0] the identity.  enc maps each coset's key (its
    lex-least element's bytes) to its point.
    """

    parent: PermutationGroup
    kernel: PermutationGroup
    table: np.ndarray = field(repr=False)
    reps: list[Perm] = field(repr=False)
    kernel_rows: np.ndarray = field(repr=False)
    enc: dict[bytes, int] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.reps)

    @cached_property
    def inverse_points(self) -> np.ndarray:
        return np.argmax(self.table == 0, axis=1).astype(self.table.dtype)

    @cached_property
    def point_ranks(self) -> np.ndarray:
        """rank[p] = position of reps[p] in the lex order of all coset
        representatives."""
        ranks = np.empty(self.order, dtype=self.table.dtype)
        ranks[lex_order(rows_of(self.reps, self.parent.degree))] = np.arange(self.order)
        return ranks

    def least_in_orbits(self, points: np.ndarray, cent: np.ndarray) -> np.ndarray:
        """mask[i] = points[i] has the least rank of its orbit under
        conjugation by the elements at the points cent."""
        t, rank = self.table, self.point_ranks
        # y^-1 * c * y for every c in points (rows), every y in cent (cols)
        conj = t[cent[None, :], t[points[:, None], self.inverse_points[cent][None, :]]]
        return rank[conj].min(axis=1) == rank[points]

    @cached_property
    def element_orders(self) -> np.ndarray:
        return row_orders(self.table)

    @cached_property
    def generating_points(self) -> list[int]:
        """Small deterministic generating sequence: greedy by descending
        element order, ties broken by coset-representative lex order."""
        m = self.order
        gens: list[int] = []
        if m > 1:
            orders = self.element_orders
            pref = sorted(range(m), key=lambda p: (-int(orders[p]), self.reps[p].key))
            size = 1
            for p in pref:
                if size == m:
                    break
                trial = gens + [p]
                got = table_closure(self.table.T, trial).size
                if got > size:
                    gens, size = trial, got
            if size != m:
                raise GroupError(f"generating points reach {size} of {m} quotient points")
        return gens

    @cached_property
    def prefix_trees(self) -> list[tuple[list, list]]:
        """Per generating point g_d, the Cayley-graph edges of the prefix
        subgroup H_d = <g_0..g_d> not already in H_(d-1), as (y, x, k)
        with y = x*g_k: the Schreier tree of the points new in H_d, in
        an order that places each parent before its children, and every
        other new edge."""
        gens = self.generating_points
        rows = [self.table[g].tolist() for g in gens]
        seen = bytearray(self.order)
        seen[0] = 1
        members = [0]
        trees = []
        for d in range(len(gens)):
            tree, edges, new = [], [], []

            def visit(x: int, k: int):
                y = rows[k][x]
                if seen[y]:
                    edges.append((y, x, k))
                else:
                    seen[y] = 1
                    tree.append((y, x, k))
                    new.append(y)

            for x in members:
                visit(x, d)
            for x in new:  # grows while it is walked
                for k in range(d + 1):
                    visit(x, k)
            members += new
            trees.append((tree, edges))
        return trees

    def point_of(self, g: Perm) -> int:
        """The point of the coset holding the parent-group element g."""
        p = self.enc.get(_coset_key(self.kernel_rows, g))
        if p is None:
            raise GroupError("element lies in no coset of the quotient model")
        return p

    def coset_rows(self, p: int) -> np.ndarray:
        """The parent-group elements of the coset at point p, as rows."""
        return rows_then(self.kernel_rows, self.reps[p])

    @cached_property
    def derangement_bitmap(self) -> np.ndarray:
        """bitmap[p] = coset p contains an element fixing no parent point."""
        pts = np.arange(self.parent.degree)
        return np.array([not fixes_any(self.coset_rows(p), pts).all() for p in range(self.order)])


def _coset_key(kernel_rows: np.ndarray, g: Perm) -> bytes:
    """The bytes of the lex-least element of the coset of g."""
    return lex_sorted(rows_then(kernel_rows, g))[0].tobytes()


def quotient(G: PermutationGroup, N: PermutationGroup, cap: int = QUOTIENT_CAP) -> QuotientModel:
    """Regular action of G on the cosets of a normal subgroup N.

    Each model is built once per (G, N): it is kept on N and returned to
    every later call with the same parent G, after the cap check.  Its
    kernel is a copy of N with the same generators and stabilizer chain.
    """
    if N.degree != G.degree:
        raise GroupError("kernel degree differs from parent degree")
    m = G.order // N.order
    if m > cap:
        raise ResourceCapExceeded(f"quotient order {m} over cap {cap}")
    if N._quotient is not None and N._quotient.parent is G:
        return N._quotient
    if not N.is_subgroup_of(G):
        raise GroupError("kernel is not a subgroup of the parent")
    n_rows = rows_of(N.generators, G.degree)
    conj = [conjugate_rows(n_rows, g) for g in G.generators]
    if conj and not N.bsgs.contains_rows(np.concatenate(conj)).all():
        raise GroupError("kernel is not normal in the parent")

    kernel_rows = N.element_rows()
    reps = [Perm.identity(G.degree)]
    enc = {_coset_key(kernel_rows, reps[0]): 0}
    disc: list[tuple[int, int]] = [(0, -1)]
    gen_rows = [np.empty(m, dtype=np.int64) for _ in G.generators]
    p = 0
    while p < len(reps):
        for si, s in enumerate(G.generators):
            c = reps[p] * s
            key = _coset_key(kernel_rows, c)
            q = enc.get(key)
            if q is None:
                q = len(reps)
                if q >= m:
                    raise GroupError("coset enumeration exceeded the expected count")
                enc[key] = q
                reps.append(c)
                disc.append((p, si))
            gen_rows[si][p] = q
        p += 1
    if len(reps) != m:
        raise GroupError(f"coset enumeration found {len(reps)} cosets, expected {m}")

    # right multiplication by reps[q] = (right mult by reps[p]) then by s
    # where q was discovered as the coset of reps[p]*s
    rows = np.empty((m, m), dtype=np.int64)
    rows[0] = np.arange(m)
    for q in range(1, m):
        p, si = disc[q]
        rows[q] = gen_rows[si][rows[p]]
    table = rows.astype(np.int16 if m <= 32767 else np.int32)
    # the model holds a copy of N that shares its stabilizer chain, not N
    # itself: N holds the model, and a reference cycle would keep both
    # (and G) alive after their last use until the cyclic collector runs
    kernel = PermutationGroup(N.degree, N.generators, name=N.name)
    kernel._bsgs = N.bsgs
    model = QuotientModel(G, kernel, table, reps, kernel_rows, enc)
    if model.order * N.order != G.order:
        raise GroupError("quotient order times kernel order is not the parent order")
    N._quotient = model
    return model


class _IsoSearch:
    """Generator-image backtracking between two regular quotient models.

    Slot d picks the image of generating point g_d.  The points g_d adds
    to the prefix subgroup get their images along the prefix's Schreier
    tree; the map must stay injective, and every other edge x -> x*g_k
    of the prefix's Cayley graph must agree with f(x)*f(g_k).  A map
    that respects every edge of a finite group's Cayley graph is a
    homomorphism, so a completed map is an isomorphism with no further
    verification.

    Candidates are tried in the lex order of q2's coset representatives,
    so maps are found in lex order of their generator images.  With
    dedup, slot d keeps a candidate only if it is the least of its orbit
    under the centralizer C_d of the images already chosen (all of q2 at
    d = 0, where the orbit is a conjugacy class).  That keeps exactly
    the least map of each class modulo inner automorphisms of q2: if
    conjugating by some y gives a smaller map, y centralizes the images
    before the first slot that differs, and that slot's image fails.
    """

    def __init__(self, q1: QuotientModel, q2: QuotientModel, dedup: bool, cap: int = ISO_CAP):
        self.q2 = q2
        self.dedup = dedup
        self.cap = cap
        self.m = q1.order
        self.gens = q1.generating_points
        self.trees = q1.prefix_trees
        # plain-int lookups: t2[c * m + x] is the point of x*c in q2
        self.t2 = memoryview(q2.table.reshape(-1))
        ord1, ord2 = q1.element_orders, q2.element_orders
        rank = q2.point_ranks
        # candidate images per slot: matching element order, in rank order
        self.cands = []
        for g in self.gens:
            pool = np.flatnonzero(ord2 == ord1[g])
            self.cands.append(pool[np.argsort(rank[pool])])
        self.found: list[np.ndarray] = []

    def run(self) -> list[np.ndarray]:
        fwd = [0] * self.m
        used = bytearray(self.m)
        used[0] = 1
        cent = np.arange(self.m) if self.dedup else None
        self._extend(0, fwd, used, [None] * len(self.gens), cent)
        return self.found

    def _extend(self, depth: int, fwd: list[int], used: bytearray, rows: list, cent):
        # fwd is the map on H_(depth-1), stale beyond it; used marks its
        # image; rows[k][x] is the point of x*f(g_k) in q2; cent is the
        # centralizer C_depth in q2, None without dedup
        if depth == len(self.gens):
            if len(self.found) >= self.cap:
                raise ResourceCapExceeded(f"isomorphism count over cap {self.cap}")
            self.found.append(np.array(fwd, dtype=np.int64))
            return
        tree, edges = self.trees[depth]
        cands = self.cands[depth]
        if cent is not None:
            cands = cands[self.q2.least_in_orbits(cands, cent)]
        table = self.q2.table
        for c in cands.tolist():
            if used[c]:
                continue
            rows[depth] = self.t2[c * self.m:(c + 1) * self.m]
            placed = []
            for y, x, k in tree:
                v = rows[k][fwd[x]]
                if used[v]:
                    break
                used[v] = 1
                placed.append(v)
                fwd[y] = v
            else:
                for y, x, k in edges:
                    if fwd[y] != rows[k][fwd[x]]:
                        break
                else:
                    # y commutes with c iff table[y, c] == table[c, y]
                    sub = None if cent is None else cent[table[cent, c] == table[c, cent]]
                    self._extend(depth + 1, fwd, used, rows, sub)
            for v in placed:
                used[v] = 0


def quotient_isomorphisms(
    q1: QuotientModel,
    q2: QuotientModel,
    dedup: bool = True,
    cap: int = ISO_CAP,
) -> list[np.ndarray]:
    """All isomorphisms q1 -> q2 as point maps (arrays of length |q1|);
    ResourceCapExceeded once more than cap maps would be returned.

    With dedup, one representative per class modulo inner automorphisms
    of q2, the least in candidate order; those classes match the
    conjugacy classes of the resulting subdirect products inside
    parent1 x parent2.
    """
    if q1.order != q2.order:  # the search indexes q2 by q1's points
        return []
    return _IsoSearch(q1, q2, dedup, cap).run()


@dataclass(frozen=True, eq=False)
class SubdirectDescriptor:
    """One subdirect product of q1.parent x q2.parent: the pairs whose
    cosets match under point_map (an isomorphism of the quotients)."""

    q1: QuotientModel
    q2: QuotientModel
    point_map: np.ndarray

    @property
    def quotient_order(self) -> int:
        return self.q1.order

    @property
    def subgroup_order(self) -> int:
        return self.q1.parent.order * self.q2.kernel.order


def goursat_enumerate(
    G1: PermutationGroup,
    G2: PermutationGroup,
    dedup: bool = True,
    quotient_cap: int = QUOTIENT_CAP,
    iso_cap: int = ISO_CAP,
    normals1: list[PermutationGroup] | None = None,
    normals2: list[PermutationGroup] | None = None,
) -> list[SubdirectDescriptor]:
    """Every subdirect product of G1 x G2, one descriptor each (up to
    conjugacy in G1 x G2 when dedup is set).

    Precomputed normal subgroup lists can be passed to share lattice
    work across many calls on the same groups; the quotient models are
    then shared too, since each is kept on its kernel.  The product acts on the
    disjoint union of both domains, so their degrees must sum to at most
    MAX_DEGREE.
    """
    if G1.degree + G2.degree > MAX_DEGREE:
        raise GroupError(
            f"factor degrees {G1.degree} + {G2.degree} exceed the {MAX_DEGREE}-point envelope"
        )
    n1s = normals1 if normals1 is not None else normal_subgroups(G1)
    n2s = normals2 if normals2 is not None else normal_subgroups(G2)
    out = []
    for N1 in n1s:
        for N2 in n2s:
            if G1.order // N1.order != G2.order // N2.order:
                continue
            q1 = quotient(G1, N1, quotient_cap)
            q2 = quotient(G2, N2, quotient_cap)
            for iso in quotient_isomorphisms(q1, q2, dedup, iso_cap):
                out.append(SubdirectDescriptor(q1, q2, iso))
    return out


def _combine(g1: Perm, g2: Perm) -> Perm:
    return Perm(np.concatenate([g1.images, g2.images + g1.degree]), validate=False)


def materialize_group(desc: SubdirectDescriptor) -> PermutationGroup:
    """The subdirect product H as a permutation group on the disjoint
    union of the two parent domains (second domain shifted).

    Its stabilizer chain is built from the factors' chains, with no
    search.  The stabilizer in H of G1's first i base points is
    generated by the lifts (s, t) of the strong generators s of G1 that
    fix those points, t a representative of the partner of s's coset,
    together with 1 x N2.  So the base is G1's followed by N2's, each
    level's orbit is G1's orbit at that level or N2's, and the order is
    |G1| * |N2|.  That needs the point map to be an isomorphism of the
    quotients, which is checked first: a bijection that respects every
    Cayley-graph edge x -> x*g of q1's generating points g is one.
    """
    q1, q2 = desc.q1, desc.q2
    pm = np.asarray(desc.point_map)
    m = q1.order
    gens = q1.generating_points
    if not (
        len(pm) == m == q2.order
        # np.unique would first import numpy.ma (about 1.5 MB)
        and np.array_equal(np.sort(pm), np.arange(m))
        and (q2.table[pm[gens]][:, pm] == pm[q1.table[gens]]).all()
    ):
        raise GroupError("the point map is not an isomorphism of the quotients")
    c1, c2 = q1.parent.bsgs, q2.kernel.bsgs
    n1 = q1.parent.degree
    id1 = Perm.identity(n1)
    strong = [_combine(s, q2.reps[pm[q1.point_of(s)]]) for s in c1.strong_gens]
    strong += [_combine(id1, t) for t in c2.strong_gens]
    base = c1.base + [b + n1 for b in c2.base]
    return PermutationGroup.from_chain(
        BSGS.from_strong_generators(n1 + q2.parent.degree, base, strong)
    )


def subdirect_derangement(desc: SubdirectDescriptor) -> Perm | None:
    """A derangement of the subdirect product on the union of the two
    domains, or None when exhaustive coset analysis rules one out.

    An element (g1, g2) deranges the union iff g1 deranges domain 1 and
    g2 deranges domain 2, so existence reduces to finding a coset of N1
    holding a derangement whose partner coset of N2 holds one too.
    """
    bm1 = desc.q1.derangement_bitmap
    bm2 = desc.q2.derangement_bitmap
    hits = np.nonzero(bm1 & bm2[desc.point_map])[0]
    if hits.size == 0:
        return None
    p = int(hits[0])
    q1, q2 = desc.q1, desc.q2
    g1 = least_derangement(q1.coset_rows(p), np.arange(q1.parent.degree))
    g2 = least_derangement(q2.coset_rows(int(desc.point_map[p])), np.arange(q2.parent.degree))
    if g1 is None or g2 is None:
        raise GroupError(f"derangement bitmap marks coset {p} but it holds no derangement")
    return _combine(g1, g2)
