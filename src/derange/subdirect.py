"""Subdirect products of two permutation groups.

Subgroups of G1 x G2 projecting onto both factors are parametrized by
Goursat triples (N1, N2, phi): Ni normal in Gi, phi an isomorphism
G1/N1 -> G2/N2; the subgroup is {(g1, g2) : phi(g1 N1) = g2 N2}.

Quotients are modeled by their regular action on cosets.  That action
can live on up to QUOTIENT_CAP points, beyond the supported permutation
degree, so it is kept as a plain index table: element <-> the point its
coset occupies, product of x and y = table[y, x].  A product is listed
from the models, coset by coset: G1's coset at each point p paired with
G2's coset at phi(p), with no stabilizer chain.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import row_orders
from .group import BLOCK_ROWS, ENUM_CAP, GroupError, PermutationGroup, ResourceCapExceeded
from .perm import (
    MAX_DEGREE,
    Perm,
    cayley_table,
    conjugate_rows,
    fixes_any,
    lex_order,
    lex_sorted,
    rows_of,
)
from .structure import normal_subgroups

QUOTIENT_CAP = 2000
ISO_CAP = 10**5


@dataclass(eq=False)
class QuotientModel:
    """Regular coset model of parent/kernel.

    table[p] is the permutation of coset points induced by right
    multiplication with the element at point p, so the table doubles as
    the multiplication table: point of x*y equals table[point(y),
    point(x)].  reps[p] is the row of a parent-group representative of
    the coset at point p, reps[0] the identity's; the (m, degree) array
    is read-only.
    """

    parent: PermutationGroup
    kernel: PermutationGroup
    table: np.ndarray = field(repr=False)
    reps: np.ndarray = field(repr=False)
    kernel_rows: np.ndarray = field(repr=False)
    # least_in_orbits' masks, by the bytes of the centralizer's points
    _orbit_masks: dict[bytes, np.ndarray] = field(default_factory=dict, init=False, repr=False)

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
        ranks[lex_order(self.reps)] = np.arange(self.order)
        return ranks

    def least_in_orbits(self, cent: np.ndarray) -> np.ndarray:
        """mask[p] = point p has the least rank of its orbit under
        conjugation by the elements at the points cent (an int64 array).
        Each mask is tabled: the searches into one model ask for the
        same few centralizers over and over."""
        key = cent.tobytes()
        mask = self._orbit_masks.get(key)
        if mask is None:
            t, rank = self.table, self.point_ranks
            # y^-1 * c * y for every point c (rows), every y in cent (cols)
            conj = t[cent[None, :], t[:, self.inverse_points[cent]]]
            mask = self._orbit_masks[key] = rank[conj].min(axis=1) == rank
        return mask

    @cached_property
    def element_orders(self) -> np.ndarray:
        return row_orders(self.table)

    @property
    def generating_points(self) -> list[int]:
        """Small deterministic generating sequence g_0, g_1, ...: greedy
        by descending element order, ties broken by coset-representative
        lex order, as chosen by the walk of ``prefix_trees``.  g_d is the
        first point new in H_d, reached from the identity: slot d's tree
        starts with (g_d, 0, d)."""
        return [tree[0][0] for tree, _ in self.prefix_trees]

    @cached_property
    def prefix_trees(self) -> list[tuple[list, list]]:
        """Per generating point g_d, the Cayley-graph edges of the prefix
        subgroup H_d = <g_0..g_d> not already in H_(d-1), as (y, x, k)
        with y = x*g_k: the Schreier tree of the points new in H_d, in
        an order that places each parent before its children, and every
        other new edge.

        One walk chooses the generating points too.  It takes the points
        in the greedy order and adjoins each one not yet reached as the
        next g_d; the points reached by then are exactly H_(d-1), so a
        point inside never grows the subgroup and one outside always
        does.  The walk ends short of all points only when the table is
        not a Cayley table."""
        m = self.order
        rows: list[list[int]] = []  # rows[k][x] = point of x*g_k
        seen = bytearray(m)
        seen[0] = 1
        members = [0]
        trees = []
        for g in np.lexsort((self.point_ranks, -self.element_orders)).tolist():
            if len(members) == m:
                break
            if seen[g]:
                continue  # adjoining it would not grow the subgroup
            d = len(rows)
            rows.append(self.table[g].tolist())
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
        if len(members) != m:
            raise GroupError(f"generating points reach {len(members)} of {m} quotient points")
        return trees

    def coset_rows(self, points) -> np.ndarray:
        """The parent-group elements of the cosets at the points, as
        rows: out[i, j] is kernel element j, then the representative of
        the coset at points[i]."""
        return self.reps[points][:, self.kernel_rows]

    @cached_property
    def derangement_witnesses(self) -> tuple[np.ndarray, np.ndarray]:
        """(bitmap, rows): bitmap[p] = coset p contains an element fixing
        no parent point, and rows[p] is the lex-least such element, or
        the identity when there is none.

        The cosets are listed together, kernel rows then each
        representative, in blocks of whole cosets of at most
        BLOCK_ROWS rows (one coset when a coset is larger).  The
        derangements of a block are ranked by one lex sort, and each
        coset keeps the one of least rank.
        """
        n, k = self.parent.degree, len(self.kernel_rows)
        pts = np.arange(n, dtype=np.uint8)
        bitmap = np.zeros(self.order, dtype=bool)
        rows = np.empty((self.order, n), dtype=np.uint8)
        rows[:] = pts
        step = max(1, BLOCK_ROWS // k)
        for lo in range(0, self.order, step):
            block = self.coset_rows(range(lo, min(lo + step, self.order))).reshape(-1, n)
            der = np.flatnonzero(~fixes_any(block, pts))
            ranked = der[lex_order(block[der])]
            rank = np.full(len(block), len(der))
            rank[ranked] = np.arange(len(der))
            least = rank.reshape(-1, k).min(axis=1)
            found = least < len(der)
            bitmap[lo:lo + len(found)] = found
            rows[lo:lo + len(found)][found] = block[ranked[least[found]]]
        return bitmap, rows


def quotient(G: PermutationGroup, N: PermutationGroup, cap: int = QUOTIENT_CAP) -> QuotientModel:
    """Regular action of G on the cosets of a normal subgroup N.

    Each model is built once per (G, N): it is kept on N and returned to
    every later call with the same parent G, after the cap check.  Its
    kernel is a copy of N with the same generators, stabilizer chain and
    listing.

    The cosets are enumerated breadth first from the identity's: for
    each point p in order and each generator s of G in order, the coset
    of reps[p] * s gets the next point unless its key
    (``BSGS.coset_keys`` on N's chain) is known already.  The keys of
    all the (p, s) of one round of points are found in one call.  Row s
    of the walk's gen_rows is right multiplication by generator s, from
    which ``perm.cayley_table`` fills the model's table.
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
    if conj and not N.contains_rows(np.concatenate(conj)).all():
        raise GroupError("kernel is not normal in the parent")

    n, chain = G.degree, N.bsgs
    gens = rows_of(G.generators, n)
    rep_rows = [np.arange(n, dtype=np.uint8)]
    enc = {chain.coset_keys(rep_rows[0][None, :]).tobytes(): 0}
    gen_rows = np.empty((len(gens), m), dtype=np.int64)
    lo = 0
    while lo < len(rep_rows):
        hi = len(rep_rows)
        # cands[p - lo, s] = reps[p] * s
        cands = gens[:, np.array(rep_rows[lo:hi])].transpose(1, 0, 2).reshape(-1, n)
        keys = chain.coset_keys(cands).tobytes()
        for j in range(len(cands)):
            p, si = divmod(j, len(gens))
            key = keys[j * n:(j + 1) * n]
            q = enc.get(key)
            if q is None:
                q = len(rep_rows)
                if q >= m:
                    raise GroupError("coset enumeration exceeded the expected count")
                enc[key] = q
                rep_rows.append(cands[j])
            gen_rows[si, lo + p] = q
        lo = hi
    if len(rep_rows) != m:
        raise GroupError(f"coset enumeration found {len(rep_rows)} cosets, expected {m}")
    reps = np.array(rep_rows)
    reps.flags.writeable = False
    table = cayley_table(gen_rows)
    # the model holds a copy of N that shares its stabilizer chain, not N
    # itself: N holds the model, and a reference cycle would keep both
    # (and G) alive after their last use until the cyclic collector runs
    kernel = PermutationGroup(N.degree, N.generators, name=N.name)
    kernel._bsgs, kernel._listing = N.bsgs, N._listing
    model = QuotientModel(G, kernel, table, reps, N.element_rows())
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
            cands = cands[self.q2.least_in_orbits(cent)[cands]]
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
    m2s = [G2.order // N2.order for N2 in n2s]
    out = []
    for N1 in n1s:
        m = G1.order // N1.order
        for N2, m2 in zip(n2s, m2s):
            if m != m2:
                continue
            q1 = quotient(G1, N1, quotient_cap)
            q2 = quotient(G2, N2, quotient_cap)
            for iso in quotient_isomorphisms(q1, q2, dedup, iso_cap):
                out.append(SubdirectDescriptor(q1, q2, iso))
    return out


def materialize_group(desc: SubdirectDescriptor) -> PermutationGroup:
    """The subdirect product H as a permutation group on the disjoint
    union of the two parent domains (second domain shifted), held as its
    lex-sorted listing, with no stabilizer chain.

    H is listed coset by coset: for each q1 point p, every element of
    G1's coset p paired with every element of G2's coset point_map[p].
    Those pairs form a group of order |G1| * |N2| when the point map is
    an isomorphism of the quotients, which is checked first: a bijection
    that respects every Cayley-graph edge x -> x*g of q1's generating
    points g is one.  An order over ENUM_CAP raises ResourceCapExceeded
    before anything is listed.  H projects onto both factors, so its
    orbits are G1's followed by G2's shifted, and it is given them.
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
    if desc.subgroup_order > ENUM_CAP:
        raise ResourceCapExceeded(
            f"subdirect product order {desc.subgroup_order} over enumeration cap {ENUM_CAP}"
        )
    n1 = q1.parent.degree
    left = q1.coset_rows(range(m))
    right = q2.coset_rows(pm) + n1
    # pairs[p, i, j] = (left[p, i], right[p, j])
    pairs = np.empty((m, left.shape[1], right.shape[1], n1 + q2.parent.degree), dtype=np.uint8)
    pairs[..., :n1] = left[:, :, None]
    pairs[..., n1:] = right[:, None]
    listing = pairs.reshape(-1, pairs.shape[-1])
    if len(listing) != desc.subgroup_order:
        raise GroupError(
            f"listed {len(listing)} pairs, not |G1| * |N2| = {desc.subgroup_order}"
        )
    group = PermutationGroup.from_listing(lex_sorted(listing))
    group._orbits = q1.parent.orbits() + [o + n1 for o in q2.parent.orbits()]
    return group


def subdirect_derangement(desc: SubdirectDescriptor) -> Perm | None:
    """A derangement of the subdirect product on the union of the two
    domains, or None when exhaustive coset analysis rules one out.

    An element (g1, g2) deranges the union iff g1 deranges domain 1 and
    g2 deranges domain 2, so existence reduces to finding a coset of N1
    holding a derangement whose partner coset of N2 holds one too.  The
    witness pairs the tabled lex-least derangements of the first such
    coset and its partner.
    """
    bm1, rows1 = desc.q1.derangement_witnesses
    bm2, rows2 = desc.q2.derangement_witnesses
    hits = np.flatnonzero(bm1 & bm2[desc.point_map])
    if hits.size == 0:
        return None
    p = int(hits[0])
    images = np.concatenate([rows1[p], rows2[desc.point_map[p]] + desc.q1.parent.degree])
    if (images == np.arange(len(images))).any():
        raise GroupError(f"coset pair at point {p} is marked but its witness fixes a point")
    return Perm(images, validate=False)
