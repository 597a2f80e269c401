"""Quotient models, isomorphism search, Goursat enumeration.

Oracles: quotient tables are checked against the group laws directly,
isomorphism lists against an all-bijections scan and a full search
with a post-hoc dedup pass, and Goursat output against a complete
subgroup-lattice enumeration of the direct product.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from derange import subdirect
from derange.corpus import enumerate_transitive, load_corpus
from derange.derangements import TwoOrbitAction
from derange.group import BSGS, GroupError, PermutationGroup, ResourceCapExceeded
from derange.perm import Perm
from derange.pipeline import verify_degree
from derange.structure import normal_subgroups
from derange.subdirect import (
    SubdirectDescriptor,
    goursat_enumerate,
    materialize_group,
    quotient,
    quotient_isomorphisms,
    subdirect_derangement,
)
from oracles import (
    SRC,
    conjugate,
    elements,
    reference_dedup_isomorphisms,
    reference_isomorphisms,
    reference_materialize,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"


def cyc(degree, *cycles):
    return Perm.from_cycles(degree, *cycles)


S4 = PermutationGroup.from_cycles(4, [[(0, 1, 2, 3)], [(0, 1)]])
A4 = PermutationGroup.from_cycles(4, [[(0, 1, 2)], [(1, 2, 3)]])
V4 = PermutationGroup.from_cycles(4, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]])
S3 = PermutationGroup.from_cycles(3, [[(0, 1, 2)], [(0, 1)]])
A3 = PermutationGroup.from_cycles(3, [[(0, 1, 2)]])
C2 = PermutationGroup.from_cycles(2, [[(0, 1)]])
C4 = PermutationGroup.from_cycles(4, [[(0, 1, 2, 3)]])
A5 = PermutationGroup.from_cycles(5, [[(0, 1, 2, 3, 4)], [(0, 1, 2)]])


def trivial(degree):
    return PermutationGroup(degree, [])


def imprimitive_groups(degree):
    """The imprimitive transitive groups of one degree: enumerated up to
    degree 7, from the shipped fixtures above."""
    if degree <= 7:
        corpus = enumerate_transitive(degree)
    else:
        corpus = load_corpus(FIXTURES / f"degree{degree:02d}", degree)
    return [e.group for e in corpus.entries if e.group.minimal_block_systems()]


def sweep_descriptors(degree, scope):
    """Every Goursat descriptor of the imprimitive same-degree pairs with
    |G1 x G2| <= scope, normal subgroup lists shared per group."""
    normals = {}

    def normals_of(G):
        if id(G) not in normals:
            normals[id(G)] = normal_subgroups(G)
        return normals[id(G)]

    return [
        d
        for G1, G2 in itertools.combinations_with_replacement(imprimitive_groups(degree), 2)
        if G1.order * G2.order <= scope
        for d in goursat_enumerate(G1, G2, normals1=normals_of(G1), normals2=normals_of(G2))
    ]


def table_mult(model, x, y):
    return int(model.table[y, x])


def coset_lookup(model):
    """element row bytes -> the point p whose coset_rows(p) holds it"""
    return {
        row.tobytes(): p for p in range(model.order) for row in model.coset_rows(p)
    }


class TestQuotient:
    def test_s4_mod_a4(self):
        q = quotient(S4, A4)
        assert q.order == 2
        assert sorted(q.element_orders.tolist()) == [1, 2]

    def test_s4_mod_v4_is_s3_shaped(self):
        q = quotient(S4, V4)
        assert q.order == 6
        assert sorted(q.element_orders.tolist()) == [1, 2, 2, 2, 3, 3]

    def test_whole_group_gives_trivial_quotient(self):
        q = quotient(S4, S4)
        assert q.order == 1
        assert q.generating_points == []

    def test_trivial_kernel_gives_regular_model(self):
        q = quotient(S3, trivial(3))
        assert q.order == 6
        got = sorted(q.element_orders.tolist())
        want = sorted(g.order for g in elements(S3))
        assert got == want

    def test_group_laws(self):
        q = quotient(S4, V4)
        m = q.order
        for x in range(m):
            assert table_mult(q, x, 0) == x
            assert table_mult(q, 0, x) == x
        inv = q.inverse_points
        for x in range(m):
            assert table_mult(q, x, int(inv[x])) == 0
            assert table_mult(q, int(inv[x]), x) == 0
        for x, y, z in itertools.product(range(m), repeat=3):
            assert table_mult(q, table_mult(q, x, y), z) == table_mult(q, x, table_mult(q, y, z))

    def test_coset_lookup_constant_on_cosets(self):
        q = quotient(S4, V4)
        point = coset_lookup(q)
        assert len(point) == S4.order
        for g in elements(S4):
            p = point[g.images.tobytes()]
            for n in elements(V4):
                assert point[(n * g).images.tobytes()] == p
        assert point[Perm.identity(4).images.tobytes()] == 0

    def test_coset_lookup_respects_multiplication(self):
        q = quotient(S4, A4)
        point = coset_lookup(q)

        def at(g):
            return point[g.images.tobytes()]

        for g in elements(S4):
            for h in elements(S4):
                assert at(g * h) == table_mult(q, at(g), at(h))

    def test_non_normal_kernel_rejected(self):
        H = PermutationGroup.from_cycles(4, [[(0, 1)]])
        with pytest.raises(GroupError):
            quotient(S4, H)

    def test_non_subgroup_kernel_rejected(self):
        with pytest.raises(GroupError):
            quotient(A4, PermutationGroup.from_cycles(4, [[(0, 1)]]))

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapExceeded):
            quotient(S4, trivial(4), cap=23)
        assert quotient(S4, trivial(4), cap=24).order == 24

    def test_model_built_once_per_kernel_and_parent(self):
        N = trivial(4)
        q = quotient(S4, N)
        assert quotient(S4, N) is q
        other = quotient(A4, N)
        assert other is not q and other.parent is A4

    def test_cached_model_still_capped(self):
        N = trivial(4)
        assert quotient(S4, N).order == 24
        with pytest.raises(ResourceCapExceeded, match="quotient order 24 over cap 23"):
            quotient(S4, N, cap=23)
        K = trivial(4)
        goursat_enumerate(C4, C4, normals1=[K], normals2=[K])
        with pytest.raises(ResourceCapExceeded):
            goursat_enumerate(C4, C4, quotient_cap=3, normals1=[K], normals2=[K])

    def test_verify_degree9_builds_one_model_per_group_and_kernel(self, monkeypatch):
        built = []

        class Counting(subdirect.QuotientModel):
            def __init__(self, parent, kernel, *args, **kwargs):
                built.append((parent, kernel))
                super().__init__(parent, kernel, *args, **kwargs)

        monkeypatch.setattr(subdirect, "QuotientModel", Counting)
        assert verify_degree(9, corpus=load_corpus(FIXTURES / "degree09", 9)).verdict == "verified"
        assert len(built) == 63
        assert len({(id(G), tuple(g.key for g in N.generators)) for G, N in built}) == 63

    def test_generating_points_generate(self):
        for G, N in [(S4, V4), (S4, trivial(4)), (A4, V4), (C4, trivial(4))]:
            q = quotient(G, N)
            gens = q.generating_points
            prods = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for p in frontier:
                    for g in gens:
                        r = table_mult(q, p, g)
                        if r not in prods:
                            prods.add(r)
                            nxt.append(r)
                frontier = nxt
            assert len(prods) == q.order


def brute_isos(q1, q2):
    """Every multiplication-preserving bijection of quotient points,
    found by scanning all bijections fixing the identity point."""
    m = q1.order
    if q2.order != m:
        return set()
    out = set()
    for tail in itertools.permutations(range(1, m)):
        f = (0,) + tail
        if all(
            f[table_mult(q1, x, y)] == table_mult(q2, f[x], f[y])
            for x in range(m)
            for y in range(m)
        ):
            out.add(f)
    return out


@pytest.fixture(scope="module")
def degree9_searches():
    """Every (q1, q2) pair that verify_degree(9) on the fixtures searches,
    in call order."""
    searched = []
    real = subdirect.quotient_isomorphisms

    def record(q1, q2, *args, **kwargs):
        searched.append((q1, q2))
        return real(q1, q2, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subdirect, "quotient_isomorphisms", record)
        report = verify_degree(9, corpus=load_corpus(FIXTURES / "degree09", 9))
    assert report.verdict == "verified"
    return searched


class TestQuotientIsomorphisms:
    def test_trivial_quotients(self):
        isos = quotient_isomorphisms(quotient(S4, S4), quotient(A4, A4))
        assert len(isos) == 1
        assert isos[0].tolist() == [0]
        with pytest.raises(ResourceCapExceeded):
            quotient_isomorphisms(quotient(S4, S4), quotient(A4, A4), cap=0)

    def test_mismatched_orders(self):
        assert quotient_isomorphisms(quotient(C2, trivial(2)), quotient(A3, trivial(3))) == []

    def test_c4_vs_c4_two_isomorphisms(self):
        qa, qb = quotient(C4, trivial(4)), quotient(C4, trivial(4))
        isos = quotient_isomorphisms(qa, qb)
        assert len(isos) == 2
        assert brute_isos(qa, qb) == {tuple(i.tolist()) for i in isos}

    def test_v4_vs_c4_none(self):
        assert quotient_isomorphisms(quotient(V4, trivial(4)), quotient(C4, trivial(4))) == []

    def test_equal_order_statistics_different_centres(self):
        # C8 x C2 and the modular group M16 have the same element orders;
        # only their centres tell them apart, and the search alone does
        c8c2 = PermutationGroup.from_cycles(10, [[(0, 1, 2, 3, 4, 5, 6, 7)], [(8, 9)]])
        m16 = PermutationGroup(
            8, [Perm([(x + 1) % 8 for x in range(8)]), Perm([5 * x % 8 for x in range(8)])]
        )
        qa, qb = quotient(c8c2, trivial(10)), quotient(m16, trivial(8))
        assert qa.order == qb.order == 16
        assert sorted(qa.element_orders.tolist()) == sorted(qb.element_orders.tolist())

        def centre_size(q):
            return int((q.table == q.table.T).all(axis=1).sum())

        assert (centre_size(qa), centre_size(qb)) == (16, 4)
        for q1, q2 in [(qa, qb), (qb, qa)]:
            assert reference_isomorphisms(q1, q2) == []
            assert quotient_isomorphisms(q1, q2, dedup=False) == []
            assert quotient_isomorphisms(q1, q2, dedup=True) == []

    def test_s3_self_isomorphisms(self):
        qa, qb = quotient(S3, trivial(3)), quotient(S3, trivial(3))
        raw = quotient_isomorphisms(qa, qb, dedup=False)
        assert len(raw) == 6
        assert brute_isos(qa, qb) == {tuple(i.tolist()) for i in raw}
        assert len(quotient_isomorphisms(qa, qb, dedup=True)) == 1

    def test_v4_self_isomorphisms_survive_dedup(self):
        qa, qb = quotient(V4, trivial(4)), quotient(V4, trivial(4))
        raw = quotient_isomorphisms(qa, qb, dedup=False)
        assert len(raw) == 6
        assert len(quotient_isomorphisms(qa, qb, dedup=True)) == 6

    def test_s4_mod_v4_matches_s3(self):
        qa, qb = quotient(S4, V4), quotient(S3, trivial(3))
        raw = quotient_isomorphisms(qa, qb, dedup=False)
        assert len(raw) == 6
        assert brute_isos(qa, qb) == {tuple(i.tolist()) for i in raw}
        assert len(quotient_isomorphisms(qa, qb, dedup=True)) == 1

    def test_maps_are_isomorphisms(self):
        qa, qb = quotient(S4, V4), quotient(S3, trivial(3))
        for iso in quotient_isomorphisms(qa, qb, dedup=False):
            f = iso.tolist()
            assert sorted(f) == list(range(6))
            for x in range(6):
                for y in range(6):
                    assert f[table_mult(qa, x, y)] == table_mult(qb, f[x], f[y])

    def test_match_reference_on_degree9_verify(self, degree9_searches):
        # every quotient pair verify_degree(9) searches, in the reference's
        # order and form
        assert len(degree9_searches) == 377
        for q1, q2 in degree9_searches:
            got = [iso.tolist() for iso in quotient_isomorphisms(q1, q2, dedup=False)]
            want = [iso.tolist() for iso in reference_isomorphisms(q1, q2)]
            assert got == want, (q1.parent.name, q1.kernel.order, q2.parent.name, q2.kernel.order)

    def test_dedup_matches_reference_on_degree9_verify(self, degree9_searches):
        found = kept = 0
        for q1, q2 in degree9_searches:
            got = [iso.tolist() for iso in quotient_isomorphisms(q1, q2, dedup=True)]
            want = [iso.tolist() for iso in reference_dedup_isomorphisms(q1, q2)]
            assert got == want, (q1.parent.name, q1.kernel.order, q2.parent.name, q2.kernel.order)
            found += len(quotient_isomorphisms(q1, q2, dedup=False))
            kept += len(got)
        assert (found, kept) == (4156, 433)

    @pytest.mark.parametrize("degree, scope", [(4, 10**5), (6, 10**5), (10, 2 * 10**4)])
    def test_dedup_matches_reference_on_sweep(self, degree, scope):
        # every quotient pair of the imprimitive same-degree Goursat sweep
        # with |G1 x G2| <= scope
        groups = imprimitive_groups(degree)
        normals = {id(G): normal_subgroups(G) for G in groups}
        searches = 0
        for G1, G2 in itertools.combinations_with_replacement(groups, 2):
            if G1.order * G2.order > scope:
                continue
            for N1 in normals[id(G1)]:
                for N2 in normals[id(G2)]:
                    if G1.order // N1.order != G2.order // N2.order:
                        continue
                    q1, q2 = quotient(G1, N1), quotient(G2, N2)
                    got = [iso.tolist() for iso in quotient_isomorphisms(q1, q2, dedup=True)]
                    want = [iso.tolist() for iso in reference_dedup_isomorphisms(q1, q2)]
                    assert got == want, (G1.name, N1.order, G2.name, N2.order)
                    searches += 1
        assert searches > 0

    def test_iso_cap(self):
        qa, qb = quotient(V4, trivial(4)), quotient(V4, trivial(4))
        with pytest.raises(ResourceCapExceeded):
            quotient_isomorphisms(qa, qb, dedup=False, cap=3)

    def test_iso_cap_counts_kept_maps_with_dedup(self):
        # S3 has 6 automorphisms, all inner: one is kept
        qa, qb = quotient(S3, trivial(3)), quotient(S3, trivial(3))
        assert len(quotient_isomorphisms(qa, qb, dedup=True, cap=1)) == 1
        with pytest.raises(ResourceCapExceeded):
            quotient_isomorphisms(qa, qb, dedup=False, cap=1)


def subgroup_scan(G):
    """Every subgroup of G, by breadth-first closure growth: adjoin one
    element at a time starting from the trivial group."""
    rows = G.element_rows()
    elems = [Perm(r, validate=False) for r in rows]
    seen = {}
    triv = PermutationGroup(G.degree, [])
    key = frozenset(p.key for p in elements(triv))
    seen[key] = triv
    frontier = [triv]
    while frontier:
        nxt = []
        for H in frontier:
            for g in elems:
                K = PermutationGroup(G.degree, H.generators + [g])
                k = frozenset(p.key for p in elements(K))
                if k not in seen:
                    seen[k] = K
                    nxt.append(K)
        frontier = nxt
    return list(seen.values())


def conjugacy_reps(G, subs):
    """Deduplicate subgroups up to conjugacy inside G."""
    reps = []
    for H in subs:
        found = False
        for R in reps:
            if R.order != H.order:
                continue
            for g in elements(G):
                conj = PermutationGroup(G.degree, [conjugate(h, g) for h in H.generators])
                if conj.same_group(R):
                    found = True
                    break
            if found:
                break
        if not found:
            reps.append(H)
    return reps


def brute_subdirect_classes(G1, G2):
    """Conjugacy classes of subgroups of G1 x G2 projecting onto both."""
    n1 = G1.degree
    prod_gens = [Perm(np.concatenate([g.images, np.arange(G2.degree, dtype=np.uint8) + n1]), validate=False) for g in G1.generators]
    prod_gens += [Perm(np.concatenate([np.arange(n1, dtype=np.uint8), g.images + n1]), validate=False) for g in G2.generators]
    P = PermutationGroup(n1 + G2.degree, prod_gens)
    assert P.order == G1.order * G2.order
    keep = []
    for H in subgroup_scan(P):
        p1, _ = H.induced_action(list(range(n1)))
        p2, _ = H.induced_action(list(range(n1, n1 + G2.degree)))
        if p1.order == G1.order and p2.order == G2.order:
            keep.append(H)
    return conjugacy_reps(P, keep)


class TestGoursat:
    def test_c2_c2(self):
        descs = goursat_enumerate(C2, C2)
        assert len(descs) == 2
        assert sorted(d.quotient_order for d in descs) == [1, 2]
        assert sorted(d.subgroup_order for d in descs) == [2, 4]

    def test_s3_s3(self):
        on = goursat_enumerate(S3, S3)
        off = goursat_enumerate(S3, S3, dedup=False)
        assert len(on) == 3 and len(off) == 8
        assert sorted(d.quotient_order for d in on) == [1, 2, 6]
        assert sorted(d.quotient_order for d in off) == [1, 2, 6, 6, 6, 6, 6, 6]

    def test_a5_c2_direct_only(self):
        descs = goursat_enumerate(A5, C2)
        assert len(descs) == 1
        assert descs[0].quotient_order == 1
        assert descs[0].subgroup_order == 120

    def test_c4_c4_hand_count(self):
        # subdirect subgroups of C4 x C4: the full product, one index-2
        # subgroup, and the two twisted diagonals; all survive dedup
        # because inner automorphisms are trivial on an abelian group
        descs = goursat_enumerate(C4, C4)
        assert len(descs) == 4
        assert sorted(d.subgroup_order for d in descs) == [4, 4, 8, 16]
        assert goursat_enumerate(C4, C4, dedup=False) and len(goursat_enumerate(C4, C4, dedup=False)) == 4

    def test_matches_subgroup_scan_s3_s3(self):
        descs = goursat_enumerate(S3, S3)
        brute = brute_subdirect_classes(S3, S3)
        assert len(descs) == len(brute)
        assert sorted(d.subgroup_order for d in descs) == sorted(H.order for H in brute)
        P = PermutationGroup(
            6,
            [cyc(6, (0, 1, 2)), cyc(6, (0, 1)), cyc(6, (3, 4, 5)), cyc(6, (3, 4))],
        )
        for d in descs:
            G = materialize_group(d)
            hit = sum(
                1
                for H in brute
                if H.order == G.order
                and any(
                    PermutationGroup(6, [conjugate(h, g) for h in G.generators]).same_group(H)
                    for g in elements(P)
                )
            )
            assert hit == 1

    def test_matches_subgroup_scan_c4_v4(self):
        descs = goursat_enumerate(C4, V4)
        brute = brute_subdirect_classes(C4, V4)
        assert sorted(d.subgroup_order for d in descs) == sorted(H.order for H in brute)

    def test_matches_subgroup_scan_s3_c4(self):
        descs = goursat_enumerate(S3, C4)
        brute = brute_subdirect_classes(S3, C4)
        assert sorted(d.subgroup_order for d in descs) == sorted(H.order for H in brute)

    def test_quotient_cap_propagates(self):
        with pytest.raises(ResourceCapExceeded):
            goursat_enumerate(C4, C4, quotient_cap=3)

    def test_degree_envelope_enforced(self):
        # 200 + 60 points would wrap the uint8 images of the product
        with pytest.raises(GroupError, match="exceed the 250-point envelope"):
            goursat_enumerate(trivial(200), trivial(60))
        descs = goursat_enumerate(trivial(125), trivial(125))
        assert [d.subgroup_order for d in descs] == [1]
        assert materialize_group(descs[0]).degree == 250

    def test_shared_normal_list_matches_separate_lists(self):
        # one list for both factors makes q1 and q2 the same model object
        # wherever N1 is N2
        def summary(descs):
            return [
                (d.q1.kernel.order, d.q2.kernel.order, d.point_map.tolist(),
                 subdirect_derangement(d))
                for d in descs
            ]

        D4 = PermutationGroup.from_cycles(4, [[(0, 1, 2, 3)], [(1, 3)]])
        for G in (S4, D4, V4, C4):
            ns = normal_subgroups(G)
            shared = goursat_enumerate(G, G, normals1=ns, normals2=ns)
            apart = goursat_enumerate(
                G, G, normals1=normal_subgroups(G), normals2=normal_subgroups(G)
            )
            assert any(d.q1 is d.q2 for d in shared)
            assert not any(d.q1 is d.q2 for d in apart)
            assert summary(shared) == summary(apart)

    def test_deterministic(self):
        a = goursat_enumerate(S3, S3, dedup=False)
        b = goursat_enumerate(S3, S3, dedup=False)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.quotient_order == y.quotient_order
            assert x.point_map.tolist() == y.point_map.tolist()
            assert x.q1.kernel.same_group(y.q1.kernel)
            assert x.q2.kernel.same_group(y.q2.kernel)


class TestMaterialize:
    def test_diagonal_c2(self):
        d = next(d for d in goursat_enumerate(C2, C2) if d.quotient_order == 2)
        act = TwoOrbitAction.of(materialize_group(d))
        assert act.group.order == 2
        assert act.n == 2
        assert act.omega1 == (0, 1) and act.omega2 == (2, 3)
        g = elements(act.group)
        assert sorted(p.images.tolist() for p in g) == [[0, 1, 2, 3], [1, 0, 3, 2]]

    def test_order_law_and_projections(self):
        for G1, G2 in [(S3, S3), (C4, C4), (S4, S3), (C4, V4)]:
            for d in goursat_enumerate(G1, G2):
                G = materialize_group(d)
                assert G.order == d.subgroup_order == G1.order * d.q2.kernel.order
                p1, _ = G.induced_action(list(range(G1.degree)))
                p2, _ = G.induced_action(list(range(G1.degree, G1.degree + G2.degree)))
                assert p1.order == G1.order
                assert p2.order == G2.order

    def test_point_map_not_an_isomorphism_rejected(self):
        d = next(d for d in goursat_enumerate(S3, S3) if d.quotient_order == 6)
        g3, g2 = d.q1.generating_points  # orders 3 and 2
        bad = d.point_map.copy()
        bad[g3], bad[g2] = d.point_map[g2], d.point_map[g3]
        with pytest.raises(GroupError, match="not an isomorphism"):
            materialize_group(SubdirectDescriptor(d.q1, d.q2, bad))

    def test_point_map_not_a_bijection_rejected(self):
        # sending every point to the identity respects every Cayley-graph
        # edge (the trivial homomorphism), so only the bijection check fails
        d = next(d for d in goursat_enumerate(S3, S3) if d.quotient_order == 6)
        bad = np.zeros_like(d.point_map)
        gens = d.q1.generating_points
        assert (d.q2.table[bad[gens]][:, bad] == bad[d.q1.table[gens]]).all()
        with pytest.raises(GroupError, match="not an isomorphism"):
            materialize_group(SubdirectDescriptor(d.q1, d.q2, bad))

    def test_point_map_of_the_wrong_length_rejected(self):
        d = next(d for d in goursat_enumerate(S3, S3) if d.quotient_order == 6)
        with pytest.raises(GroupError, match="not an isomorphism"):
            materialize_group(SubdirectDescriptor(d.q1, d.q2, d.point_map[:3]))

    def test_chain_is_built_without_schreier_sims(self, monkeypatch):
        descs = goursat_enumerate(S4, S3)  # builds the factor chains it needs
        calls = []
        real = BSGS._verify_level

        def counted(chain, i):
            calls.append(i)
            return real(chain, i)

        monkeypatch.setattr(BSGS, "_verify_level", counted)
        groups = [materialize_group(d) for d in descs]
        assert [G.order for G in groups] == [d.subgroup_order for d in descs]
        assert calls == []
        reference_materialize(descs[-1])
        assert calls  # the counter sees a Schreier-Sims run

    def test_coset_point_of_a_non_member_rejected(self):
        q = quotient(A4, V4)
        assert [q.point_of(r) for r in q.reps] == list(range(q.order))
        with pytest.raises(GroupError, match="no coset"):
            q.point_of(cyc(4, (0, 1)))  # odd, so outside A4

    def test_materialized_elements_satisfy_matching(self):
        for d in goursat_enumerate(S4, S3):
            G = materialize_group(d)
            pm = d.point_map
            point1, point2 = coset_lookup(d.q1), coset_lookup(d.q2)
            for row in G.element_rows():
                left, right = row[:4], row[4:] - 4
                assert int(pm[point1[left.tobytes()]]) == point2[right.tobytes()]


class TestChainFromFactors:
    """The chain materialize_group builds from the factors' chains
    against Schreier-Sims on the same product's generators."""

    @pytest.mark.parametrize(
        "degree, scope, products", [(4, 10**5, 62), (6, 10**5, 461), (10, 1200, 146)]
    )
    def test_matches_schreier_sims_on_sweep(self, degree, scope, products):
        descs = sweep_descriptors(degree, scope)
        assert len(descs) == products
        for d in descs:
            H, R = materialize_group(d), reference_materialize(d)
            c1, c2 = d.q1.parent.bsgs, d.q2.kernel.bsgs
            n1 = d.q1.parent.degree
            assert H.order == R.order
            assert H.is_subgroup_of(R) and R.is_subgroup_of(H)
            assert H.bsgs.base == c1.base + [b + n1 for b in c2.base]
            sizes = [len(t) for t in H.bsgs.transversal_rows()]
            assert sizes == [len(t) for t in c1.transversal_rows() + c2.transversal_rows()]


def test_materialize_and_sylow_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, about 1.5 MB of
    # resident memory that the sweep's per-product work does not need
    code = (
        "import sys\n"
        "from derange.derangements import TwoOrbitAction, sylow_certificate\n"
        "from derange.group import PermutationGroup\n"
        "from derange.subdirect import goursat_enumerate, materialize_group\n"
        "D12 = PermutationGroup.from_cycles(6, [[(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)]])\n"
        "C6 = PermutationGroup.from_cycles(6, [[(0, 1, 2, 3, 4, 5)]])\n"
        "for d in goursat_enumerate(D12, C6):\n"
        "    sylow_certificate(TwoOrbitAction.of(materialize_group(d)), 3)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def brute_derangement(G):
    idx = np.arange(G.degree, dtype=np.uint8)
    rows = G.element_rows()
    hit = ~(rows == idx[None, :]).any(axis=1)
    if not hit.any():
        return None
    cand = rows[hit]
    return Perm(cand[np.lexsort(cand.T[::-1])][0], validate=False)


def covered_sylow_group():
    a = cyc(12, (0, 1, 2), (6, 7, 8), (9, 10, 11))
    b = cyc(12, (3, 4, 5), (6, 7, 8), (9, 11, 10))
    s = Perm(np.array([3, 4, 5, 0, 2, 1, 9, 11, 10, 6, 7, 8], dtype=np.uint8))
    return PermutationGroup(12, [a, b, s], name="covered sylow")


class TestSubdirectDerangement:
    def test_diagonal_c2_witness(self):
        d = next(d for d in goursat_enumerate(C2, C2) if d.quotient_order == 2)
        w = subdirect_derangement(d)
        assert w is not None
        assert w.images.tolist() == [1, 0, 3, 2]

    def test_agrees_with_exhaustive_scan(self):
        for G1, G2 in [(S3, S3), (C4, C4), (S4, S3), (C4, V4), (A4, S3)]:
            for d in goursat_enumerate(G1, G2, dedup=False):
                got = subdirect_derangement(d)
                want = brute_derangement(materialize_group(d))
                assert (got is None) == (want is None)
                if got is not None:
                    n1, n2 = G1.degree, G2.degree
                    assert not (got.images == np.arange(n1 + n2, dtype=np.uint8)).any()
                    assert Perm(got.images[:n1], validate=False) in G1
                    assert Perm(got.images[n1:] - n1, validate=False) in G2

    def test_witness_lies_in_subgroup(self):
        for d in goursat_enumerate(S4, S3):
            w = subdirect_derangement(d)
            if w is not None:
                assert w in materialize_group(d)

    def test_no_derangement_case_detected(self):
        # S4 on its 4 points plus the 3 partitions into pairs is covered
        # by point stabilizers: 3-cycles and transpositions fix a point,
        # 4-cycles and double transpositions fix a partition; the
        # matching Goursat descriptor must report verified absence
        descs = [
            d
            for d in goursat_enumerate(S4, S3)
            if d.quotient_order == 6 and d.subgroup_order == 24
        ]
        assert len(descs) == 1
        d = descs[0]
        assert d.q1.kernel.same_group(V4)
        assert subdirect_derangement(d) is None
        assert brute_derangement(materialize_group(d)) is None

    def test_two_orbit_group_reconstructed_by_goursat(self):
        # a two-orbit group whose Sylow 3-subgroup is covered by point
        # stabilizers while the full group is not: the enumeration of
        # its projections must contain it, with a correct witness
        G = covered_sylow_group()
        want = brute_derangement(G)
        assert want is not None
        G1, _ = G.induced_action(list(range(6)))
        G2, _ = G.induced_action(list(range(6, 12)))
        hit = 0
        for d in goursat_enumerate(G1, G2, dedup=False):
            got = subdirect_derangement(d)
            assert (got is None) == (brute_derangement(materialize_group(d)) is None)
            if materialize_group(d).same_group(G):
                hit += 1
                assert got is not None
        assert hit == 1

    def test_conjugate_descriptors_agree(self):
        descs = [d for d in goursat_enumerate(S3, S3, dedup=False) if d.quotient_order == 6]
        assert len(descs) == 6
        outcomes = {subdirect_derangement(d) is None for d in descs}
        assert outcomes == {False}
