"""Subgroup class enumeration against known lattice counts.

Class counts per symmetric group and total subgroup counts (recovered
from class sizes via normalizer orders) are long-established values, so
they pin both the completeness and the conjugacy dedup at once.
"""

import os
import subprocess
import sys
from itertools import combinations_with_replacement

import numpy as np
import pytest

import derange.subgroups
from derange.corpus import enumerate_transitive
from derange.group import GroupError, PermutationGroup, ResourceCapExceeded
from derange.perm import Perm, rows_of
from derange.subgroups import ElementTable, subgroup_classes, table_closure
from oracles import (
    SRC, closure_rows, conjugate, direct_product, elements, project, reference_mult,
    reference_subgroup_classes,
)


def cycle_lengths(p):
    return sorted(len(c) for c in p.cycles(singletons=True))


S4 = PermutationGroup.symmetric(4)
A4 = PermutationGroup.from_cycles(4, [[(0, 1, 2)], [(1, 2, 3)]])
A5 = PermutationGroup.from_cycles(5, [[(0, 1, 2, 3, 4)], [(0, 1, 2)]])
C16 = PermutationGroup.from_cycles(16, [[tuple(range(16))]])


class TestElementTable:
    def test_rows_sorted_and_identity_first(self):
        et = ElementTable.of(S4)
        assert et.size == 24
        assert (et.rows[0] == np.arange(4, dtype=np.uint8)).all()
        lex = [r.tobytes() for r in et.rows]
        assert lex == sorted(set(lex))

    def test_index(self):
        et = ElementTable.of(S4)
        assert [et.index(et.perm(i)) for i in range(et.size)] == list(range(et.size))
        with pytest.raises(GroupError):
            ElementTable.of(A5).index(Perm.from_cycles(5, (0, 1)))

    def test_index_rejects_another_degree(self):
        with pytest.raises(GroupError, match="degree 5"):
            ElementTable.of(S4).index(Perm([0, 1, 2, 4, 3]))
        with pytest.raises(GroupError, match="degree 7"):
            ElementTable.of(PermutationGroup.symmetric(6)).index(Perm([0, 1, 6, 3, 5, 2, 4]))

    def test_mult_matches_perm_product(self):
        et = ElementTable.of(S4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            i, j = rng.integers(0, et.size, 2)
            prod = et.perm(int(i)) * et.perm(int(j))
            assert (et.rows[et.mult[i, j]] == prod.images).all()

    def test_inverse(self):
        et = ElementTable.of(S4)
        for i in range(et.size):
            assert et.mult[i, et.inv[i]] == 0
            assert et.mult[et.inv[i], i] == 0

    def test_orders(self):
        et = ElementTable.of(S4)
        for i in range(et.size):
            assert int(et.orders[i]) == et.perm(i).order

    def test_class_ids_match_conjugacy(self):
        et = ElementTable.of(S4)
        # same cycle type iff conjugate in the symmetric group
        for i in range(et.size):
            for j in range(i, et.size):
                same = cycle_lengths(et.perm(i)) == cycle_lengths(et.perm(j))
                assert (et.class_id[i] == et.class_id[j]) == same

    def test_closure(self):
        et = ElementTable.of(S4)
        got = et.closure([int(np.argmax(et.orders == 4))])
        assert len(got) == 4
        full = et.closure(list(range(1, 3)))
        sub = PermutationGroup(4, [et.perm(1), et.perm(2)])
        assert len(full) == sub.order

    def test_closure_matches_word_closure(self):
        G = PermutationGroup.symmetric(6)
        et = ElementTable.of(G)
        rng = np.random.default_rng(6)
        for _ in range(40):
            gens = rng.choice(et.size, size=int(rng.integers(1, 4)), replace=False).tolist()
            want = closure_rows(6, et.rows[gens])
            assert (et.rows[et.closure(gens)] == want).all()

    def test_mult_matches_row_by_row_table(self):
        def groups():
            yield from (PermutationGroup.symmetric(n) for n in range(2, 7))
            yield from (A5, C16)
            # found by a scan over Sym(6)'s table, which is checked first
            yield from (e.group for e in enumerate_transitive(6).entries)

        for G in groups():
            mult = ElementTable.of(G).mult
            want = reference_mult(closure_rows(G.degree, rows_of(G.generators, G.degree)))
            assert mult.dtype == want.dtype and (mult == want).all(), G.generators

    def test_generators_that_miss_part_of_the_listing_are_rejected(self):
        # from_listing trusts its caller: here Sym(4)'s listing comes with
        # a 3-cycle alone, which reaches 3 of the 24 listed elements
        listing = closure_rows(4, rows_of(S4.generators, 4))
        G = PermutationGroup.from_listing(listing, [Perm.from_cycles(4, (0, 1, 2))])
        with pytest.raises(GroupError, match="reach 3 of its 24"):
            ElementTable.of(G)

    def test_degree_16_group(self):
        et = ElementTable.of(C16)
        assert [et.index(g) for g in C16.generators] == [1]
        assert [c.order for c in subgroup_classes(C16, et)] == [1, 2, 4, 8, 16]

    def test_order_cap(self):
        with pytest.raises(ResourceCapExceeded):
            ElementTable.of(PermutationGroup.symmetric(5), cap=100)


class TestSubgroupClasses:
    @pytest.mark.parametrize(
        "n,classes,total",
        [(2, 2, 2), (3, 4, 6), (4, 11, 30), (5, 19, 156), (6, 56, 1455)],
    )
    def test_symmetric_group_lattices(self, n, classes, total):
        Sn = PermutationGroup.symmetric(n)
        et = ElementTable.of(Sn)
        cls = subgroup_classes(Sn, et)
        assert len(cls) == classes
        count = 0
        for c in cls:
            gens = c.gen_indices if c.gen_indices else [0]
            norm = et.conjugators(gens, c.indices).size
            count += et.size // norm
        assert count == total

    def test_a5_classes(self):
        cls = subgroup_classes(A5)
        assert sorted(c.order for c in cls) == [1, 2, 3, 4, 5, 6, 10, 12, 60]

    def test_cyclic_group_of_degree_15(self):
        c15 = PermutationGroup.from_cycles(15, [[tuple(range(15))]])
        assert [c.order for c in subgroup_classes(c15)] == [1, 3, 5, 15]

    def test_reps_are_subgroups_with_matching_indices(self):
        Sn = PermutationGroup.symmetric(4)
        et = ElementTable.of(Sn)
        for c in subgroup_classes(Sn, et):
            gens = [et.perm(i) for i in c.gen_indices]
            H = PermutationGroup(4, gens)
            assert H.order == c.order
            got = {Perm(et.rows[i], validate=False).key for i in c.indices}
            want = {p.key for p in elements(H)}
            assert got == want

    def test_pairwise_nonconjugate(self):
        Sn = PermutationGroup.symmetric(4)
        et = ElementTable.of(Sn)
        cls = subgroup_classes(Sn, et)
        groups = [{Perm(et.rows[i], validate=False).key for i in c.indices} for c in cls]
        elems = elements(Sn)
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                if cls[i].order != cls[j].order:
                    continue
                Hi = [Perm(et.rows[k], validate=False) for k in cls[i].indices]
                for y in elems:
                    conj = {conjugate(h, y).key for h in Hi}
                    assert conj != groups[j]

    def test_transitive_counts(self):
        for n, want in [(2, 1), (3, 2), (4, 5), (5, 5), (6, 16)]:
            Sn = PermutationGroup.symmetric(n)
            et = ElementTable.of(Sn)
            groups = [
                PermutationGroup(n, [et.perm(i) for i in c.gen_indices])
                for c in subgroup_classes(Sn, et)
            ]
            assert sum(1 for G in groups if G.is_transitive()) == want

    def test_deterministic(self):
        a = subgroup_classes(PermutationGroup.symmetric(4))
        b = subgroup_classes(PermutationGroup.symmetric(4))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.gen_indices == y.gen_indices
            assert (x.indices == y.indices).all()

    def test_includes_trivial_and_parent(self):
        cls = subgroup_classes(A5)
        assert cls[0].order == 1
        assert cls[-1].order == 60

    def test_table_of_another_group_is_rejected(self):
        # same degree, but Sym(4)'s table would list Sym(4)'s classes
        with pytest.raises(GroupError, match="order 24"):
            subgroup_classes(A4, ElementTable.of(S4))
        with pytest.raises(GroupError, match="degree-5"):
            subgroup_classes(S4, ElementTable.of(A5))

    @pytest.mark.parametrize("n,closures", [(5, 83), (6, 561)])
    def test_one_closure_per_normalizer_orbit(self, monkeypatch, n, closures):
        # trying every double coset H g H took 245 and 1961 closures; the
        # trivial group's extensions are the seeds, so it is not extended
        calls = []
        closure = derange.subgroups.table_closure

        def counted_closure(mult, gens, base=None):
            calls.append(gens)
            return closure(mult, gens, base)

        monkeypatch.setattr(derange.subgroups, "table_closure", counted_closure)
        subgroup_classes(PermutationGroup.symmetric(n))
        assert len(calls) == closures


def test_closure_from_a_subgroup_matches_closure_from_the_identity():
    # <H, g> for H over the classes of Sym(6) and three g outside each:
    # grown coset by coset from H, grown from the identity, and by word
    # closure.  A closure to all of Sym(6) returns as soon as it holds
    # more than 360 elements; one to Alt(6) holds exactly half.
    G = PermutationGroup.symmetric(6)
    et = ElementTable.of(G)
    rng = np.random.default_rng(3)
    sizes = []
    for c in subgroup_classes(G, et)[:-1]:
        outside = np.setdiff1d(np.arange(et.size), c.indices)
        for g in rng.choice(outside, size=3, replace=False).tolist():
            gens = c.gen_indices + [g]
            got = table_closure(et.mult, gens, c.indices)
            assert got.dtype == np.int64
            assert np.array_equal(got, table_closure(et.mult, gens))
            assert (et.rows[got] == closure_rows(6, et.rows[gens])).all()
            sizes.append(got.size)
    assert (sizes.count(720), sizes.count(360)) == (96, 23)


# the direct products of transitive groups of degree 2-5 that
# test_c07_goursat_matches_subgroup_scan scans, up to this order
PRODUCT_ORDER_CAP = 360


def test_subgroup_classes_match_reference():
    # dropping each candidate's whole normalizer orbit changes nothing:
    # same classes, representatives and generator lists, in order
    groups = [e.group for n in range(2, 6) for e in enumerate_transitive(n).entries]
    products = [
        direct_product(G1, G2)
        for G1, G2 in combinations_with_replacement(groups, 2)
        if G1.order * G2.order <= PRODUCT_ORDER_CAP
    ]
    assert len(products) == 71
    parents = [PermutationGroup.symmetric(n) for n in range(2, 7)] + [A5, C16] + products
    for P in parents:
        et = ElementTable.of(P)
        got = subgroup_classes(P, et)
        want = reference_subgroup_classes(P, et)
        assert len(got) == len(want), P.generators
        for a, b in zip(got, want):
            assert (a.indices == b.indices).all() and a.gen_indices == b.gen_indices


class TestProductScan:
    def test_subdirect_classes_of_a4_c2(self):
        # A4 x C2: subdirect subgroups are the direct product and the
        # fiber product over the common C2... A4 has no index-2 normal
        # subgroup, so only the direct product projects onto both
        gens = [
            Perm(np.array([1, 2, 0, 3, 4, 5], dtype=np.uint8)),
            Perm(np.array([0, 2, 3, 1, 4, 5], dtype=np.uint8)),
            Perm(np.array([0, 1, 2, 3, 5, 4], dtype=np.uint8)),
        ]
        P = PermutationGroup(6, gens)
        assert P.order == 24
        et = ElementTable.of(P)
        hits = []
        for c in subgroup_classes(P, et):
            G = PermutationGroup(6, [et.perm(i) for i in c.gen_indices] or [Perm.identity(6)])
            p1 = project(G, 0, 4)
            p2 = project(G, 4, 6)
            if p1.order == 12 and p2.order == 2:
                hits.append(c.order)
        assert hits == [24]


def test_enumeration_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, about 1.6 MB of
    # resident memory that enumeration and the cover toolkit do not need
    code = (
        "import sys; from derange.corpus import enumerate_transitive; "
        "from derange.cover import *; from derange.gf import FieldSpec; "
        "enumerate_transitive(5); min_cover_search(2, 3); "
        "check_cover(tight_cover_construct(9, 3)); "
        "good_count_bruteforce(Hyperplane.make([1, 2, 3]), FieldSpec(4)); "
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
