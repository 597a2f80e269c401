from pathlib import Path

import numpy as np
import pytest

from derange import GroupError, Perm, PermutationGroup, ResourceCapExceeded, pipeline, structure
from derange.corpus import enumerate_transitive, load_corpus
from derange.group import BSGS
from derange.perm import lex_keys, lex_sorted, rows_of
from derange.structure import (
    ConjugacyClassTable,
    class_products,
    conjugacy_classes,
    is_prime,
    normal_closure,
    normal_subgroups,
    p_element_rows,
    p_part,
    sylow_subgroup,
)
from oracles import (
    chain_group,
    chain_normal_subgroups,
    class_sizes,
    class_union_normal_subgroups,
    closure_rows,
    conjugate,
    elements,
    reference_conjugacy_classes,
    reference_normal_subgroups,
    reference_sylow_subgroup,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"


def stock(name):
    table = {
        "C6": (6, [[(0, 1, 2, 3, 4, 5)]]),
        "S3": (3, [[(0, 1, 2)], [(0, 1)]]),
        "D4": (4, [[(0, 1, 2, 3)], [(0, 2)]]),
        "A4": (4, [[(0, 1, 2)], [(1, 2, 3)]]),
        "S4": (4, [[(0, 1, 2, 3)], [(0, 1)]]),
        "D5": (5, [[(0, 1, 2, 3, 4)], [(1, 4), (2, 3)]]),
        "F20": (5, [[(0, 1, 2, 3, 4)], [(1, 2, 4, 3)]]),
        "A5": (5, [[(0, 1, 2)], [(0, 1, 2, 3, 4)]]),
        "S5": (5, [[(0, 1, 2, 3, 4)], [(0, 1)]]),
        "S3xS3": (6, [[(0, 1, 2)], [(0, 1)], [(3, 4, 5)], [(3, 4)]]),
        "PSL(2,7)": (8, [[(0, 1, 2, 3, 4, 5, 6)], [(0, 7), (1, 6), (2, 3), (4, 5)]]),
    }
    degree, cycgens = table[name]
    return PermutationGroup.from_cycles(degree, cycgens, name=name)


def brute_classes(group):
    """Pairwise conjugation over the listed elements."""
    els = elements(group)
    left = {e.key: e for e in els}
    out = []
    while left:
        k = min(left)
        e = left[k]
        cls = {conjugate(e, g).key for g in els}
        out.append((k, len(cls)))
        for c in cls:
            del left[c]
    return sorted(out, key=lambda t: (t[1], t[0]))


def table_as_pairs(table):
    return sorted(((c.rep.key, c.size) for c in table), key=lambda t: (t[1], t[0]))


def test_p_part_and_is_prime():
    assert p_part(24, 2) == 8
    assert p_part(24, 3) == 3
    assert p_part(24, 5) == 1
    assert p_part(3628800, 2) == 256
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("name", ["C6", "S3", "D4", "A4", "S4", "D5", "F20", "A5", "S3xS3"])
def test_classes_match_brute_force(name):
    g = stock(name)
    table = conjugacy_classes(g)
    assert table_as_pairs(table) == brute_classes(g)


def test_class_sizes_s4():
    table = conjugacy_classes(stock("S4"))
    assert sorted(class_sizes(table)) == [1, 3, 6, 6, 8]
    # each size divides the order, and the equation closes
    assert sum(class_sizes(table)) == 24
    assert all(24 % s == 0 for s in class_sizes(table))


def test_class_sizes_a5_and_s5():
    assert sorted(class_sizes(conjugacy_classes(stock("A5")))) == [1, 12, 12, 15, 20]
    assert sorted(class_sizes(conjugacy_classes(stock("S5")))) == [1, 10, 15, 20, 20, 24, 30]


def brute_class(group, rep):
    """The keys of rep's conjugates by every element."""
    return {conjugate(rep, g).key for g in elements(group)}


def test_class_reps_are_lex_least():
    table = conjugacy_classes(stock("A5"))
    for cls in table:
        keys = brute_class(table.group, cls.rep)
        assert len(keys) == cls.size
        assert min(keys) == cls.rep.key


def test_over_cap_raises_before_any_orbit_search(monkeypatch):
    def no_orbit_search(rows):
        raise RuntimeError("class orbit search ran on an over-cap group")

    monkeypatch.setattr("derange.structure.lex_keys", no_orbit_search)
    with pytest.raises(ResourceCapExceeded, match="order 40320 exceeds enumeration cap 100"):
        conjugacy_classes(PermutationGroup.symmetric(8), cap=100)


def test_centralizer_order_matches_brute_force():
    g = stock("S4")
    els = elements(g)
    table = conjugacy_classes(g)
    for cls in table:
        cent = sum(1 for x in els if (x * cls.rep) == (cls.rep * x))
        assert g.order // cls.size == cent


def test_class_rows_are_whole_class():
    g = stock("S3xS3")
    table = conjugacy_classes(g)
    rep = Perm.from_cycles(6, (0, 1, 2))
    c = table.class_of[np.searchsorted(lex_keys(table.rows), lex_keys(rep.images[None, :]))[0]]
    assert {r.tobytes() for r in table.rows[table.class_of == c]} == brute_class(g, rep)


def class_of_perm(table, g):
    return int(table.class_of[np.searchsorted(lex_keys(table.rows), lex_keys(g.images[None, :]))[0]])


def test_normal_closure_examples():
    s4 = stock("S4")
    table = conjugacy_classes(s4)
    ident, dbl, three, trans = (
        1 << class_of_perm(table, Perm.from_cycles(4, *cycles))
        for cycles in ([], [(0, 1), (2, 3)], [(0, 1, 2)], [(0, 1)])
    )
    # the double transpositions and the identity are the Klein four-group
    v4 = normal_closure(table, ident | dbl)
    assert v4.order == 4
    # with the 3-cycles they are A4
    a4 = normal_closure(table, ident | dbl | three)
    assert a4.order == 12
    assert normal_closure(table, (1 << len(table)) - 1).order == 24
    # the listing is the member's elements, lex-sorted, and its chain
    # and generators agree with it
    a4_rows = closure_rows(4, rows_of(stock("A4").generators, 4))
    assert [r.tobytes() for r in a4.element_rows()] == [r.tobytes() for r in a4_rows]
    assert a4.bsgs.order == 12
    assert sorted(r.tobytes() for r in closure_rows(4, rows_of(a4.generators, 4))) == _element_set(a4)
    # closure is invariant under conjugation by each generator
    for gen in s4.generators:
        assert all(conjugate(h, gen) in v4 for h in elements(v4))
    # ten elements are no subgroup: a transposition times a double
    # transposition is a 4-cycle
    with pytest.raises(GroupError, match="not closed under products"):
        normal_closure(table, ident | dbl | trans)


def brute_normal_subgroups(group):
    """All subsets closed as subgroups and under conjugation; order list."""
    from itertools import combinations

    els = elements(group)
    keys = {e.key for e in els}
    orders = []
    # enumerate subgroups as subsets generated by at most 3 elements; for
    # groups of order <= 24 every subgroup is at most 3-generated
    seen = set()
    cands = [[], *([e] for e in els)]
    cands += [list(p) for p in combinations(els, 2)]
    for gens in cands:
        h = PermutationGroup(group.degree, gens)
        hk = frozenset(e.key for e in elements(h))
        if hk in seen:
            continue
        seen.add(hk)
        normal = all(conjugate(x, g).key in hk for x in elements(h) for g in group.generators)
        if normal:
            orders.append(len(hk))
    return sorted(orders)


@pytest.mark.parametrize("name", ["C6", "S3", "D4", "A4", "S4", "D5", "F20"])
def test_normal_subgroups_match_brute_force(name):
    g = stock(name)
    norms = normal_subgroups(g)
    # every reported subgroup really is normal
    for h in norms:
        assert h.is_subgroup_of(g)
        for x in h.generators:
            for gen in g.generators:
                assert conjugate(x, gen) in h
    got = sorted(h.order for h in norms)
    want = brute_normal_subgroups(g)
    # brute force only sees 2-generated subgroups; every normal subgroup
    # of these groups is, so the comparison is exact
    assert got == want, name


def element_sets(groups):
    return [_element_set(h) for h in groups]


def in_lattice_order(group, members):
    """The members sorted as normal_subgroups sorts them: by order, then
    by class mask."""
    table = conjugacy_classes(group)
    return sorted(members, key=lambda h: (h.order, class_mask(table, h)))


def corpus_of(degree):
    if degree <= 7:
        return enumerate_transitive(degree)
    return load_corpus(FIXTURES / f"degree{degree:02d}", degree)


def imprimitive_groups(degree, max_order=None):
    return [
        e.group for e in corpus_of(degree).entries
        if e.group.minimal_block_systems() and (max_order is None or e.group.order <= max_order)
    ]


# The plain round loop builds a chain for every join of every round, so
# its cost grows with the number of normal subgroups: the degree-8 group
# of order 32 with 68 of them alone takes seconds.  The scope is every
# imprimitive group at degrees 4, 6 and 9, those of order <= 24 at
# degree 8 (14 of 43) and those of order <= 1000 at degree 10 (28 of 36).
REFERENCE_ORDER_SCOPE = {8: 24, 10: 1000}


@pytest.mark.parametrize("degree", [4, 6, 8, 9, 10])
def test_normal_subgroups_match_reference_round_loop(degree):
    # the class-mask lattice finds the plain loop's subgroups, element
    # set for element set, in order and class-mask order
    groups = imprimitive_groups(degree, REFERENCE_ORDER_SCOPE.get(degree))
    assert groups
    for g in groups:
        want = in_lattice_order(g, reference_normal_subgroups(g))
        assert element_sets(normal_subgroups(g)) == element_sets(want), g.name


# every corpus group of degrees 2-10 but A10 and S10, whose orders are
# over the class cap: the builtin listings at degrees 2-7 and the shipped
# fixtures at 8-10
CORPUS_LATTICE_GROUPS = 163


def test_normal_subgroups_match_chain_lattice_on_corpus():
    # the same members as one Schreier-Sims normal closure per new mask
    checked = 0
    for degree in range(2, 11):
        for e in corpus_of(degree).entries:
            if e.group.order > 10**6:
                continue
            got = normal_subgroups(e.group)
            assert [h.order for h in got] == sorted(h.order for h in got)
            want = in_lattice_order(e.group, chain_normal_subgroups(e.group))
            assert element_sets(got) == element_sets(want), e.name
            checked += 1
    assert checked == CORPUS_LATTICE_GROUPS


def test_normal_subgroups_over_several_join_rounds():
    # in (C2)^4 every subgroup is normal; one of order 8 joins three
    # atoms, so it first appears in the second round of joins
    g = PermutationGroup.from_cycles(8, [[(0, 1)], [(2, 3)], [(4, 5)], [(6, 7)]])
    norms = normal_subgroups(g)
    assert [sum(h.order == 2**k for h in norms) for k in range(5)] == [1, 15, 35, 15, 1]
    assert element_sets(norms) == element_sets(in_lattice_order(g, reference_normal_subgroups(g)))


def test_normal_closure_runs_once_per_new_member(monkeypatch):
    # verify_degree(9) asks for the lattices of 11 fixture groups; each
    # member, the trivial group too, is built once off its own mask,
    # however many atoms and joins land on it
    calls = []
    lattices = []
    closure, lattice = structure.normal_closure, pipeline.normal_subgroups

    def counted_closure(table, mask):
        calls.append((table.group.name, mask))
        return closure(table, mask)

    def recorded_lattice(group, class_cap):
        lattices.append(lattice(group, class_cap=class_cap))
        return lattices[-1]

    monkeypatch.setattr(structure, "normal_closure", counted_closure)
    monkeypatch.setattr(pipeline, "normal_subgroups", recorded_lattice)
    report = pipeline.verify_degree(9, corpus=corpus_of(9))
    assert report.verdict == "verified"
    assert len(lattices) == 11
    assert len(calls) == len(set(calls)) == sum(len(ns) for ns in lattices) == 87


def class_mask(table, h):
    """The classes of a class table met by the elements of h, as a mask."""
    rows = h.element_rows()
    pos = np.searchsorted(lex_keys(table.rows), lex_keys(rows))
    assert (table.rows[pos] == rows).all(), "an element of h is not in the table's group"
    return sum(1 << int(c) for c in np.unique(table.class_of[pos]))


@pytest.mark.parametrize("degree", [6, 9])
def test_member_masks_are_closed_unions_of_classes(degree):
    for g in imprimitive_groups(degree):
        table = conjugacy_classes(g)
        supp = class_products(table)
        for h in normal_subgroups(g):
            mask = class_mask(table, h)
            inside = [c for c in range(len(table)) if mask >> c & 1]
            # whole classes, no more and no fewer elements than the order
            assert sum(table.classes[c].size for c in inside) == h.order
            assert all(not supp[i][j] & ~mask for i in inside for j in inside)


@pytest.mark.parametrize("name", ["S4", "S3xS3", "D5"])
def test_class_products_match_all_pairs(name):
    # from all |C_i| * |C_j| products, not the rep times C_j
    g = stock(name)
    table = conjugacy_classes(g)
    keys = lex_keys(table.rows)
    members = [table.rows[table.class_of == c] for c in range(len(table))]
    supp = class_products(table)
    for i, ci in enumerate(members):
        for j, cj in enumerate(members):
            # cj[:, ci][b, a] is ci[a] * cj[b]
            products = cj[:, ci].reshape(-1, g.degree)
            met = np.unique(table.class_of[np.searchsorted(keys, lex_keys(products))])
            assert supp[i][j] == sum(1 << int(c) for c in met), (i, j)


# The scan visits all 2^(k-1) unions of k classes, so it is held to the
# corpus groups of order <= 2000 with at most 14 classes, at degrees 2-6
# (the builtin listing) and 8-10 (the shipped fixtures): 122 groups.
# Degree 7 is left out because listing it takes seconds; its five groups
# in scope have at most 7 classes.
def test_normal_subgroup_orders_match_class_union_scan():
    pytest.importorskip("sympy.combinatorics")
    checked = 0
    for degree in (2, 3, 4, 5, 6, 8, 9, 10):
        for e in corpus_of(degree).entries:
            g = e.group
            if g.order > 2000 or len(conjugacy_classes(g)) > 14:
                continue
            assert sorted(h.order for h in normal_subgroups(g)) == class_union_normal_subgroups(g), e.name
            checked += 1
    assert checked == 122


def test_member_order_off_its_classes_raises(monkeypatch):
    # a product table that adds the transpositions to the square of the
    # double transpositions in S4 (and keeps the products of those two
    # classes inside them and the identity) closes the double
    # transpositions to a union of ten elements, which the member's
    # check rejects; a table that only adds classes cannot do this, as a
    # union closed under it is closed under the true products
    table = conjugacy_classes(stock("S4"))
    ident, dbl, trans = (class_of_perm(table, Perm.from_cycles(4, *c)) for c in ([], [(0, 1), (2, 3)], [(0, 1)]))
    ten = 1 << ident | 1 << dbl | 1 << trans
    real = structure.class_products

    def added_class(table):
        supp = real(table)
        for i in (dbl, trans):
            for j in (dbl, trans):
                supp[i][j] = ten
        return supp

    monkeypatch.setattr(structure, "class_products", added_class)
    with pytest.raises(GroupError, match=f"mask {ten:#x} are not closed under products"):
        normal_subgroups(stock("S4"))


def test_normal_subgroup_counts():
    assert [h.order for h in normal_subgroups(stock("S4"))] == [1, 4, 12, 24]
    assert [h.order for h in normal_subgroups(stock("A5"))] == [1, 60]
    assert [h.order for h in normal_subgroups(stock("PSL(2,7)"))] == [1, 168]
    # factor products plus the equal-parity kernel of order 18
    assert [h.order for h in normal_subgroups(stock("S3xS3"))] == [
        1, 3, 3, 6, 6, 9, 18, 18, 18, 36,
    ]


def test_p_element_rows():
    g = stock("S4")
    rows = p_element_rows(g, 2)
    # 2-elements of S4: six transpositions, three double transpositions,
    # six 4-cycles
    assert rows.shape[0] == 15
    # largest order first, enumeration order within one order
    want = [r.tobytes() for o in (4, 2) for r in g.element_rows() if Perm(r).order == o]
    assert [r.tobytes() for r in rows] == want
    rows3 = p_element_rows(g, 3)
    assert rows3.shape[0] == 8


def sylow_is_valid(group, p):
    syl = sylow_subgroup(group, p)
    assert syl.order == p_part(group.order, p)
    assert syl.is_subgroup_of(group)
    # p-group check: every element order is a power of p
    for e in elements(syl):
        assert p**e.order % e.order == 0
    return syl


SYLOW_CASES = [
    ("S4", (2, 3)),
    ("A4", (2, 3)),
    ("D5", (2, 5)),
    ("F20", (2, 5)),
    ("A5", (2, 3, 5)),
    ("S5", (2, 3, 5)),
    ("S3xS3", (2, 3)),
    ("PSL(2,7)", (2, 3, 7)),
]


@pytest.mark.parametrize("name,primes", SYLOW_CASES)
def test_sylow_subgroups(name, primes):
    g = stock(name)
    for p in primes:
        sylow_is_valid(g, p)


def _element_set(group) -> list[bytes]:
    return sorted(r.tobytes() for r in group.element_rows())


@pytest.mark.parametrize("name,primes", SYLOW_CASES)
def test_sylow_matches_chain_grown_reference(name, primes):
    # the same growth rule on a listing and on a stabilizer chain picks
    # the same rows, so the two give one element set
    g = stock(name)
    for p in primes:
        assert _element_set(sylow_subgroup(g, p)) == _element_set(reference_sylow_subgroup(g, p))


@pytest.mark.parametrize("group,p", [
    (stock("S4"), 2), (stock("PSL(2,7)"), 2), (stock("S3xS3"), 3), (stock("F20"), 5),
    (PermutationGroup.symmetric(8), 2), (PermutationGroup.symmetric(8), 3),
])
def test_chain_read_off_a_listing_matches_schreier_sims(group, p):
    P = sylow_subgroup(group, p)
    chain, ref = P.bsgs, BSGS(P.degree, P.generators)
    assert chain.order == ref.order == len(P.element_rows())
    closed = closure_rows(P.degree, rows_of(P.generators, P.degree))
    assert _element_set(P) == [r.tobytes() for r in closed]
    # probes in P, in the group outside P, and outside the group
    rng = np.random.default_rng(5)
    probes = np.concatenate([
        group.element_rows(),
        np.array([rng.permutation(group.degree) for _ in range(200)], dtype=np.uint8),
    ])
    assert np.array_equal(chain.contains_rows(probes), ref.contains_rows(probes))
    assert chain.contains_rows(group.element_rows()).sum() == P.order


@pytest.mark.parametrize("name", ["S4", "A5", "S3xS3", "PSL(2,7)"])
def test_listing_chain_of_any_group(name):
    # reading a chain off a listing needs no p-group: every element is
    # one product of the transversals read off
    g = stock(name)
    listing = lex_sorted(g.element_rows())
    chain = BSGS.from_listing(listing)
    assert chain.order == g.order
    # every Schreier generator sifts to the identity: a complete chain
    assert all(chain._verify_level(i) is None for i in range(len(chain.base)))
    assert chain.contains_rows(listing).all()
    got = chain_group(chain).element_rows()
    assert sorted(r.tobytes() for r in got) == [r.tobytes() for r in listing]


@pytest.mark.parametrize("group,p", [(stock("S4"), 2), (PermutationGroup.symmetric(8), 3)])
def test_sylow_subgroup_holds_its_listing(group, p):
    # order and elements come from the listing; the chain is read off it
    # only when asked for
    P = sylow_subgroup(group, p)
    assert P.order == p_part(group.order, p) and P._bsgs is None
    rows = P.element_rows()
    assert P._bsgs is None
    assert [r.tobytes() for r in rows] == sorted(r.tobytes() for r in rows)
    assert P.bsgs.order == P.order


def test_lattice_members_hold_their_listings():
    g = stock("S3xS3")
    table = conjugacy_classes(g)
    norms = normal_subgroups(g)
    assert all(h._bsgs is None for h in norms)
    # each member's listing is the table's rows of its classes, and its
    # generators are its chain's strong generators
    for h in norms:
        mask = class_mask(table, h)
        inside = np.array([mask >> c & 1 for c in range(len(table))], dtype=bool)
        assert np.array_equal(h.element_rows(), table.rows[inside[table.class_of]])
        assert np.array_equal(rows_of(h.generators, h.degree), h.bsgs.strong_rows)


def test_p_elements_of_a_group_over_the_cap_raise(monkeypatch):
    monkeypatch.setattr(structure, "ENUM_CAP", 23)
    with pytest.raises(ResourceCapExceeded, match="order 24 over enumeration cap 23"):
        p_element_rows(stock("S4"), 2)


def test_sylow_growth_failure_raises(monkeypatch):
    # a pool missing the elements that would finish P stalls the growth,
    # which the final order check reports
    real = structure.p_element_rows
    monkeypatch.setattr(structure, "p_element_rows", lambda group, p: real(group, p)[:1])
    with pytest.raises(GroupError, match="not the p-part 8"):
        sylow_subgroup(stock("S4"), 2)


def test_sylow_trivial_when_p_does_not_divide():
    g = stock("S4")
    syl = sylow_subgroup(g, 5)
    assert syl.order == 1


def test_sylow_grows_by_the_largest_p_element_first():
    # the pool puts the six 9-cycles first, and a 9-cycle normalizes
    # the trivial group, so one step reaches all of C9
    c9 = PermutationGroup(9, [Perm.from_cycles(9, tuple(range(9)))])
    syl = sylow_is_valid(c9, 3)
    assert syl.order == 9
    assert len(syl.generators) == 1


def test_sylow_large_degree():
    s8 = PermutationGroup.symmetric(8)
    syl2 = sylow_is_valid(s8, 2)
    assert syl2.order == 128
    syl3 = sylow_is_valid(s8, 3)
    assert syl3.order == 9
    syl7 = sylow_is_valid(s8, 7)
    assert syl7.order == 7


def test_class_table_validation():
    g = stock("S3")
    from derange.structure import ConjugacyClass
    rows = g.element_rows()
    with pytest.raises(GroupError, match="do not sum to the group order"):
        ConjugacyClassTable(g, [ConjugacyClass(Perm.identity(3), 1)], rows, np.zeros(len(rows), dtype=int))


def test_class_table_lists_the_group_with_class_ids():
    g = stock("S4")
    table = conjugacy_classes(g)
    assert [r.tobytes() for r in table.rows] == sorted(r.tobytes() for r in g.element_rows())
    for c, cls in enumerate(table):
        got = {r.tobytes() for r in table.rows[table.class_of == c]}
        assert got == brute_class(g, cls.rep)


# The 130 groups are the imprimitive degree-8 to -10 fixtures of order
# at most 10^5 (102 of them) and the builtin listings at degrees 5-7 (28).
def test_class_tables_match_one_class_at_a_time_reference():
    groups = [g for d in (8, 9, 10) for g in imprimitive_groups(d, max_order=10**5)]
    groups += [e.group for d in (5, 6, 7) for e in corpus_of(d).entries]
    assert len(groups) == 130
    for g in groups:
        got, want = conjugacy_classes(g), reference_conjugacy_classes(g)
        assert np.array_equal(got.rows, want.rows), g.name
        assert np.array_equal(got.class_of, want.class_of), g.name
        assert [c.rep.key for c in got] == [c.rep.key for c in want], g.name
        assert class_sizes(got) == class_sizes(want), g.name
