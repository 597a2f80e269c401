from pathlib import Path

import pytest

from derange import Perm, PermutationGroup, ResourceCapExceeded
from derange.corpus import enumerate_transitive, load_corpus
from derange.structure import (
    ConjugacyClassTable,
    class_orbit_rows,
    conjugacy_classes,
    is_prime,
    normal_closure,
    normal_subgroups,
    p_element_rows,
    p_part,
    sylow_subgroup,
)
from oracles import class_sizes, conjugate, elements, reference_normal_subgroups

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


def test_class_reps_are_lex_least():
    table = conjugacy_classes(stock("A5"))
    for cls in table:
        rows = class_orbit_rows(table.group, cls.rep)
        assert rows.shape[0] == cls.size
        assert bytes(rows[0].tobytes()) == cls.rep.key
        lex = sorted(r.tobytes() for r in rows)
        assert lex[0] == cls.rep.key


def test_over_cap_raises_before_any_orbit_search(monkeypatch):
    def no_orbit_search(group, rep):
        raise RuntimeError("class orbit search ran on an over-cap group")

    monkeypatch.setattr("derange.structure.class_orbit_rows", no_orbit_search)
    with pytest.raises(ResourceCapExceeded, match="order 40320 exceeds enumeration cap 100"):
        conjugacy_classes(PermutationGroup.symmetric(8), cap=100)


def test_centralizer_order_matches_brute_force():
    g = stock("S4")
    els = elements(g)
    table = conjugacy_classes(g)
    for cls in table:
        cent = sum(1 for x in els if (x * cls.rep) == (cls.rep * x))
        assert g.order // cls.size == cent


def test_class_orbit_rows_is_whole_class():
    g = stock("S3xS3")
    rep = Perm.from_cycles(6, (0, 1, 2))
    rows = class_orbit_rows(g, rep)
    brute = {conjugate(x, c).key for c in elements(g) for x in [rep]}
    assert {r.tobytes() for r in rows} == brute


def test_normal_closure_examples():
    s4 = stock("S4")
    # closure of a double transposition is the Klein four-group
    v4 = normal_closure(s4, [Perm.from_cycles(4, (0, 1), (2, 3))])
    assert v4.order == 4
    # closure of a 3-cycle is A4
    a4 = normal_closure(s4, [Perm.from_cycles(4, (0, 1, 2))])
    assert a4.order == 12
    # closure of a transposition is everything
    assert normal_closure(s4, [Perm.from_cycles(4, (0, 1))]).order == 24
    # closure is invariant under conjugation by each generator
    for gen in s4.generators:
        assert all(conjugate(h, gen) in v4 for h in elements(v4))


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


def lattice_keys(groups):
    return [(h.order, [x.key for x in h.generators]) for h in groups]


@pytest.mark.parametrize("degree", [4, 6, 9])
def test_normal_subgroups_match_reference_round_loop(degree):
    # the semi-naive lattice keeps exactly the plain loop's generator lists
    if degree <= 7:
        corpus = enumerate_transitive(degree)
    else:
        corpus = load_corpus(FIXTURES / f"degree{degree:02d}", degree)
    groups = [e.group for e in corpus.entries if e.group.minimal_block_systems()]
    assert groups
    for g in groups:
        assert lattice_keys(normal_subgroups(g)) == lattice_keys(reference_normal_subgroups(g)), g.name


def test_normal_subgroups_over_several_join_rounds():
    # in (C2)^4 every subgroup is normal; one of order 8 joins three
    # atoms, so it first appears in the second round of joins
    g = PermutationGroup.from_cycles(8, [[(0, 1)], [(2, 3)], [(4, 5)], [(6, 7)]])
    norms = normal_subgroups(g)
    assert [sum(h.order == 2**k for h in norms) for k in range(5)] == [1, 15, 35, 15, 1]
    assert lattice_keys(norms) == lattice_keys(reference_normal_subgroups(g))


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


@pytest.mark.parametrize("name,primes", [
    ("S4", (2, 3)),
    ("A4", (2, 3)),
    ("D5", (2, 5)),
    ("F20", (2, 5)),
    ("A5", (2, 3, 5)),
    ("S5", (2, 3, 5)),
    ("S3xS3", (2, 3)),
    ("PSL(2,7)", (2, 3, 7)),
])
def test_sylow_subgroups(name, primes):
    g = stock(name)
    for p in primes:
        sylow_is_valid(g, p)


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
    with pytest.raises(Exception):
        ConjugacyClassTable(g, [ConjugacyClass(Perm.identity(3), 1)])
