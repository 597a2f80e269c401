import itertools
from pathlib import Path

import numpy as np
import pytest

from derange import (
    GroupError,
    Perm,
    PermutationGroup,
    ResourceCapExceeded,
)
from derange.corpus import enumerate_transitive, load_corpus
from derange.group import BSGS, factorize
from derange.structure import conjugacy_classes
from oracles import (
    ReferenceBSGS,
    blocks,
    closure_rows,
    elements,
    reference_normal_closure,
    seeded_normal_closure,
    same_group,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"


def cyc(degree, *cycles):
    return Perm.from_cycles(degree, *cycles)


def is_invariant(system, group):
    """Every generator maps each block of the system onto a block."""
    parts = [set(b) for b in blocks(system)]
    return all({g(p) for p in b} in parts for g in group.generators for b in parts)


def brute_elements(group):
    """Word closure over the generators, no stabilizer chain involved."""
    rows = closure_rows(group.degree, [np.array(g.images) for g in group.generators])
    return {r.tobytes() for r in rows}


STOCK = {
    "C4": (4, [[(0, 1, 2, 3)]], 4),
    "V4": (4, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]], 4),
    "D4": (4, [[(0, 1, 2, 3)], [(0, 2)]], 8),
    "A4": (4, [[(0, 1, 2)], [(1, 2, 3)]], 12),
    "S4": (4, [[(0, 1, 2, 3)], [(0, 1)]], 24),
    "C5": (5, [[(0, 1, 2, 3, 4)]], 5),
    "F20": (5, [[(0, 1, 2, 3, 4)], [(1, 2, 4, 3)]], 20),
    "A5": (5, [[(0, 1, 2)], [(0, 1, 2, 3, 4)]], 60),
    "S5": (5, [[(0, 1, 2, 3, 4)], [(0, 1)]], 120),
    "S3xS3": (6, [[(0, 1, 2)], [(0, 1)], [(3, 4, 5)], [(3, 4)]], 36),
    "PSL(2,7)": (8, [[(0, 1, 2, 3, 4, 5, 6)], [(0, 7), (1, 6), (2, 3), (4, 5)]], 168),
}


def stock(name):
    degree, cycgens, _ = STOCK[name]
    return PermutationGroup.from_cycles(degree, cycgens, name=name)


@pytest.mark.parametrize("name", sorted(STOCK))
def test_order_matches_word_closure(name):
    g = stock(name)
    want = STOCK[name][2]
    assert g.order == want
    assert len(brute_elements(g)) == want


def test_order_big_groups():
    assert PermutationGroup.symmetric(10).order == 3628800
    a10 = PermutationGroup.from_cycles(10, [[(0, 1, 2)], [tuple(range(1, 10))]])
    assert a10.order == 1814400
    # wreath-shaped product on 10 points
    w = PermutationGroup.from_cycles(
        10,
        [[(0, 1, 2, 3, 4)], [(0, 1)], [(5, 6, 7, 8, 9)], [(5, 6)],
         [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]],
    )
    assert w.order == 28800


def test_membership_agrees_with_closure():
    rng = np.random.default_rng(5)
    for name in ("V4", "D4", "A4", "F20", "A5"):
        g = stock(name)
        have = brute_elements(g)
        hits = 0
        for _ in range(300):
            cand = Perm(rng.permutation(g.degree))
            inside = cand.key in have
            assert (cand in g) == inside
            hits += inside
        # every element of the group itself must pass
        for el in elements(g):
            assert el in g


def test_elements_enumerates_exactly_once():
    for name in ("C4", "D4", "A4", "S4", "F20", "A5", "PSL(2,7)"):
        g = stock(name)
        els = elements(g)
        assert len(els) == g.order
        assert len(set(els)) == g.order
        assert {e.key for e in els} == brute_elements(g)


def test_element_blocks_respects_block_size_and_order():
    g = stock("S5")
    sizes = []
    first = None
    total = 0
    for block in g.element_blocks(block_rows=7):
        assert block.shape[1] == 5
        if first is None:
            first = block.copy()
        sizes.append(block.shape[0])
        total += block.shape[0]
    assert total == 120
    # same fixed order regardless of block size
    again = next(iter(g.element_blocks(block_rows=10**6)))
    assert np.array_equal(again[: first.shape[0]], first)
    assert np.array_equal(np.concatenate(list(g.element_blocks(block_rows=7))), again)
    # the odometer over the transversals, level 0 slowest: u_0 * ... * u_k
    # applies u_k first
    odometer = []
    for rows in itertools.product(*g.bsgs.transversal_rows()):
        acc = rows[0]
        for row in rows[1:]:
            acc = acc[row]
        odometer.append(acc)
    assert np.array_equal(np.array(odometer), again)


def test_element_rows_cap():
    g = stock("S5")
    with pytest.raises(ResourceCapExceeded):
        g.element_rows(cap=100)
    rows = g.element_rows(cap=120)
    assert rows.shape == (120, 5)


def test_trivial_group():
    t = PermutationGroup(3, [])
    assert t.order == 1
    assert elements(t) == [Perm.identity(3)]
    assert t.orbits() == [np.array([0])] or [list(o) for o in t.orbits()] == [[0], [1], [2]]


def test_orbits_and_transitivity():
    g = PermutationGroup.from_cycles(7, [[(0, 1, 2)], [(3, 4)], [(5, 6)]])
    assert [list(o) for o in g.orbits()] == [[0, 1, 2], [3, 4], [5, 6]]
    assert not g.is_transitive()
    assert list(g.orbit(4)) == [3, 4]
    for name in ("C4", "A5", "PSL(2,7)"):
        assert stock(name).is_transitive()


def test_orbit_of_a_point_out_of_range_rejected():
    g = PermutationGroup.from_cycles(7, [[(0, 1, 2)], [(3, 4)], [(5, 6)]])
    with pytest.raises(GroupError, match="point 7 out of range"):
        g.orbit(7)


def test_random_element_membership_and_determinism():
    g = stock("A5")
    rng = np.random.default_rng(11)
    xs = [g.random_element(rng) for _ in range(200)]
    assert all(x in g for x in xs)
    rng2 = np.random.default_rng(11)
    assert xs == [g.random_element(rng2) for _ in range(200)]


def test_random_element_is_roughly_uniform():
    # chi-square-ish sanity: every S4 element should appear in 24*200 draws
    g = stock("S4")
    rng = np.random.default_rng(13)
    counts = {}
    for _ in range(24 * 200):
        counts[g.random_element(rng).key] = counts.get(g.random_element(rng).key, 0) + 1
    assert len(counts) == 24
    lo, hi = min(counts.values()), max(counts.values())
    assert lo > 100 and hi < 340


def test_subgroup_and_same_group():
    s4, a4, d4 = stock("S4"), stock("A4"), stock("D4")
    assert a4.is_subgroup_of(s4)
    assert d4.is_subgroup_of(s4)
    assert not s4.is_subgroup_of(a4)
    other_s4 = PermutationGroup.from_cycles(4, [[(0, 1)], [(1, 2)], [(2, 3)]])
    assert same_group(s4, other_s4)
    assert not same_group(s4, a4)


def test_bsgs_incremental_extend():
    b = BSGS(4, [cyc(4, (0, 1, 2, 3))])
    assert b.order == 4
    assert b.extend(cyc(4, (0, 1)))
    assert b.order == 24
    assert not b.extend(cyc(4, (0, 2)))
    assert b.order == 24
    # sift residue of a member is the identity at the end of the chain
    residue, level = b.sift(cyc(4, (1, 2, 3)))
    assert residue.is_identity() and level == len(b.base)


def test_contains_rows_matches_element_set():
    s4, a4 = stock("S4"), stock("A4")
    rows = s4.element_rows()
    mask = a4.bsgs.contains_rows(rows)
    members = brute_elements(a4)
    assert mask.tolist() == [r.tobytes() in members for r in rows]
    assert int(mask.sum()) == 12
    assert a4.bsgs.contains_rows(rows[:0]).shape == (0,)


def sift_membership(b, rows):
    """Membership read off sift_rows: the row passes every level and its
    residue is the identity."""
    res, stuck = b.sift_rows(rows)
    return (stuck == len(b.base)) & (res == np.arange(b.degree)).all(axis=1)


def rows_stuck_at_each_level(b, rng, count=3):
    """(rows, level) of rows whose sift gets stuck at each level that can
    hold one: t swaps the level's base point with a point off its orbit
    and off the base points before it, and t * s stays stuck there for s
    a product of representatives of that level and those below."""
    n, tr = b.degree, b.transversal_rows()
    rows, levels = [], []
    for i, point in enumerate(b.base):
        off = np.setdiff1d(np.arange(n), np.concatenate([tr[i][:, point], b.base[:i]]))
        if not off.size:
            continue
        t = np.arange(n)
        t[[point, off[0]]] = off[0], point
        for _ in range(count):
            s = np.arange(n)
            for reps in tr[i:]:
                s = reps[rng.integers(len(reps))][s]
            rows.append(s[t])
            levels.append(i)
    return np.array(rows, dtype=np.uint8).reshape(-1, n), levels


def membership_probes(group, rng, count=40):
    """Random rows, random members, rows stuck at each level that can
    hold one, and a row that passes every level to a residue other than
    the identity when two points lie off the base."""
    n, b = group.degree, group.bsgs
    stuck, levels = rows_stuck_at_each_level(b, rng)
    assert b.sift_rows(stuck)[1].tolist() == levels
    passing = []
    free = np.setdiff1d(np.arange(n), b.base)
    if free.size >= 2:
        # a swap of two points off the base fixes every base point
        swap = np.arange(n)
        swap[free[:2]] = free[1::-1]
        passing.append(swap)
    return np.concatenate([
        np.array([rng.permutation(n) for _ in range(count)], dtype=np.uint8),
        np.array([group.random_element(rng).images for _ in range(count)], dtype=np.uint8),
        stuck,
        np.array(passing, dtype=np.uint8).reshape(-1, n),
    ]), set(levels)


@pytest.mark.parametrize("n", range(2, 10))
def test_contains_rows_matches_sift_rows_on_corpus(n):
    rng = np.random.default_rng(n)
    members = outside = levels = 0
    for e in corpus(n).entries:
        rows, stuck_levels = membership_probes(e.group, rng)
        got = e.group.bsgs.contains_rows(rows)
        assert np.array_equal(got, sift_membership(e.group.bsgs, rows)), e.name
        members += int(got.sum())
        outside += int((~got).sum())
        levels += len(stuck_levels)
    assert members
    if n >= 4:  # below, no level has a point off its orbit and the base
        assert outside and levels


def test_contains_rows_matches_sift_rows_at_degree_250():
    n = 250
    rotation = Perm(np.roll(np.arange(n), -1))
    reflection = Perm(-np.arange(n) % n)
    # a dihedral group on 0..124 and a 5-cycle on 245..249: many points
    # lie off every orbit
    part = np.arange(n)
    part[:125] = np.roll(part[:125], -1)
    part[245:] = np.roll(part[245:], -1)
    flip = np.arange(n)
    flip[:125] = -np.arange(125) % 125
    for gens in ([rotation, reflection], [Perm(part), Perm(flip)]):
        group = PermutationGroup(n, gens)
        rows, stuck_levels = membership_probes(group, np.random.default_rng(250))
        got = group.bsgs.contains_rows(rows)
        assert stuck_levels and got.any() and not got.all()
        assert np.array_equal(got, sift_membership(group.bsgs, rows))


@pytest.mark.parametrize("n", range(2, 7))
def test_listing_membership_matches_the_chain(n):
    # a builtin entry holds its listing: contains_rows and `in` search it,
    # build no chain, and answer as the chain read off the listing does
    rng = np.random.default_rng(n)
    answers = set()
    for e in enumerate_transitive(n).entries:
        group = e.group
        rows = np.concatenate([
            np.array([rng.permutation(n) for _ in range(40)], dtype=np.uint8),
            group.element_rows()[::3],
        ])
        got = group.contains_rows(rows)
        assert [Perm(r) in group for r in rows] == got.tolist()
        assert group._bsgs is None
        assert np.array_equal(got, group.bsgs.contains_rows(rows)), e.name
        answers.update(got.tolist())
    assert answers == ({True} if n == 2 else {True, False})


@pytest.mark.parametrize("listing", [True, False], ids=["listing", "chain"])
def test_contains_rows_rejects_other_degrees(listing):
    group = PermutationGroup.symmetric(3)
    if listing:
        group = PermutationGroup.from_listing(group.element_rows().copy())
    for rows in (np.zeros((1, 2), dtype=np.uint8), np.zeros((1, 4), dtype=np.uint8), np.zeros(3)):
        with pytest.raises(GroupError, match="given to a group of degree 3"):
            group.contains_rows(rows)
    assert Perm([1, 0]) not in group and Perm([1, 0, 3, 2]) not in group
    assert group._bsgs is None if listing else group._bsgs is not None


@pytest.mark.parametrize("gens", [[], [cyc(3, (0, 1, 2))]], ids=["empty-base", "base"])
@pytest.mark.parametrize("g", [Perm([1, 0]), Perm([1, 0, 3, 2])], ids=["2-point", "4-point"])
def test_chain_rejects_other_degrees(gens, g):
    b = BSGS(3, gens)
    before = (list(b.base), [s.key for s in b.strong_gens])
    with pytest.raises(GroupError):
        b.extend(g)
    with pytest.raises(GroupError):
        b.sift(g)
    with pytest.raises(GroupError):
        b.sift_rows(g.images[None, :])
    with pytest.raises(GroupError):
        b.contains_rows(g.images[None, :])
    with pytest.raises(GroupError):
        b.coset_keys(g.images[None, :])
    assert (b.base, [s.key for s in b.strong_gens]) == before


def chain(b):
    """What the batched chain must share with the one-at-a-time one."""
    return b.base, [g.key for g in b.strong_gens], [t.tobytes() for t in b.transversal_rows()]


def corpus(n):
    """The builtin corpus to degree 7, the shipped fixtures from 8."""
    return enumerate_transitive(n) if n <= 7 else load_corpus(FIXTURES / f"degree{n:02d}", n)


@pytest.mark.parametrize("n", range(2, 11))
def test_bsgs_matches_reference_on_corpus(n):
    for e in corpus(n).entries:
        gens = e.group.generators
        assert chain(BSGS(n, gens)) == chain(ReferenceBSGS(n, gens)), e.name


def test_bsgs_matches_reference_on_random_generators():
    rng = np.random.default_rng(2003)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            # permuting a random support lets small groups occur too
            support = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
            images = np.arange(n)
            images[support] = rng.permutation(support)
            gens.append(Perm(images))
        assert chain(BSGS(n, gens)) == chain(ReferenceBSGS(n, gens))


def test_normal_closures_match_reference_on_degree9_fixtures():
    for e in corpus(9).entries:
        for cls in conjugacy_classes(e.group):
            got = seeded_normal_closure(e.group, [cls.rep]).bsgs
            want = reference_normal_closure(e.group, [cls.rep])
            assert chain(got) == chain(want), (e.name, cls.rep)


def test_transversal_rows_are_read_only():
    tr = stock("S4").bsgs.transversal_rows()
    assert tr and not any(t.flags.writeable for t in tr)


def test_bsgs_on_random_generated_subgroups():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, 3))
        gens = [Perm(rng.permutation(n)) for _ in range(k)]
        g = PermutationGroup(n, gens)
        assert g.order == len(brute_elements(g))


def test_minimal_block_systems():
    assert stock("S4").minimal_block_systems() == []
    assert stock("A5").minimal_block_systems() == []
    c4 = stock("C4").minimal_block_systems()
    assert len(c4) == 1 and [sorted(b) for b in blocks(c4[0])] == [[0, 2], [1, 3]]
    d4 = stock("D4").minimal_block_systems()
    assert len(d4) == 1 and [len(b) for b in blocks(d4[0])] == [2, 2]
    v4 = stock("V4").minimal_block_systems()
    assert len(v4) == 3
    for s in v4:
        assert is_invariant(s, stock("V4"))


def test_block_systems_are_invariant_partitions():
    w = PermutationGroup.from_cycles(
        8, [[(0, 1, 2, 3, 4, 5, 6, 7)], [(0, 7), (1, 6), (2, 5), (3, 4)]]
    )
    assert w.order == 16
    # the dihedral group keeps {i, i+4} and {i, i+2, i+4, i+6} together;
    # only the pairs are minimal
    systems = w.minimal_block_systems()
    assert [sorted(b) for s in systems for b in blocks(s)] == [[0, 4], [1, 5], [2, 6], [3, 7]]
    for s in systems:
        assert is_invariant(s, w)
        assert not is_invariant(s, PermutationGroup.symmetric(8))


def test_minimal_block_systems_by_brute_force():
    # oracle: test every partition of 0..n-1 into equal blocks directly,
    # then keep those no other nontrivial invariant partition refines
    from itertools import combinations

    def invariant_partitions(g):
        n = g.degree
        found = []
        for size in range(2, n):
            if n % size:
                continue

            def partitions(rest):
                if not rest:
                    yield []
                    return
                head = rest[0]
                for picks in combinations(rest[1:], size - 1):
                    block = (head,) + picks
                    remaining = [x for x in rest if x not in block]
                    for tail in partitions(remaining):
                        yield [block] + tail

            for part in partitions(list(range(n))):
                blocks = frozenset(frozenset(b) for b in part)
                if all(frozenset(gen(x) for x in b) in blocks for gen in g.generators for b in blocks):
                    found.append(blocks)
        return found

    def refines(finer, coarser):
        return all(any(f <= c for c in coarser) for f in finer)

    def minimal(partitions):
        return {
            p for p in partitions
            if not any(q != p and refines(q, p) for q in partitions)
        }

    for name in ("C4", "V4", "D4", "A4", "S4", "F20", "C5"):
        g = stock(name)
        got = {
            frozenset(frozenset(b) for b in blocks(s))
            for s in g.minimal_block_systems()
        }
        assert got == minimal(invariant_partitions(g)), name


@pytest.mark.parametrize("degree, cycles, labels", [
    # first orbit {0, 2, 4, 6} under a dihedral group of order 8
    (7, [[(0, 2, 4, 6)], [(1, 3)], [(0, 4)]], [[0, -1, 1, -1, 0, -1, 1]]),
    # first orbit {0, 2, 5, 7} under a Klein four-group
    (8, [[(0, 5), (2, 7)], [(0, 2), (5, 7)], [(1, 3)]],
     [[0, -1, 0, -1, -1, 1, -1, 1], [0, -1, 1, -1, -1, 0, -1, 1], [0, -1, 1, -1, -1, 1, -1, 0]]),
], ids=["D4-on-evens", "V4-on-0257"])
def test_minimal_block_systems_off_a_leading_orbit(degree, cycles, labels):
    # labels pinned from the earlier induced-action implementation: blocks
    # numbered by least point within the first orbit, -1 off it
    systems = PermutationGroup.from_cycles(degree, cycles).minimal_block_systems()
    assert all(s.dtype == np.int16 for s in systems)
    assert [s.tolist() for s in systems] == labels


def test_closure_rows_cap():
    gens = [np.array(g.images) for g in stock("S5").generators]
    with pytest.raises(ResourceCapExceeded):
        closure_rows(5, gens, cap=50)


def test_factorize_matches_brute_force():
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]
    assert factorize(0) == factorize(1) == []
    for n in range(2, 2000):
        want = [(p, max(e for e in range(1, 11) if n % p**e == 0)) for p in primes if n % p == 0]
        assert factorize(n) == want, n


def test_generator_degree_mismatch():
    with pytest.raises(GroupError):
        PermutationGroup(4, [Perm([1, 0, 2, 3, 4])])
