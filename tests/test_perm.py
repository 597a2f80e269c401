from pathlib import Path

import numpy as np
import pytest

from derange import GroupError, Perm, PermError, PermutationGroup
from derange._kernels import fix_any_count
from derange.corpus import load_corpus
from derange.perm import (
    MAX_DEGREE,
    cayley_table,
    conjugate_rows,
    fixes_any,
    invert_rows,
    least_derangement,
    lex_keys,
    lex_sorted,
    rows_of,
)
from derange.structure import normal_subgroups
from derange.subdirect import QUOTIENT_CAP
from oracles import closure_rows, lex_coset_key, reference_mult, reference_quotient

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"


def brute_compose(f, g):
    # reference: apply f first, then g
    return [g(f(x)) for x in range(f.degree)]


def test_identity_and_validation():
    e = Perm.identity(5)
    assert e.is_identity()
    assert e.images.tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(PermError):
        Perm([0, 0, 1])
    with pytest.raises(PermError):
        Perm([0, 3, 1])
    with pytest.raises(PermError):
        Perm(list(range(MAX_DEGREE + 1)))


@pytest.mark.parametrize(
    "images, message",
    [
        ([-1, 0], "bijection"),  # out of range below: would wrap in uint8
        ([0, 256], "bijection"),  # out of range above: would wrap in uint8
        ([1.5, 0], "integers"),  # non-integer: would truncate to (0 1)
        ([[0, 1]], "shape"),
        ([], "shape"),
        ([1, 1, 0], "bijection"),
    ],
)
def test_images_rejected_before_uint8_cast(images, message):
    with pytest.raises(PermError, match=message):
        Perm(images)


def test_compose_is_left_to_right():
    f = Perm([1, 2, 0])
    g = Perm([1, 0, 2])
    assert (f * g).images.tolist() == brute_compose(f, g) == [0, 2, 1]
    # associativity spot check
    h = Perm([2, 1, 0])
    assert ((f * g) * h).key == (f * (g * h)).key


def test_compose_degree_mismatch_rejected():
    with pytest.raises(PermError, match="degree mismatch"):
        Perm([1, 2, 0]) * Perm([1, 0, 2, 3])


def test_compose_random_against_pointwise():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        f = Perm(rng.permutation(n))
        g = Perm(rng.permutation(n))
        assert (f * g).images.tolist() == brute_compose(f, g)
        assert (f * f.inverse()).is_identity()
        assert (f.inverse() * f).is_identity()


def test_pow_matches_repeated_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        g = Perm(rng.permutation(n))
        acc = Perm.identity(n)
        for k in range(-6, 7):
            assert (g ** k).key == (g.inverse() ** (-k)).key
        for k in range(7):
            assert (g ** k).key == acc.key
            acc = acc * g


def test_from_cycles_and_cycles_roundtrip():
    g = Perm.from_cycles(6, (0, 1, 2), (4, 5))
    assert g.images.tolist() == [1, 2, 0, 3, 5, 4]
    assert g.cycles() == [(0, 1, 2), (4, 5)]
    assert g.cycles(singletons=True) == [(0, 1, 2), (3,), (4, 5)]
    assert sorted(len(c) for c in g.cycles(singletons=True)) == [1, 2, 3]
    with pytest.raises(PermError):
        Perm.from_cycles(4, (0, 1, 1))
    with pytest.raises(PermError):
        Perm.from_cycles(3, (0, 3))


def test_order_is_lcm_of_cycle_lengths():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 14))
        g = Perm(rng.permutation(n))
        k = g.order
        assert (g ** k).is_identity()
        for d in range(1, k):
            if k % d == 0:
                assert not (g ** d).is_identity()


def test_conjugate():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        a = Perm(rng.permutation(n))
        g = Perm(rng.permutation(n))
        c = Perm(conjugate_rows(a.images[None, :], g)[0])
        assert c.key == (g.inverse() * a * g).key
        def lengths(p):
            return sorted(len(cyc) for cyc in p.cycles(singletons=True))

        assert lengths(c) == lengths(a)


def test_least_derangement():
    rows = np.array([[1, 0, 3, 2], [1, 0, 2, 3], [3, 2, 1, 0], [0, 2, 3, 1]], dtype=np.uint8)
    assert least_derangement(rows, range(4)).images.tolist() == [1, 0, 3, 2]
    assert least_derangement(rows, [2, 3]).images.tolist() == [0, 2, 3, 1]
    # every row fixes a point of the set
    assert least_derangement(rows[[1, 3]], range(4)) is None


def test_fixed_and_moved_points():
    g = Perm.from_cycles(7, (1, 3), (4, 5, 6))
    row = g.images[None, :]
    assert [x for x in range(7) if fixes_any(row, [x])[0]] == [0, 2]
    assert fixes_any(row, [0, 1, 4]).tolist() == [True]
    assert fixes_any(row, [1, 4]).tolist() == [False]


def test_ordering_is_lexicographic_on_images():
    a = Perm([0, 1, 2])
    b = Perm([0, 2, 1])
    c = Perm([1, 0, 2])
    assert a < b < c
    assert sorted([c, a, b]) == [a, b, c]
    assert len({a, Perm([0, 1, 2])}) == 1


def test_row_helpers_match_perm_ops():
    rng = np.random.default_rng(4)
    n = 9
    perms = [Perm(rng.permutation(n)) for _ in range(40)]
    rows = rows_of(perms, n)
    assert rows.dtype == np.uint8 and rows.shape == (40, n)
    assert rows_of([], n).shape == (0, n)
    assert [Perm(r, validate=False) for r in rows] == perms

    g = Perm(rng.permutation(n))
    inv = invert_rows(rows)
    g_inv = g.inverse()
    conj = conjugate_rows(rows, g, g_inv)
    for i, p in enumerate(perms):
        assert list(inv[i]) == p.inverse().images.tolist()
        assert list(conj[i]) == (g_inv * p * g).images.tolist()


def test_rows_fix_any():
    rows = rows_of([
        Perm([1, 0, 2, 3]),
        Perm([1, 2, 3, 0]),
        Perm([0, 1, 3, 2]),
    ], 4)
    # only the first row fixes 2 or 3; the first and third fix some point
    assert fix_any_count(rows, np.array([2, 3])) == 1
    assert fix_any_count(rows, np.arange(4)) == 2


@pytest.mark.parametrize("degree", [9, 16, 125, 250])
def test_lex_keys_sort_and_locate_rows_at_any_degree(degree):
    rng = np.random.default_rng(degree)
    rows = np.array([rng.permutation(degree) for _ in range(300)], dtype=np.uint8)
    # rows that differ only in their last two points, past any base-n key's reach
    rows[:100, :-2] = rows[0, :-2]
    rows[:100, -2:] = [[degree - 2, degree - 1], [degree - 1, degree - 2]] * 50
    want = sorted(r.tobytes() for r in rows)
    assert [r.tobytes() for r in rows[np.argsort(lex_keys(rows), kind="stable")]] == want
    ordered = lex_sorted(rows)
    # a non-contiguous view gets the same keys
    queries = rows[::-1][::3]
    pos = np.searchsorted(lex_keys(ordered), lex_keys(queries))
    assert (ordered[pos] == queries).all()


def test_cayley_table_refills_the_row_by_row_tables():
    # Sym(2..6): the columns of the generators in the row-by-row table
    # fill that whole table again, transposed (row y is right
    # multiplication by y)
    for n in range(2, 7):
        G = PermutationGroup.symmetric(n)
        listing = closure_rows(n, rows_of(G.generators, n))
        want = reference_mult(listing)
        keys = lex_keys(listing)
        gens = np.searchsorted(keys, lex_keys(rows_of(G.generators, n)))
        got = cayley_table(want[:, gens].T)
        assert got.dtype == want.dtype and np.array_equal(got, want.T), n


def test_cayley_table_refills_reference_quotients():
    # every degree-9 fixture quotient within QUOTIENT_CAP: the rows of
    # the generators' points fill the whole reference table again
    tables = 0
    for e in load_corpus(FIXTURES / "degree09", 9).entries:
        G = e.group
        for N in normal_subgroups(G):
            if G.order // N.order > QUOTIENT_CAP:
                continue
            _, table, enc = reference_quotient(G, N)
            kernel_rows = N.element_rows()
            points = [enc[lex_coset_key(kernel_rows, g)] for g in G.generators]
            assert np.array_equal(cayley_table(table[points]), table), (e.name, N.order)
            tables += 1
    assert tables


def test_cayley_table_rejects_generators_that_miss_a_point():
    listing = closure_rows(4, rows_of(PermutationGroup.symmetric(4).generators, 4))
    want = reference_mult(listing)
    # a 3-cycle alone reaches 3 of Sym(4)'s 24 elements, and no
    # generator at all only the identity
    cycle = Perm.from_cycles(4, (0, 1, 2)).images[None, :]
    g = np.searchsorted(lex_keys(listing), lex_keys(cycle))
    with pytest.raises(GroupError, match="reach 3 of its 24"):
        cayley_table(want[:, g].T)
    with pytest.raises(GroupError, match="reach 1 of its 24"):
        cayley_table(np.empty((0, 24), dtype=np.int64))
    assert cayley_table(np.empty((0, 1), dtype=np.int64)).tolist() == [[0]]
