import numpy as np
import pytest

from derange import GroupError, Perm, PermError
from derange._kernels import fix_any_count
from derange.perm import (
    MAX_DEGREE,
    conjugate_rows,
    fixes_any,
    invert_rows,
    lex_sorted,
    row_keys,
    rows_of,
    rows_then,
)


def brute_compose(f, g):
    # reference: apply f first, then g
    return [g(f(x)) for x in range(f.degree)]


def test_identity_and_validation():
    e = Perm.identity(5)
    assert e.is_identity()
    assert e.to_list() == [0, 1, 2, 3, 4]
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
    assert (f * g).to_list() == brute_compose(f, g) == [0, 2, 1]
    # associativity spot check
    h = Perm([2, 1, 0])
    assert ((f * g) * h).key == (f * (g * h)).key


def test_compose_random_against_pointwise():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        f = Perm(rng.permutation(n))
        g = Perm(rng.permutation(n))
        assert (f * g).to_list() == brute_compose(f, g)
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
    assert g.to_list() == [1, 2, 0, 3, 5, 4]
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
        c = a.conjugate(g)
        assert c.key == (g.inverse() * a * g).key
        def lengths(p):
            return sorted(len(cyc) for cyc in p.cycles(singletons=True))

        assert lengths(c) == lengths(a)


def test_fixed_and_moved_points():
    g = Perm.from_cycles(7, (1, 3), (4, 5, 6))
    row = g.images[None, :]
    assert [x for x in range(7) if fixes_any(row, [x])[0]] == [0, 2]
    assert fixes_any(row, [0, 1, 4]).tolist() == [True]
    assert fixes_any(row, [1, 4]).tolist() == [False]
    assert list(g.moved_points()) == [1, 3, 4, 5, 6]
    assert not Perm.identity(4).moved_points().size


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
    after = rows_then(rows, g)
    inv = invert_rows(rows)
    g_inv = g.inverse()
    conj = conjugate_rows(rows, g, g_inv)
    for i, p in enumerate(perms):
        assert list(after[i]) == (p * g).to_list()
        assert list(inv[i]) == p.inverse().to_list()
        assert list(conj[i]) == p.conjugate(g).to_list()


def test_rows_fix_any():
    rows = rows_of([
        Perm([1, 0, 2, 3]),
        Perm([1, 2, 3, 0]),
        Perm([0, 1, 3, 2]),
    ], 4)
    # only the first row fixes 2 or 3; the first and third fix some point
    assert fix_any_count(rows, np.array([2, 3])) == 1
    assert fix_any_count(rows, np.arange(4)) == 2


def test_row_keys_sort_like_rows_up_to_degree_15():
    rng = np.random.default_rng(5)
    perms = [rng.permutation(15) for _ in range(200)] + [np.arange(15)[::-1]]
    rows = np.array(perms, dtype=np.uint8)
    by_key = rows[np.argsort(row_keys(rows))]
    assert [r.tobytes() for r in by_key] == sorted(r.tobytes() for r in rows)
    assert [r.tobytes() for r in lex_sorted(rows)] == sorted(r.tobytes() for r in rows)
    with pytest.raises(GroupError, match="degree 15"):
        row_keys(np.zeros((1, 16), dtype=np.uint8))
