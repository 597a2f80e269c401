from itertools import combinations

import numpy as np
import pytest

from derange import ResourceCapExceeded
from derange.cover import (
    CoverInstance,
    Hyperplane,
    all_canonical_normals,
    canonical_normal,
    check_cover,
    d_sequences,
    good_count_bruteforce,
    good_count_formula,
    make_cover,
    min_cover_search,
    tight_cover_construct,
)
from derange import _kernels
from derange.gf import FieldError, FieldSpec
from derange.group import ENUM_CAP
from oracles import dot, full_cover_scan, reference_min_cover_search


def test_formula_examples():
    # x + y = 0 over GF(3) with x, y nonzero: (1,2), (2,1)
    assert good_count_formula(3, 2, 2) == 2
    assert good_count_formula(2, 3, 2) == 1
    # single nonzero coefficient forces that coordinate to zero
    for q in (2, 3, 4, 5, 7, 9):
        for d in range(1, 5):
            assert good_count_formula(q, d, 1) == 0


def test_formula_rejects_bad_input():
    with pytest.raises(FieldError):
        good_count_formula(6, 2, 1)
    with pytest.raises(FieldError):
        good_count_formula(3, 2, 3)
    with pytest.raises(FieldError):
        good_count_formula(3, 2, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_formula_equals_bruteforce_on_random_normals(q):
    """The count must not depend on which coords are nonzero or their values."""
    field = FieldSpec(q)
    rng = np.random.default_rng(q * 31)
    for d in range(1, 6):
        for k in range(1, d + 1):
            want = good_count_formula(q, d, k)
            for _ in range(20):
                support = rng.choice(d, size=k, replace=False)
                normal = np.zeros(d, dtype=np.int64)
                normal[support] = rng.integers(1, q, size=k)
                a = Hyperplane.make(normal)
                assert sum(1 for x in a.normal if x) == k
                assert good_count_bruteforce(a, field, d) == want, (q, d, k, normal)


def test_formula_upper_bound():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for d in range(1, 7):
            for k in range(1, d + 1):
                assert good_count_formula(q, d, k) <= (q - 1) ** (d - 1)


def test_d_sequences_initial_and_recurrence():
    for q in range(2, 17):
        assert d_sequences(q, 1) == (0, 1)
        d0_2, d1_2 = d_sequences(q, 2)
        assert d1_2 == q - 2
        assert d0_2 == q - 1  # (q-1) * D1(1)
        for j in range(3, 21):
            d0, d1 = d_sequences(q, j)
            assert d1 == (q - 2) * d_sequences(q, j - 1)[1] + (q - 1) * d_sequences(q, j - 2)[1]
            assert d0 == (q - 1) * d_sequences(q, j - 1)[1]
    with pytest.raises(FieldError):
        d_sequences(3, 0)


class _FaultyModulus(int):
    """q whose remainders are read from a list: the fault the
    non-integer checks of d_sequences guard against."""

    def __new__(cls, q, remainders):
        self = super().__new__(cls, q)
        self.remainders = list(remainders)
        return self

    def __rmod__(self, other):
        return self.remainders.pop(0)


def test_d_sequences_reject_a_non_integer_closed_form():
    with pytest.raises(ArithmeticError, match="D1 closed form"):
        d_sequences(_FaultyModulus(3, [1]), 2)
    with pytest.raises(ArithmeticError, match="D0 closed form"):
        d_sequences(_FaultyModulus(3, [0, 1]), 2)


def test_d_sequences_count_good_solutions_directly():
    # D1(j): good solutions of sum x_i = m for m != 0; D0 for m = 0
    for q in (2, 3, 4, 5):
        field = FieldSpec(q)
        for j in (1, 2, 3):
            vecs = field.vector_space(j)
            ones = np.ones(j, dtype=np.int64)
            dots = dot(field, np.broadcast_to(ones, vecs.shape), vecs)
            nz = (vecs != 0).all(axis=1)
            d0 = int(((dots == 0) & nz).sum())
            d1 = int(((dots == 1) & nz).sum())
            assert d_sequences(q, j) == (d0, d1), (q, j)


def test_hyperplane_validation():
    with pytest.raises(FieldError):
        Hyperplane.make([0, 0, 0])
    assert Hyperplane.make([0, 2, 1]).normal == (0, 2, 1)


def test_canonical_normal():
    f = FieldSpec(3)
    assert canonical_normal(f, [2, 1, 0]) == (1, 2, 0)
    assert canonical_normal(f, [0, 2, 2]) == (0, 1, 1)
    with pytest.raises(FieldError):
        canonical_normal(f, [0, 0, 0])


def test_all_canonical_normals_count():
    # (q^d - 1)/(q - 1) hyperplanes
    for q, d in ((2, 2), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)):
        f = FieldSpec(q)
        normals = all_canonical_normals(f, d)
        assert len(normals) == (q**d - 1) // (q - 1)
        assert len(set(normals)) == len(normals)
        assert normals == sorted(normals)


def test_make_cover_dedups_scalar_multiples():
    c = make_cover(3, 2, [[1, 2], [2, 4 % 3], [2, 1]])
    # [2,4%3]=[2,1] ~ [1,2] after scaling by inv(2)=2: (1,2); [2,1] ~ (1,2)?
    # 2*(2,1) = (1,2): same plane; all three collapse to one
    assert len(c.hyperplanes) == 1


def test_make_cover_rejects_coordinates_outside_the_field():
    # -1 is not read as 2 = -1 mod 3, and 5 does not index past the tables
    with pytest.raises(FieldError, match="-1 is not an element of GF\\(3\\)"):
        make_cover(3, 2, [[-1, 1], [0, 1], [1, 0]])
    with pytest.raises(FieldError, match="5 is not an element"):
        make_cover(3, 2, [[1, 5]])
    # over GF(4), -1 would wrap to 3 = X + 1, which is not -1 = 1
    with pytest.raises(FieldError, match="GF\\(4\\)"):
        make_cover(4, 2, [[1, -1]])


def test_make_cover_rejects_a_normal_of_another_length():
    with pytest.raises(FieldError, match="normal length 3 does not match d=2"):
        make_cover(3, 2, [[0, 1], [1, 0, 0]])


def test_check_cover_rejects_normals_outside_the_field():
    # a hand-built instance skips make_cover; check_cover must not read
    # -1 as 2, index past the tables with 5, or reshape a short normal
    field = FieldSpec(3)
    planes = [Hyperplane.make([-1, 1]), Hyperplane.make([0, 1]), Hyperplane.make([1, 0])]
    with pytest.raises(FieldError, match="-1 is not an element of GF\\(3\\)"):
        check_cover(CoverInstance(field, 2, planes))
    with pytest.raises(FieldError, match="5 is not an element of GF\\(3\\)"):
        check_cover(CoverInstance(field, 2, [Hyperplane.make([5, 1])]))
    with pytest.raises(FieldError, match="normal length does not match d=3"):
        check_cover(CoverInstance(field, 3, [Hyperplane.make([0, 1]), Hyperplane.make([1, 0])]))
    # past int64, a coordinate must not escape as OverflowError either
    for big in (2**70, -(2**70)):
        with pytest.raises(FieldError, match=f"{big} is not an element of GF\\(3\\)"):
            check_cover(CoverInstance(field, 2, [Hyperplane.make([big, 1])]))


def test_good_count_bruteforce_rejects_coordinates_outside_the_field():
    with pytest.raises(FieldError, match="-1 is not an element"):
        good_count_bruteforce(Hyperplane.make([-1, 1]), FieldSpec(3))
    with pytest.raises(FieldError, match="4 is not an element"):
        good_count_bruteforce(Hyperplane.make([4, 1]), FieldSpec(3))


def test_good_count_bruteforce_rejects_a_normal_of_another_length():
    with pytest.raises(FieldError, match="normal length does not match dimension"):
        good_count_bruteforce(Hyperplane.make([1, 1]), FieldSpec(3), 3)


def test_rank_over_field():
    # the rank is the pivot count of the one elimination
    f = FieldSpec(2)
    assert len(_kernels.gauss_jordan(f, np.array([[1, 0], [0, 1]]).T)[1]) == 2
    assert len(_kernels.gauss_jordan(f, np.array([[1, 1], [1, 1]]).T)[1]) == 1
    f9 = FieldSpec(9)
    rows = np.array([[1, 3, 0], [3, 1, 0], [0, 0, 1]])
    assert len(_kernels.gauss_jordan(f9, rows.T)[1]) == 3
    assert _kernels.cover_all_scan(f9, 3, rows)[1] == 3


def test_check_cover_examples():
    good = make_cover(2, 2, [[1, 0], [0, 1], [1, 1]])
    assert check_cover(good) == (True, True, True)
    assert good.covers_all and good.trivial_intersection

    missing = make_cover(2, 2, [[1, 0], [0, 1]])
    covers, trivial, bound_ok = check_cover(missing)
    assert not covers and trivial and bound_ok

    # d = 1: the only hyperplane is {0}, so covering is impossible
    tiny = make_cover(5, 1, [[1]])
    covers, trivial, bound_ok = check_cover(tiny)
    assert not covers and trivial


def test_check_cover_cap():
    # 24 independent planes over GF(3) leave no coordinate row, so the
    # answer needs no scan and no cap applies; one more plane leaves one
    # row, and the scan would list (q-1)^r = 2^24 > ENUM_CAP vectors
    assert 2**24 > ENUM_CAP
    eye = np.eye(24, dtype=np.int64)
    assert check_cover(make_cover(3, 24, eye)) == (False, True, True)
    extra = np.zeros((1, 24), dtype=np.int64)
    extra[0, :2] = 1
    with pytest.raises(ResourceCapExceeded, match="exceeds enumeration cap"):
        check_cover(make_cover(3, 24, np.concatenate([eye, extra])))


def test_check_cover_caps_the_scan_not_the_space():
    # q^d = 2^24 is over ENUM_CAP, but the scan lists (q-1)^r = 1 vector
    assert check_cover(tight_cover_construct(2, 24)) == (True, True, True)


def test_searches_over_the_cap_raise_before_listing(monkeypatch):
    def no_listing(field, d):
        raise AssertionError("GF(q)^d listed")

    monkeypatch.setattr("derange.cover.all_canonical_normals", no_listing)
    with pytest.raises(ResourceCapExceeded, match="q\\^d = 16777216"):
        min_cover_search(2, 24)
    with pytest.raises(ResourceCapExceeded):
        good_count_bruteforce(Hyperplane.make([1] * 24), FieldSpec(2), 24)


def test_search_eliminates_each_subset_once(monkeypatch):
    calls = []
    real = _kernels.gauss_jordan

    def counted(field, matrix):
        calls.append(np.shape(matrix))
        return real(field, matrix)

    monkeypatch.setattr(_kernels, "gauss_jordan", counted)
    # phase 1: the basis alone, then with (1, 1), which covers; phase 2:
    # the first triple in lex order, the same set
    min_cover_search(2, 2)
    assert len(calls) == 3
    calls.clear()
    # phase 1: the basis alone, with each of the 10 other normals, then
    # with the first pair, which covers (12); phase 2: the first 5-subset
    min_cover_search(3, 3)
    assert len(calls) == 13


@pytest.mark.parametrize("q,d", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (5, 2), (7, 2)])
def test_search_matches_the_size_then_lex_scan(q, d):
    size, found = min_cover_search(q, d)
    want_size, want = reference_min_cover_search(q, d)
    assert size == want_size
    assert [h.normal for h in found.hyperplanes] == [h.normal for h in want.hyperplanes]


def test_search_raises_when_the_lex_pass_finds_no_cover(monkeypatch):
    # check_cover answers "covers" once only: the basis phase proves size
    # 3, then the lex pass at size 3 finds nothing
    yeses = []

    def first_yes_only(cover):
        covers_all, trivial, bound_ok = check_cover(cover)
        covers_all = covers_all and not yeses
        if covers_all and trivial:
            yeses.append(cover)
        return covers_all, trivial, bound_ok

    monkeypatch.setattr("derange.cover.check_cover", first_yes_only)
    with pytest.raises(ArithmeticError, match="no cover of size 3 in lex order"):
        min_cover_search(2, 2)


def test_search_rejects_a_cover_below_the_size_bound(monkeypatch):
    monkeypatch.setattr("derange.cover.check_cover", lambda cover: (True, True, False))
    with pytest.raises(ArithmeticError, match="below the size bound"):
        min_cover_search(2, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_search_in_dimension_one_finds_no_cover(q):
    # the only hyperplane of GF(q)^1 is {0}
    with pytest.raises(ResourceCapExceeded, match="no cover found"):
        min_cover_search(q, 1)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3)])
def test_min_cover_is_tight(q, d):
    size, witness = min_cover_search(q, d)
    assert size == d + q - 1
    covers, trivial, bound_ok = check_cover(witness)
    assert covers and trivial and bound_ok
    built = tight_cover_construct(q, d)
    assert len(built.hyperplanes) == size
    assert check_cover(built) == (True, True, True)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_check_cover_matches_full_scan_on_tight_covers(q):
    """Every tight cover with q^d <= 10^5, and each of them with one
    plane dropped."""
    d = 2
    while q**d <= 10**5:
        built = tight_cover_construct(q, d)
        for drop in [None, *range(len(built.hyperplanes))]:
            kept = [h for i, h in enumerate(built.hyperplanes) if i != drop]
            cover = CoverInstance(built.field, d, kept)
            flags = check_cover(cover)
            assert flags[:2] == full_cover_scan(built.field, d, cover.normal_rows()), (d, drop)
            if drop is None:
                assert flags == (True, True, True)
        d += 1


# the first minimum cover in (size, lex) order of each search the
# benchmark's cover part runs
FIRST_MIN_COVERS = {
    (2, 2): [(0, 1), (1, 0), (1, 1)],
    (2, 3): [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)],
    (3, 2): [(0, 1), (1, 0), (1, 1), (1, 2)],
    (2, 4): [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0)],
    (3, 3): [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 0)],
    (4, 2): [(0, 1), (1, 0), (1, 1), (1, 2), (1, 3)],
}


@pytest.mark.parametrize("q,d", sorted(FIRST_MIN_COVERS))
def test_min_cover_search_first_witness(q, d):
    size, found = min_cover_search(q, d)
    assert size == len(found.hyperplanes)
    assert [h.normal for h in found.hyperplanes] == FIRST_MIN_COVERS[q, d]


def test_every_valid_cover_respects_bound():
    # exhaustive: all subsets up to size 5 for tiny parameters
    for q, d in ((2, 2), (3, 2), (2, 3)):
        field = FieldSpec(q)
        normals = all_canonical_normals(field, d)
        for size in range(1, min(len(normals), 5) + 1):
            for combo in combinations(normals, size):
                cover = CoverInstance(field, d, [Hyperplane.make(n) for n in combo])
                covers, trivial, bound_ok = check_cover(cover)
                assert bound_ok
                if covers and trivial:
                    assert d <= size - q + 1


def test_tight_cover_rejects_d1():
    with pytest.raises(FieldError):
        tight_cover_construct(3, 1)


def test_tight_cover_checks_its_size(monkeypatch):
    monkeypatch.setattr("derange.cover.make_cover", lambda q, d, normals: make_cover(q, d, normals[:-1]))
    with pytest.raises(ArithmeticError, match="wrong size"):
        tight_cover_construct(3, 3)


def test_search_budget():
    with pytest.raises(ResourceCapExceeded):
        min_cover_search(3, 3, budget=10)
    # both phases count: 12 checks prove size 5, the 13th finds the witness
    with pytest.raises(ResourceCapExceeded, match="exceeded budget 12"):
        min_cover_search(3, 3, budget=12)
    assert min_cover_search(3, 3, budget=13)[0] == 5
