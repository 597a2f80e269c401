from itertools import product

import numpy as np

import pytest

from derange import Perm, PermutationGroup, _kernels
from derange._kernels import (
    cover_all_scan,
    fix_any_count,
    good_count_scan,
    row_orders,
)
from derange.gf import FieldSpec
from oracles import dot, full_cover_scan

SPLIT_QS = (2, 3, 4, 5, 7, 8, 9)


def test_good_count_scan_matches_brute_force():
    rng = np.random.default_rng(1)
    for q in (2, 3, 4, 5):
        field = FieldSpec(q)
        for d in (1, 2, 3, 4):
            normal = rng.integers(0, q, d)
            if not normal.any():
                normal[0] = 1
            want = sum(
                1
                for v in product(range(1, q), repeat=d)
                if dot(field, normal, np.array(v)) == 0
            )
            assert good_count_scan(field, d, normal) == want


def test_cover_all_lanes_agree():
    field = FieldSpec(3)
    full = [[1, 0], [0, 1], [1, 1], [1, 2]]
    partial = [[1, 0], [0, 1], [1, 1]]
    assert cover_all_scan(field, 2, np.array(full)) == (True, 2)
    assert cover_all_scan(field, 2, np.array(partial)) == (False, 2)
    # an empty plane list covers nothing
    assert cover_all_scan(field, 2, np.empty((0, 2))) == (False, 0)


@pytest.mark.parametrize("q", SPLIT_QS)
def test_good_count_scan_in_small_chunks(monkeypatch, q):
    # with _CHUNK = 4 the scan splits every vector into a head and a
    # tail and loops over many chunks
    monkeypatch.setattr(_kernels, "_CHUNK", 4)
    field = FieldSpec(q)
    rng = np.random.default_rng(q)
    for d in range(1, 5):
        vecs = field.vector_space(d)
        for _ in range(3):
            normal = rng.integers(0, q, d)
            want = sum(
                1 for v in vecs if v.all() and dot(field, normal, v) == 0
            )
            assert good_count_scan(field, d, normal) == want, (d, normal)


@pytest.mark.parametrize("q", SPLIT_QS)
def test_cover_all_scan_in_small_chunks(monkeypatch, q):
    # the tight cover (a cover from d = 2), the same set less its last
    # plane (vectors are left uncovered, so the scan exits early), drawn
    # sets, and the tight cover with its last coordinate dropped (rank
    # d - 1)
    monkeypatch.setattr(_kernels, "_CHUNK", 4)
    field = FieldSpec(q)
    rng = np.random.default_rng(q + 100)
    for d in range(1, 5):
        pencil = [[1, t] + [0] * (d - 2) for t in range(1, q)] if d > 1 else []
        tight = np.array(np.eye(d, dtype=np.int64).tolist() + pencil, dtype=np.int64)
        cases = [tight, tight[:-1], rng.integers(0, q, (2 * d + 1, d))]
        if d > 1:
            cases.append(np.concatenate([tight[:, :-1], np.zeros((len(tight), 1), np.int64)], 1))
        for normals in cases:
            covers_all, trivial = full_cover_scan(field, d, normals)
            scanned, rank = cover_all_scan(field, d, normals)
            assert scanned == covers_all, (d, normals.tolist())
            assert (rank == d) == trivial
        assert cover_all_scan(field, d, tight)[0] == (d > 1)
        assert not cover_all_scan(field, d, tight[:-1])[0]


def test_fix_any_count_matches_mask():
    rng = np.random.default_rng(3)
    rows = np.array([rng.permutation(8) for _ in range(500)], dtype=np.uint8)
    for pts in ([0], [0, 1, 2], [5, 6, 7], list(range(8))):
        want = sum(1 for row in rows.tolist() if any(row[p] == p for p in pts))
        assert fix_any_count(rows, np.array(pts)) == want
    assert fix_any_count(rows, np.array([], dtype=np.int64)) == 0


def test_row_orders_match_perm_order():
    rng = np.random.default_rng(4)
    perms = [Perm(rng.permutation(11)) for _ in range(300)]
    rows = np.array([p.images for p in perms], dtype=np.uint8)
    assert row_orders(rows).tolist() == [p.order for p in perms]
    assert row_orders(np.empty((0, 5), dtype=np.uint8)).size == 0


def test_row_orders_over_a_whole_group():
    g = PermutationGroup.from_cycles(6, [[(0, 1, 2, 3, 4, 5)], [(0, 1)]])
    ords = row_orders(g.element_rows())
    # S6 element orders
    assert sorted(set(ords.tolist())) == [1, 2, 3, 4, 5, 6]
    # order-statistics: identity once, order lcm divides |G|
    assert (ords == 1).sum() == 1
