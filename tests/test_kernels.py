from itertools import product

import numpy as np

from derange import Perm, PermutationGroup
from derange._kernels import (
    cover_all_scan,
    fix_any_count,
    good_count_scan,
    row_orders,
)
from derange.gf import FieldSpec


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
                if field.dot(normal, np.array(v)) == 0
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
