"""Differential check of the hyperplane-cover flags against the scan of
all q^d vectors in ``oracles.full_cover_scan``, on drawn normal sets."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from derange._kernels import cover_all_scan, gauss_jordan  # noqa: E402
from derange.cover import CoverInstance, Hyperplane, check_cover  # noqa: E402
from derange.gf import FieldSpec  # noqa: E402
from oracles import dot, full_cover_scan  # noqa: E402

FIELDS = {q: FieldSpec(q) for q in (2, 3, 4, 5, 7, 8, 9)}


@st.composite
def normal_sets(draw):
    """(q, d, normals) with q <= 9 and d <= 6: up to 12 normals, each a
    combination of the same r <= d drawn rows, so sets below full rank
    are common.  A combination is nonzero unless zero rows were drawn."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    d = draw(st.integers(1, 6))
    r = draw(st.integers(0, d))
    s = draw(st.integers(0, 12))
    entry = st.integers(0, q - 1)
    basis = np.array(draw(st.lists(entry, min_size=r * d, max_size=r * d)), dtype=np.int64)
    coeffs = np.array(draw(st.lists(entry, min_size=s * r, max_size=s * r)), dtype=np.int64)
    if r == 0:
        return q, d, np.zeros((s, d), dtype=np.int64)
    coeffs = coeffs.reshape(s, r)
    if not draw(st.booleans()):
        coeffs[~coeffs.any(axis=1), 0] = 1
    normals = dot(FIELDS[q], coeffs[:, None, :], basis.reshape(r, d).T[None, :, :])
    return q, d, normals.reshape(s, d)


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(normal_sets())
def test_cover_flags_match_full_scan(case):
    q, d, normals = case
    field = FIELDS[q]
    covers_all, trivial = full_cover_scan(field, d, normals)
    scanned, rank = cover_all_scan(field, d, normals)
    assert scanned == covers_all
    assert rank == len(gauss_jordan(field, normals.T)[1])
    assert (rank == d) == trivial
    if len(normals) and normals.any(axis=1).all():
        cover = CoverInstance(field, d, [Hyperplane.make(row) for row in normals])
        assert check_cover(cover)[:2] == (covers_all, trivial)


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(normal_sets())
def test_elimination_gives_coordinates_in_the_pivot_basis(case):
    q, d, normals = case
    field = FIELDS[q]
    reduced, pivots = gauss_jordan(field, normals.T)
    r = len(pivots)
    assert not reduced[r:].any()
    if r == 0:
        assert not normals.any()
        return
    assert pivots == sorted(pivots)
    coords = reduced[:r].T
    rebuilt = dot(field, coords[:, None, :], normals[pivots].T[None, :, :])
    assert (rebuilt == normals).all()


def test_zero_row_and_independent_normals():
    field = FIELDS[3]
    with_zero = np.array([[1, 0, 0], [0, 0, 0]])
    assert cover_all_scan(field, 3, with_zero) == (True, 1)
    assert full_cover_scan(field, 3, with_zero)[0]
    # only zero normals: rank 0, and every vector is covered
    assert cover_all_scan(field, 3, np.zeros((2, 3))) == (True, 0)
    # independent normals only: the all-ones coordinates lie on no plane
    basis = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 2]])
    assert cover_all_scan(field, 3, basis) == (False, 3)
    assert full_cover_scan(field, 3, basis) == (False, True)
