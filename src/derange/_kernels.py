"""Exhaustive numpy scans behind the cover toolkit and the row helpers.

Each scan is exact integer work over fixed-width arrays: vector counts
over GF(q)^d visited in chunks of _CHUNK vectors, and fixed-point and
element-order scans over (m, degree) permutation rows.  The four scans
are bound by the layer tracer in ``perfbench/spans.py``; decode_vectors
is the one base-q decoder, shared with ``gf.FieldSpec.vector_space``.
"""

import numpy as np

from .perm import fixes_any

_CHUNK = 1 << 14


def decode_vectors(start: int, stop: int, q: int, d: int) -> np.ndarray:
    """Vectors number start..stop-1 of GF(q)^d in the base-q odometer
    order: the last coordinate varies fastest."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, d), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        out[:, i] = idx % q
        idx //= q
    return out


def good_count_scan(field, d: int, normal) -> int:
    """Vectors v with a.v = 0 and every coordinate nonzero, counted by an
    exhaustive scan over all q^d vectors; the dumb oracle."""
    q = field.q
    total = q**d
    count = 0
    for start in range(0, total, _CHUNK):
        vecs = decode_vectors(start, min(start + _CHUNK, total), q, d)
        acc = field.dot(normal, vecs)
        count += int(((acc == 0) & (vecs != 0).all(axis=1)).sum())
    return count


def cover_all_scan(field, d: int, normals) -> bool:
    """Does every vector of GF(q)^d lie on one of the listed hyperplanes?"""
    normals = np.asarray(normals, dtype=np.int64)
    if normals.ndim != 2 or normals.shape[0] == 0:
        return field.q**d <= 1
    q = field.q
    total = q**d
    for start in range(0, total, _CHUNK):
        vecs = decode_vectors(start, min(start + _CHUNK, total), q, d)
        if not (field.dot(normals[None, :, :], vecs[:, None, :]) == 0).any(axis=1).all():
            return False
    return True


def fix_any_count(rows: np.ndarray, points) -> int:
    """How many rows fix at least one of the given points."""
    return int(fixes_any(rows, points).sum())


def row_orders(rows: np.ndarray) -> np.ndarray:
    """Element order of each permutation row (lcm of its cycle lengths)."""
    if rows.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    m, n = rows.shape
    ident = np.arange(n, dtype=rows.dtype)
    flat = rows.ravel()
    row_start = (np.arange(m, dtype=np.intp) * n)[:, None]
    cyclen = np.zeros((m, n), dtype=np.min_scalar_type(n))
    cur = rows  # g^k, composed by one flat gather per step
    for k in range(1, n + 1):
        hit = (cur == ident) & (cyclen == 0)
        cyclen[hit] = k
        if cyclen.all():
            break
        cur = flat[cur + row_start]
    return np.lcm.reduce(cyclen.astype(np.int64), axis=1)
