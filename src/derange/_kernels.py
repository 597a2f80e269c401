"""Numpy scans behind the cover toolkit and the row helpers.

Each scan is exact integer work over fixed-width arrays: vectors over
GF(q)^d, and fixed-point and element-order scans over (m, degree)
permutation rows.  Only good_count_scan, the oracle for the closed-form
count, forms every a.v of the q^d vectors, one addition per vector;
cover_all_scan first changes basis with gauss_jordan, the one
elimination over GF(q), which also gives the rank, and tests (q-1)^r
vectors, raising ResourceCapExceeded over ENUM_CAP.  Both vector scans
tabulate the partial sums of a head and a tail of the coordinates once
and add them in chunks of at most _CHUNK sums.  The four scans
are bound by the layer tracer in ``perfbench/spans.py``; decode_vectors
is the one base-q decoder, shared with ``gf.FieldSpec.vector_space``.
"""

import numpy as np

from .group import ENUM_CAP, ResourceCapExceeded
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


def gauss_jordan(field, matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 2-D matrix over GF(q), with its
    pivot columns.

    The pivot columns are the first columns independent of the ones
    before them, so their number is the rank.  Column j of the result
    holds, in its first len(pivots) rows, the coordinates of input
    column j in the basis of the pivot columns; the rows below are zero.
    The matrices are small, so the row operations run on Python lists.
    """
    add, mul, neg, inv = (t.tolist() for t in (field.add, field.mul, field.neg, field.inv))
    shape = np.shape(matrix)
    m = np.asarray(matrix, dtype=np.int64).tolist()
    pivots: list[int] = []
    for col in range(shape[1]):
        r = len(pivots)
        below = [i for i in range(r, shape[0]) if m[i][col]]
        if not below:
            continue
        m[r], m[below[0]] = m[below[0]], m[r]
        scale = mul[inv[m[r][col]]]
        m[r] = [scale[x] for x in m[r]]
        for i in range(shape[0]):
            if i != r and m[i][col]:
                minus_f = mul[neg[m[i][col]]]
                m[i] = [add[x][minus_f[y]] for x, y in zip(m[i], m[r])]
        pivots.append(col)
        if len(pivots) == shape[0]:
            break
    return np.array(m, dtype=np.int64).reshape(shape), pivots


def _tail_length(n: int, k: int, rows: int) -> int:
    """Largest t <= k with rows * n^t <= _CHUNK: how many trailing
    coordinates of the n^k vectors a scan tabulates for its rows."""
    t = 0
    while t < k and rows * n ** (t + 1) <= _CHUNK:
        t += 1
    return t


def _partial_sums(field, coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """a.v for every row a of the (s, k) coefficients and every v in
    values^k, in the odometer order of decode_vectors: shape
    (s, len(values)^k), one add gather per coordinate for all rows."""
    acc = np.zeros((len(coeffs), 1), dtype=np.int64)
    for col in coeffs.T:
        terms = field.mul[col[:, None], values[None, :]]
        acc = field.add[acc[:, :, None], terms[:, None, :]].reshape(len(coeffs), -1)
    return acc


def good_count_scan(field, d: int, normal) -> int:
    """Vectors v with a.v = 0 and every coordinate nonzero, counted by an
    exhaustive scan: every one of the q^d dot products is formed and
    tested; the dumb oracle.

    The partial sums of the last t coordinates (q^t <= _CHUNK) and of
    the first d - t are tabulated once, so each a.v is one addition of a
    head sum to a tail sum, taken in chunks of at most _CHUNK."""
    q = field.q
    values = np.arange(q)
    normal = np.asarray(normal, dtype=np.int64).reshape(1, d)
    t = _tail_length(q, d, 1)
    tail = _partial_sums(field, normal[:, d - t :], values)[0]
    head = _partial_sums(field, normal[:, : d - t], values)[0]
    tail_ok = decode_vectors(0, len(tail), q, t).all(axis=1)  # every coordinate nonzero
    head_ok = decode_vectors(0, len(head), q, d - t).all(axis=1)
    step = _CHUNK // len(tail)
    count = 0
    for start in range(0, len(head), step):
        sums = field.add[head[start : start + step, None], tail[None, :]]
        hits = (sums == 0) & head_ok[start : start + step, None] & tail_ok[None, :]
        count += int(np.count_nonzero(hits))
    return count


def cover_all_scan(field, d: int, normals) -> tuple[bool, int]:
    """(covers_all, rank) of an (s, d) array of hyperplane normals: does
    every vector of GF(q)^d lie on one of the planes, and what rank do
    the normals have?  Both come from one elimination.

    The pivot normals a_1..a_r give new coordinates w_i = a_i.v, and
    v -> w maps GF(q)^d onto GF(q)^r.  Every other normal is c.a for its
    coordinate row c, so v is off every plane exactly when w has no zero
    coordinate and every c.w is nonzero: only the (q-1)^r vectors w in
    {1..q-1}^r are scanned, against the s - r coordinate rows, and over
    ENUM_CAP of them raise ResourceCapExceeded.  With no coordinate rows
    nothing is scanned, so no cap applies.  As in good_count_scan, the
    head and tail partial sums c.w of all rows are tabulated together,
    and each chunk of c.w is one addition per row and vector; the scan
    stops at the first chunk with a vector off every plane.
    """
    reduced, pivots = gauss_jordan(field, np.asarray(normals, dtype=np.int64).T)
    r = len(pivots)
    free = [j for j in range(reduced.shape[1]) if j not in pivots]
    coords = reduced[:r, free].T
    if not len(coords):
        return False, r  # w = (1, ..., 1) is off every pivot plane, if there are any
    total = (field.q - 1) ** r
    if total > ENUM_CAP:
        raise ResourceCapExceeded(f"(q-1)^r = {total} exceeds enumeration cap {ENUM_CAP}")
    if not r:
        return True, r  # only zero normals, and a zero normal vanishes everywhere
    values = np.arange(1, field.q)
    t = _tail_length(field.q - 1, r, len(coords))
    tail = _partial_sums(field, coords[:, r - t :], values)
    head = _partial_sums(field, coords[:, : r - t], values)
    step = max(1, _CHUNK // tail.size)
    for start in range(0, head.shape[1], step):
        sums = field.add[head[:, start : start + step, None], tail[:, None, :]]
        if not (sums == 0).any(axis=0).all():
            return False, r
    return True, r


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
