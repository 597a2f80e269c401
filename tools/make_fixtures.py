#!/usr/bin/env python3
"""Generate the packaged transitive-group fixtures for degrees 8, 9, 10.

The builtin lattice scan behind `enumerate_transitive` tops out at degree
7, where the full Sym(n) element table still fits its cap.  For degrees
8-10 this script reconstructs the classification the classical way and
writes one JSON file per conjugacy class of transitive subgroups:

* an imprimitive transitive group of degree n = b*k (blocks of size b)
  embeds in the wreath product Sym(b) wr Sym(k), so the imprimitive
  classes are collected from the transitive subgroup classes of each
  wrapper that fits the element-table cap;
* the one wrapper over the cap, Sym(5) wr Sym(2) of order 28800, is
  handled directly: a transitive subgroup with two blocks of five meets
  the block-preserving part in an index-2 subdirect product of two
  transitive degree-5 groups, so those are enumerated by Goursat's
  lemma and extended by every block-swapping coset, one representative
  per coset;
* the primitive classes come from their known constructions (affine,
  projective semilinear, Mathieu, set actions, alternating, symmetric),
  each checked against its expected order;
* candidates from all sources are reduced to one representative per
  Sym(n)-conjugacy class by a vectorized scan over all of Sym(n), and
  the final tallies are asserted against the published counts of
  transitive groups (as in the usual transitive-groups tables) before
  any files are written.

Output goes to src/derange/fixtures/degree{08,09,10}/ in the same JSON
shape `load_corpus` reads back.  A degree whose directory already holds
the expected number of files is skipped unless --force is given.
"""

import argparse
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from derange.corpus import enumerate_transitive, group_json
from derange.gf import FieldSpec
from derange.group import Perm, PermutationGroup
from derange.perm import lex_keys, lex_sorted
from derange.subdirect import goursat_enumerate
from derange.subgroups import ElementTable, subgroup_classes

EXPECTED_TOTAL = {8: 50, 9: 34, 10: 45}
EXPECTED_IMPRIMITIVE = {8: 43, 9: 23, 10: 36}

FIXTURE_ROOT = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"


def perm(images) -> Perm:
    return Perm(np.asarray(images, dtype=np.uint8))


def all_perm_rows(n: int) -> np.ndarray:
    """Image rows of every element of Sym(n), by iterative insertion."""
    rows = np.zeros((1, 1), dtype=np.uint8)
    for m in range(2, n + 1):
        k = len(rows)
        out = np.empty((k * m, m), dtype=np.uint8)
        for p in range(m):
            blk = out[p * k:(p + 1) * k]
            blk[:, :p] = rows[:, :p]
            blk[:, p] = m - 1
            blk[:, p + 1:] = rows[:, p:]
        rows = out
    return rows


# ---------------------------------------------------------------- sources

def wreath(b: int, k: int) -> PermutationGroup:
    """Sym(b) wr Sym(k) on b*k points, blocks {i + b*j : i < b} for j < k."""
    n = b * k
    gens = []
    if b > 1:
        cyc = list(range(1, b)) + [0]
        gens.append(perm(cyc + list(range(b, n))))
        if b > 2:
            gens.append(perm([1, 0] + list(range(2, n))))
    img = np.arange(n, dtype=np.uint8)
    for i in range(b):
        for j in range(k):
            img[i + b * j] = i + b * ((j + 1) % k)
    gens.append(Perm(img.copy()))
    if k > 2:
        img = np.arange(n, dtype=np.uint8)
        for i in range(b):
            img[i], img[i + b] = i + b, i
        gens.append(Perm(img))
    G = PermutationGroup(n, gens)
    expect = 1
    for i in range(2, b + 1):
        expect *= i
    expect = expect ** k
    for i in range(2, k + 1):
        expect *= i
    assert G.order == expect, (b, k, G.order, expect)
    return G


def wrapper_transitive(b: int, k: int) -> list[tuple[PermutationGroup, str]]:
    """Transitive subgroup classes of Sym(b) wr Sym(k), up to wrapper
    conjugacy (the global dedup pass merges across wrappers)."""
    w = wreath(b, k)
    et = ElementTable.of(w)
    out = []
    for c in subgroup_classes(w, et):
        # orbit of point 0 is just column 0 of the closed element set
        if np.unique(et.rows[c.indices][:, 0]).size != w.degree:
            continue
        g = PermutationGroup(w.degree, [et.perm(i) for i in c.gen_indices])
        out.append((g, f"wr({b},{k}) class {len(out)}"))
    return out


def block_swap_extensions() -> list[tuple[PermutationGroup, str]]:
    """Transitive degree-10 groups with two blocks of five.

    The block stabilizer K is a subdirect product of two transitive
    degree-5 groups with conjugate projections, so up to conjugacy both
    projections equal one class representative R.  Every extension is
    K together with one block-swapping coset Kt, so enumerate all 14400
    swapping permutations t, keep those with t*t in K normalizing K,
    and take one per coset.
    """
    s5_rows = np.array(list(itertools.permutations(range(5))), dtype=np.uint8)
    # t sends i -> 5 + b[i] and 5 + j -> a[j]; rows cover all (a, b)
    A = np.repeat(s5_rows, 120, axis=0)
    B = np.tile(s5_rows, (120, 1))
    T = np.concatenate([B + 5, A], axis=1)
    Tidx = T.astype(np.intp)
    Tinv = np.empty_like(T)
    np.put_along_axis(Tinv, Tidx, np.arange(10, dtype=np.uint8), axis=1)
    t_sq = lex_keys(np.take_along_axis(T, Tidx, axis=1))

    def lift(a: np.ndarray, b: np.ndarray) -> Perm:
        """(a, b) on 0..4 then 5..9, from two image rows of degree 5."""
        return Perm(np.concatenate([a, b + 5]))

    id5 = np.arange(5, dtype=np.uint8)
    out = []
    for entry in enumerate_transitive(5):
        R = entry.group
        for di, desc in enumerate(goursat_enumerate(R, R)):
            # K's generators, in the order every written fixture was
            # built with: lifted quotient generators, then N1's, then N2's
            q1, q2 = desc.q1, desc.q2
            k_gens = [lift(q1.reps[p], q2.reps[desc.point_map[p]]) for p in q1.generating_points]
            k_gens += [lift(g.images, id5) for g in q1.kernel.generators]
            k_gens += [lift(id5, g.images) for g in q2.kernel.generators]
            K = PermutationGroup(10, k_gens)
            assert K.order == desc.subgroup_order
            k_rows = K.element_rows()
            k_enc = np.sort(lex_keys(k_rows))

            def member(e):
                pos = np.searchsorted(k_enc, e).clip(0, len(k_enc) - 1)
                return k_enc[pos] == e

            mask = member(t_sq)
            for g in K.generators:
                conj = np.take_along_axis(T, g.images[Tinv].astype(np.intp), axis=1)
                mask &= member(lex_keys(conj))
                if not mask.any():
                    break
            seen = set()
            for i in np.flatnonzero(mask):
                coset_key = lex_sorted(T[i][k_rows])[0].tobytes()
                if coset_key in seen:
                    continue
                seen.add(coset_key)
                G = PermutationGroup(10, list(K.generators) + [Perm(T[i])])
                assert G.order == 2 * K.order
                assert G.is_transitive()
                out.append((G, f"{entry.name} subdirect {di} + block swap"))
    return out


# ------------------------------------------------- primitive constructions

def affine_perm(F: FieldSpec, a: int, b: int) -> Perm:
    """x -> a*x + b on the q field points."""
    return perm([F.add[F.mul[a, x], b] for x in range(F.q)])


def affine_frobenius(F: FieldSpec) -> Perm:
    """x -> x^p on the q field points."""
    img = []
    for x in range(F.q):
        e = x
        for _ in range(F.p - 1):
            e = F.mul[e, x]
        img.append(e)
    return perm(img)


def field_generator(F: FieldSpec) -> int:
    for g in range(2, F.q):
        e, k = g, 1
        while e != 1:
            e, k = F.mul[e, g], k + 1
        if k == F.q - 1:
            return g
    raise ValueError(f"no multiplicative generator in GF({F.q})")


def moebius_perm(F: FieldSpec, a: int, b: int, c: int, d: int) -> Perm:
    """x -> (a*x + b) / (c*x + d) on the projective line, infinity = q."""
    q = F.q
    img = np.empty(q + 1, dtype=np.uint8)
    for x in range(q):
        num = F.add[F.mul[a, x], b]
        den = F.add[F.mul[c, x], d]
        img[x] = F.mul[num, F.inv[den]] if den else q
    img[q] = F.mul[a, F.inv[c]] if c else q
    return Perm(img)


def projective_frobenius(F: FieldSpec) -> Perm:
    """x -> x^p on the projective line, fixing infinity."""
    img = np.empty(F.q + 1, dtype=np.uint8)
    for x in range(F.q):
        e = x
        for _ in range(F.p - 1):
            e = F.mul[e, x]
        img[x] = e
    img[F.q] = F.q
    return Perm(img)


def psl2_gens(F: FieldSpec) -> list[Perm]:
    """PSL(2, q) on the projective line: translation, square scaling,
    and the inversion x -> -1/x."""
    g = field_generator(F)
    s = g if F.q % 2 == 0 else F.mul[g, g]
    return [
        moebius_perm(F, 1, 1, 0, 1),
        moebius_perm(F, s, 0, 0, 1),
        moebius_perm(F, 0, F.neg[1], 1, 0),
    ]


def mat_perm_gf2(M) -> Perm:
    """Linear map on GF(2)^3, points encoded v0 + 2*v1 + 4*v2."""
    img = np.empty(8, dtype=np.uint8)
    for v in range(8):
        vec = np.array([(v >> i) & 1 for i in range(3)])
        w = (np.asarray(M) @ vec) % 2
        img[v] = int(w[0] + 2 * w[1] + 4 * w[2])
    return Perm(img)


def mat_perm_gf3(M) -> Perm:
    """Linear map on GF(3)^2, points encoded v0 + 3*v1."""
    img = np.empty(9, dtype=np.uint8)
    for v in range(9):
        v0, v1 = v % 3, v // 3
        w0 = (M[0][0] * v0 + M[0][1] * v1) % 3
        w1 = (M[1][0] * v0 + M[1][1] * v1) % 3
        img[v] = w0 + 3 * w1
    return Perm(img)


def pairs_perm(p5: Perm) -> Perm:
    """Action induced on the ten 2-subsets of {0..4}."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    index = {pq: k for k, pq in enumerate(pairs)}
    img = np.empty(10, dtype=np.uint8)
    for k, (i, j) in enumerate(pairs):
        a, b = int(p5.images[i]), int(p5.images[j])
        img[k] = index[(min(a, b), max(a, b))]
    return Perm(img)


def alternating(n: int) -> PermutationGroup:
    three = perm([1, 2, 0] + list(range(3, n)))
    if n % 2:
        big = perm(list(range(1, n)) + [0])
    else:
        big = perm([0] + list(range(2, n)) + [1])
    return PermutationGroup(n, [three, big])


def primitive_degree8() -> list[tuple[PermutationGroup, str, int]]:
    F8 = FieldSpec(8)
    F7 = FieldSpec(7)
    g8 = field_generator(F8)
    g7 = field_generator(F7)
    agl18 = [affine_perm(F8, 1, 1), affine_perm(F8, g8, 0)]
    psl27 = psl2_gens(F7)
    agl32 = [
        Perm(np.arange(8, dtype=np.uint8) ^ 1),
        mat_perm_gf2([[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
        mat_perm_gf2([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    ]
    return [
        (PermutationGroup(8, agl18), "AGL(1,8)", 56),
        (PermutationGroup(8, agl18 + [affine_frobenius(F8)]), "AGammaL(1,8)", 168),
        (PermutationGroup(8, psl27), "PSL(2,7)", 168),
        (PermutationGroup(8, psl27 + [moebius_perm(F7, g7, 0, 0, 1)]), "PGL(2,7)", 336),
        (PermutationGroup(8, agl32), "AGL(3,2)", 1344),
        (alternating(8), "Alt(8)", 20160),
        (PermutationGroup.symmetric(8), "Sym(8)", 40320),
    ]


def primitive_degree9() -> list[tuple[PermutationGroup, str, int]]:
    F9 = FieldSpec(9)
    F8 = FieldSpec(8)
    g9 = field_generator(F9)
    t1 = perm([(v % 3 + 1) % 3 + 3 * (v // 3) for v in range(9)])
    t2 = perm([v % 3 + 3 * ((v // 3 + 1) % 3) for v in range(9)])
    i_m = mat_perm_gf3([[0, 2], [1, 0]])
    j_m = mat_perm_gf3([[1, 1], [1, 2]])
    agl19 = [affine_perm(F9, 1, 1), affine_perm(F9, g9, 0)]
    psl28 = psl2_gens(F8)
    return [
        (PermutationGroup(9, [t1, t2, i_m]), "3^2:C4", 36),
        (PermutationGroup(9, [t1, t2, i_m, mat_perm_gf3([[1, 0], [0, 2]])]), "3^2:D8", 72),
        (PermutationGroup(9, [t1, t2, i_m, j_m]), "3^2:Q8", 72),
        (PermutationGroup(9, agl19), "AGL(1,9)", 72),
        (PermutationGroup(9, agl19 + [affine_frobenius(F9)]), "AGammaL(1,9)", 144),
        (PermutationGroup(9, [t1, t2, i_m, j_m, mat_perm_gf3([[1, 1], [0, 1]])]), "3^2:SL(2,3)", 216),
        (PermutationGroup(9, [t1, t2, i_m, j_m, mat_perm_gf3([[1, 1], [0, 1]]), mat_perm_gf3([[2, 0], [0, 1]])]), "AGL(2,3)", 432),
        (PermutationGroup(9, psl28), "PSL(2,8)", 504),
        (PermutationGroup(9, psl28 + [projective_frobenius(F8)]), "PGammaL(2,8)", 1512),
        (alternating(9), "Alt(9)", 181440),
        (PermutationGroup.symmetric(9), "Sym(9)", 362880),
    ]


def primitive_degree10() -> list[tuple[PermutationGroup, str, int]]:
    F9 = FieldSpec(9)
    g9 = field_generator(F9)
    psl29 = psl2_gens(F9)
    scale = moebius_perm(F9, g9, 0, 0, 1)
    frob = projective_frobenius(F9)
    # the Mathieu point stabilizer extends PSL(2,9) by frobenius-then-scale
    m10_ext = Perm(scale.images[frob.images])
    a5p = [pairs_perm(perm([1, 2, 0, 3, 4])), pairs_perm(perm([1, 2, 3, 4, 0]))]
    s5p = [pairs_perm(perm([1, 0, 2, 3, 4])), pairs_perm(perm([1, 2, 3, 4, 0]))]
    return [
        (PermutationGroup(10, a5p), "Alt(5) on 2-sets", 60),
        (PermutationGroup(10, s5p), "Sym(5) on 2-sets", 120),
        (PermutationGroup(10, psl29), "PSL(2,9)", 360),
        (PermutationGroup(10, psl29 + [scale]), "PGL(2,9)", 720),
        (PermutationGroup(10, psl29 + [frob]), "PSigmaL(2,9)", 720),
        (PermutationGroup(10, psl29 + [m10_ext]), "M10", 720),
        (PermutationGroup(10, psl29 + [scale, frob]), "PGammaL(2,9)", 1440),
        (alternating(10), "Alt(10)", 1814400),
        (PermutationGroup.symmetric(10), "Sym(10)", 3628800),
    ]


def primitive_list(n: int) -> list[tuple[PermutationGroup, str]]:
    table = {8: primitive_degree8, 9: primitive_degree9, 10: primitive_degree10}
    out = []
    for g, label, want in table[n]():
        assert g.order == want, (label, g.order, want)
        assert g.is_transitive()
        out.append((g, label))
    return out


# ----------------------------------------------------------------- dedup

def fingerprint(group: PermutationGroup) -> bytes:
    """Histogram of fixed-point counts of all powers g^1..g^n over the
    group elements; a cheap conjugacy invariant splitting order ties."""
    rows = group.element_rows()
    n = group.degree
    fixed = np.empty((len(rows), n), dtype=np.int16)
    ar = np.arange(n, dtype=np.uint8)
    P = rows
    for k in range(n):
        fixed[:, k] = (P == ar).sum(axis=1)
        if k + 1 < n:
            P = np.take_along_axis(rows, P.astype(np.intp), axis=1)
    uniq, counts = np.unique(fixed, axis=0, return_counts=True)
    return uniq.tobytes() + counts.tobytes()


def conjugate_in_sn(g1: PermutationGroup, g2: PermutationGroup,
                    perms: np.ndarray, chunk: int = 1 << 20) -> bool:
    """Scan all of Sym(n) for a conjugator carrying g1 onto g2."""
    if g1.order != g2.order:
        return False
    n = g1.degree
    enc2 = np.sort(lex_keys(g2.element_rows()))
    gens = [g.images for g in g1.generators]
    ar = np.arange(n, dtype=np.uint8)
    for lo in range(0, len(perms), chunk):
        T = perms[lo:lo + chunk]
        Tidx = T.astype(np.intp)
        Tinv = np.empty_like(T)
        np.put_along_axis(Tinv, Tidx, ar, axis=1)
        mask = np.ones(len(T), dtype=bool)
        for gi in gens:
            conj = np.take_along_axis(T, gi[Tinv].astype(np.intp), axis=1)
            e = lex_keys(conj)
            pos = np.searchsorted(enc2, e).clip(0, len(enc2) - 1)
            mask &= enc2[pos] == e
            if not mask.any():
                break
        if mask.any():
            return True
    return False


def dedup_classes(cands: list[tuple[PermutationGroup, str]],
                  perms: np.ndarray) -> list[int]:
    """Indices of one representative per Sym(n)-conjugacy class, first
    occurrence wins."""
    by_order = defaultdict(list)
    for i, (g, _) in enumerate(cands):
        by_order[g.order].append(i)
    keep = []
    for order in sorted(by_order):
        idxs = by_order[order]
        if len(idxs) == 1:
            keep.extend(idxs)
            continue
        by_fp = defaultdict(list)
        for i in idxs:
            by_fp[fingerprint(cands[i][0])].append(i)
        for fp in sorted(by_fp):
            reps = []
            for i in by_fp[fp]:
                if not any(conjugate_in_sn(cands[i][0], cands[r][0], perms) for r in reps):
                    reps.append(i)
            keep.extend(reps)
    return sorted(keep)


# ----------------------------------------------------------------- driver

def candidates(n: int) -> list[tuple[PermutationGroup, str]]:
    out = []
    if n == 8:
        out += wrapper_transitive(2, 4)
        out += wrapper_transitive(4, 2)
    elif n == 9:
        out += wrapper_transitive(3, 3)
    elif n == 10:
        out += wrapper_transitive(2, 5)
        out += block_swap_extensions()
    else:
        raise ValueError(f"no generator for degree {n}")
    out += primitive_list(n)
    return out


def build_degree(n: int, force: bool) -> list[tuple[str, int, bool, str]]:
    outdir = FIXTURE_ROOT / f"degree{n:02d}"
    expected = EXPECTED_TOTAL[n]
    if outdir.is_dir() and not force:
        have = sorted(outdir.glob("*.json"))
        if len(have) == expected:
            print(f"degree {n}: {expected} files present, skipping (use --force to rebuild)")
            return []
    t0 = time.perf_counter()
    cands = candidates(n)
    t1 = time.perf_counter()
    print(f"degree {n}: {len(cands)} candidates in {t1 - t0:.1f}s")
    perms = all_perm_rows(n)
    keep = dedup_classes(cands, perms)
    t2 = time.perf_counter()
    print(f"degree {n}: {len(keep)} classes after dedup in {t2 - t1:.1f}s")

    kept = [(cands[i][0], cands[i][1]) for i in keep]
    kept.sort(key=lambda pair: pair[0].order)
    imprim = sum(1 for g, _ in kept if g.minimal_block_systems())
    assert len(kept) == expected, (n, len(kept), expected)
    assert imprim == EXPECTED_IMPRIMITIVE[n], (n, imprim)

    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.glob("*.json"):
        stale.unlink()
    rows = []
    for i, (g, label) in enumerate(kept, start=1):
        name = f"T{n}.{i}"
        path = outdir / f"{name.replace('.', '_')}.json"
        path.write_text(json.dumps(group_json(g, name), indent=1) + "\n")
        rows.append((name, g.order, not g.minimal_block_systems(), label))
    print(f"degree {n}: wrote {len(rows)} files to {outdir}")
    return rows


PROVENANCE_HEADER = """\
# Fixture provenance

Generated by tools/make_fixtures.py.  Each degree directory holds one
JSON file per conjugacy class of transitive subgroups of Sym(n), in the
shape `derange.corpus.load_corpus` reads.

Construction: imprimitive classes are collected as transitive subgroup
classes of the block wreath products (Sym(b) wr Sym(k) for each n = b*k),
with the over-cap wrapper Sym(5) wr Sym(2) handled via Goursat subdirect
products of transitive degree-5 groups extended by a block swap; the
primitive classes are built from their standard affine, projective
semilinear, Mathieu, 2-set, alternating and symmetric actions, each
asserted to have its known order.  All candidates are then reduced to
one representative per Sym(n)-conjugacy class by an exhaustive
vectorized conjugation scan, and the class counts are asserted against
the published tallies of transitive groups (degree 8: 50, degree 9: 34,
degree 10: 45; imprimitive 43, 23, 36) before files are written.

Rebuild with:

    python3 tools/make_fixtures.py [--degree N] [--force]

Primitive classes by fixture name:
"""


def write_provenance(tables: dict[int, list[tuple[str, int, bool, str]]]):
    lines = [PROVENANCE_HEADER]
    for n in sorted(tables):
        lines.append(f"\n## Degree {n}\n")
        lines.append("| name | order | construction |")
        lines.append("| --- | --- | --- |")
        for name, order, primitive, label in tables[n]:
            if primitive:
                lines.append(f"| {name} | {order} | {label} |")
    (FIXTURE_ROOT / "PROVENANCE.md").write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE_ROOT / 'PROVENANCE.md'}")


def main() -> int:
    ap = argparse.ArgumentParser(description="generate degree 8-10 fixture corpora")
    ap.add_argument("--degree", type=int, action="append", choices=[8, 9, 10],
                    help="degree to build (repeatable; default: all)")
    ap.add_argument("--force", action="store_true", help="rebuild even if complete")
    args = ap.parse_args()
    degrees = sorted(set(args.degree)) if args.degree else [8, 9, 10]
    tables = {}
    for n in degrees:
        rows = build_degree(n, args.force)
        if rows:
            tables[n] = rows
    if len(tables) == len(EXPECTED_TOTAL):
        write_provenance(tables)
    elif tables:
        print("partial run, leaving PROVENANCE.md untouched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
