"""Shared brute-force oracles for the test suite.

Everything here trades speed for obvious correctness: no conjugacy
shortcuts, no lattice pruning, just exhaustive closure growth.  Also the
one-element helpers the tests share (a group's elements as ``Perm``s,
conjugation, the derangement test, a block system's blocks and a class
table's sizes), the class-sum count of non-derangements that the scan
must match, the reference versions of the stabilizer chain, the normal
closure, the normal-subgroup lattice, the quotient isomorphism search
and its dedup pass that the library's faster ones must match output for
output, a subdirect product grown by Schreier-Sims from its generators
(the group the chain built from the factors must equal), the scan of
all q^d vectors behind the two hyperplane-cover flags, and the one
recipe for launching the ``derange`` CLI in a separate process.
"""

import os
import sys
from pathlib import Path

import numpy as np

from derange.group import PermutationGroup, ResourceCapExceeded
from derange.perm import Perm, fixes_any, lex_sorted, rows_of
from derange.structure import conjugacy_classes, normal_closure
from derange.subdirect import quotient_isomorphisms


def elements(group) -> list[Perm]:
    """Every element of the group as a Perm, in enumeration order."""
    return [Perm(row, validate=False) for row in group.element_rows()]


def conjugate(h: Perm, g: Perm) -> Perm:
    """g^-1 * h * g."""
    return g.inverse() * h * g


def is_derangement(g: Perm, omega) -> bool:
    """g fixes no point of omega."""
    return not fixes_any(g.images[None, :], list(omega))[0]


def blocks(system) -> list[tuple[int, ...]]:
    """The blocks of a block system, each as its sorted points, in
    block-label order."""
    out = [[] for _ in range(system.num_blocks)]
    for p, b in enumerate(system.block_of.tolist()):
        if b >= 0:
            out[b].append(p)
    return [tuple(b) for b in out]


def class_sizes(table) -> list[int]:
    """The sizes of a conjugacy class table's classes, in table order."""
    return [c.size for c in table.classes]


def class_sum_nonderangements(group, omega, class_cap: int = 10**6) -> int:
    """Non-derangements counted by classes: the summed sizes of the
    conjugacy classes whose representative fixes a point of omega.

    Sound only for a G-invariant omega, where "fixes a point of omega"
    is constant on classes; any other omega raises ValueError.
    """
    pts = np.asarray(sorted(int(x) for x in omega))
    inside = set(pts.tolist())
    if any(g(x) not in inside for g in group.generators for x in inside):
        raise ValueError("point set is not group-invariant")
    table = conjugacy_classes(group, cap=class_cap)
    return sum(c.size for c in table if bool((c.rep.images[pts] == pts).any()))


class ReferenceBSGS:
    """``group.BSGS`` one element at a time: the same deterministic
    Schreier-Sims, sifting each element and each Schreier generator with
    ``Perm`` products and keeping transversals as dicts.  The batched
    chain must build the same base, strong generators and transversals."""

    def __init__(self, degree: int, generators=()):
        self.degree = degree
        self.base: list[int] = []
        self.strong_gens: list[Perm] = []
        self.transversals: list[dict[int, Perm]] = []
        for g in generators:
            self.extend(g)

    # g reduced through levels[start:]; returns (residue, stuck level)
    def sift(self, g: Perm, start: int = 0) -> tuple[Perm, int]:
        for i in range(start, len(self.base)):
            p = g(self.base[i])
            u = self.transversals[i].get(p)
            if u is None:
                return g, i
            g = g * u.inverse()
        return g, len(self.base)

    def __contains__(self, g: Perm) -> bool:
        residue, i = self.sift(g)
        return i == len(self.base) and residue.is_identity()

    def extend(self, g: Perm) -> bool:
        residue, j = self.sift(g)
        if j == len(self.base) and residue.is_identity():
            return False
        self._insert(residue, j)
        self._complete(j)
        return True

    def _insert(self, residue: Perm, j: int) -> None:
        if j == len(self.base):
            self.base.append(int(residue.moved_points()[0]))
            self.transversals.append({})
        self.strong_gens.append(residue)
        for i in range(j + 1):
            self._rebuild(i)

    def _level_gens(self, i: int) -> list[Perm]:
        prefix = self.base[:i]
        return [g for g in self.strong_gens if all(g(b) == b for b in prefix)]

    def _rebuild(self, i: int) -> None:
        gens = self._level_gens(i)
        base = self.base[i]
        tr = {base: Perm.identity(self.degree)}
        frontier = [base]
        while frontier:
            nxt = []
            for p in frontier:
                u = tr[p]
                for s in gens:
                    q = s(p)
                    if q not in tr:
                        tr[q] = u * s
                        nxt.append(q)
            frontier = nxt
        self.transversals[i] = tr

    def _verify_level(self, i: int):
        tr = self.transversals[i]
        gens = self._level_gens(i)
        for p in sorted(tr):
            u = tr[p]
            for s in gens:
                w = u * s * tr[s(p)].inverse()
                if w.is_identity():
                    continue
                residue, j = self.sift(w, i + 1)
                if not (j == len(self.base) and residue.is_identity()):
                    return residue, j
        return None

    def _complete(self, start: int) -> None:
        i = min(start, len(self.base) - 1)
        while i >= 0:
            bad = self._verify_level(i)
            if bad is None:
                i -= 1
                continue
            residue, j = bad
            self._insert(residue, j)
            i = j

    @property
    def order(self) -> int:
        n = 1
        for tr in self.transversals:
            n *= len(tr)
        return n

    def transversal_rows(self) -> list[np.ndarray]:
        return [rows_of([tr[p] for p in sorted(tr)], self.degree) for tr in self.transversals]


def reference_normal_closure(group, seeds) -> ReferenceBSGS:
    """The chain of ``normal_closure`` grown one popped element at a time."""
    b = ReferenceBSGS(group.degree)
    queue = list(seeds)
    while queue:
        h = queue.pop()
        if b.extend(h):
            queue.extend(conjugate(h, g) for g in group.generators)
    return b


def closure_rows(degree: int, gen_rows: np.ndarray, cap: int | None = None) -> np.ndarray:
    """All elements of <gens> as rows, by breadth-first word closure.

    Independent of the stabilizer chain and of any element table.  Rows
    come out sorted lexicographically.
    """
    ident = np.arange(degree, dtype=np.uint8)
    if len(gen_rows) == 0:
        return ident[None, :]
    gens = np.asarray(gen_rows, dtype=np.uint8)
    seen = {ident.tobytes()}
    rows = [ident]
    frontier = ident[None, :]
    while frontier.size:
        new = []
        for g in gens:
            prod = g[frontier]  # frontier rows, then g
            for row in prod:
                k = row.tobytes()
                if k not in seen:
                    seen.add(k)
                    new.append(row)
        if cap is not None and len(rows) + len(new) > cap:
            raise ResourceCapExceeded(f"closure exceeds cap {cap}")
        if not new:
            break
        frontier = np.array(new, dtype=np.uint8)
        rows.extend(new)
    out = np.array(rows, dtype=np.uint8)
    return out[np.lexsort(out.T[::-1])]


def subgroup_scan(G):
    """Every subgroup of G as an explicit group, by breadth-first
    closure growth: adjoin one element at a time from the trivial group."""
    elems = [Perm(r, validate=False) for r in G.element_rows()]
    triv = PermutationGroup(G.degree, [])
    tkey = frozenset(p.key for p in elements(triv))
    seen = {tkey: triv}
    frontier = [(triv, tkey)]
    while frontier:
        nxt = []
        for H, hkey in frontier:
            for g in elems:
                if g.key in hkey:
                    continue
                K = PermutationGroup(G.degree, H.generators + [g])
                key = frozenset(p.key for p in elements(K))
                if key not in seen:
                    seen[key] = K
                    nxt.append((K, key))
        frontier = nxt
    return list(seen.values())


def are_conjugate(G, H, K) -> bool:
    """True when H^y = K for some y in G, by scanning all of G."""
    if H.order != K.order:
        return False
    want = frozenset(p.key for p in elements(K))
    for y in elements(G):
        if frozenset(conjugate(h, y).key for h in elements(H)) == want:
            return True
    return False


def _combine(g1: Perm, g2: Perm) -> Perm:
    return Perm(np.concatenate([g1.images, g2.images + g1.degree]), validate=False)


def reference_materialize(desc) -> PermutationGroup:
    """The subdirect product of a Goursat descriptor, by Schreier-Sims on
    lifted quotient generators plus both kernels' generators; the order
    check |G1| |N2| is what certifies the point map."""
    q1, q2 = desc.q1, desc.q2
    id1 = Perm.identity(q1.parent.degree)
    id2 = Perm.identity(q2.parent.degree)
    gens = [_combine(q1.reps[p], q2.reps[desc.point_map[p]]) for p in q1.generating_points]
    gens.extend(_combine(n, id2) for n in q1.kernel.generators)
    gens.extend(_combine(id1, n) for n in q2.kernel.generators)
    G = PermutationGroup(q1.parent.degree + q2.parent.degree, gens)
    if G.order != desc.subgroup_order:
        raise ValueError(f"order {G.order} is not the descriptor's {desc.subgroup_order}")
    return G


def brute_derangement(G):
    """Lex-least element fixing no point, or None, by full scan."""
    idx = np.arange(G.degree, dtype=np.uint8)
    rows = G.element_rows()
    hit = ~(rows == idx[None, :]).any(axis=1)
    if not hit.any():
        return None
    cand = rows[hit]
    return Perm(cand[np.lexsort(cand.T[::-1])][0], validate=False)


def reference_normal_subgroups(group, class_cap=10**6):
    """``normal_subgroups`` with the plain round loop: every round joins
    every pair of known normal subgroups, until a round adds none."""
    table = conjugacy_classes(group, cap=class_cap)
    atoms = []
    for cls in table:
        if cls.rep.is_identity():
            continue
        atoms.append(normal_closure(group, [cls.rep]))
    lattice = {}

    def add(h):
        bucket = lattice.setdefault(h.order, [])
        for other in bucket:
            if h.same_group(other):
                return False
        bucket.append(h)
        return True

    trivial = PermutationGroup(group.degree, [], name="1")
    add(trivial)
    for a in atoms:
        add(a)
    grew = True
    while grew:
        grew = False
        flat = [h for bucket in lattice.values() for h in bucket]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                join = normal_closure(group, flat[i].generators + flat[j].generators)
                if add(join):
                    grew = True
    out = [h for bucket in lattice.values() for h in bucket]
    if not any(h.order == group.order for h in out):
        out.append(PermutationGroup(group.degree, group.generators, name=group.name))
    out.sort(key=lambda h: (h.order, [g.key for g in h.generators]))
    return out


def reference_isomorphisms(q1, q2):
    """Every isomorphism of two quotient models, in the order and form of
    ``quotient_isomorphisms(q1, q2, dedup=False)``: the same generator
    images tried in the same order, but each partial map grown to the
    subgroup its domain generates by checking every product of a known
    point with a new one."""
    if q1.order != q2.order:
        return []
    if q1.order == 1:
        return [np.zeros(1, dtype=np.int64)]
    m = q1.order
    t1, t2 = q1.table, q2.table
    gens = q1.generating_points
    ord1, ord2 = q1.element_orders, q2.element_orders
    cands = []
    for g in gens:
        pool = [p for p in range(m) if int(ord2[p]) == int(ord1[g])]
        pool.sort(key=lambda p: q2.reps[p].key)
        cands.append(pool)
    found = []

    def close(fwd, bwd, frontier):
        while frontier:
            cur = np.asarray(sorted(set(frontier)), dtype=np.int64)
            known = np.nonzero(fwd >= 0)[0]
            a = np.concatenate([
                t1[cur[None, :], known[:, None]].ravel(),
                t1[known[None, :], cur[:, None]].ravel(),
            ]).astype(np.int64)
            b = np.concatenate([
                t2[fwd[cur][None, :], fwd[known][:, None]].ravel(),
                t2[fwd[known][None, :], fwd[cur][:, None]].ravel(),
            ]).astype(np.int64)
            have = fwd[a]
            if ((have >= 0) & (have != b)).any():
                return False
            mask = have < 0
            if not mask.any():
                break
            na, nb = a[mask], b[mask]
            order = np.argsort(na, kind="stable")
            na, nb = na[order], nb[order]
            keep = np.concatenate([[True], na[1:] != na[:-1]])
            ka, kb = na[keep], nb[keep]
            if np.unique(kb).size != kb.size or (bwd[kb] >= 0).any():
                return False
            fwd[ka] = kb
            bwd[kb] = ka
            if (fwd[na] != nb).any():
                return False
            frontier = ka.tolist()
        return True

    def extend(depth, fwd, bwd):
        if depth == len(gens):
            found.append(fwd.copy())
            return
        g = gens[depth]
        for c in cands[depth]:
            if bwd[c] >= 0:
                continue
            f2, b2 = fwd.copy(), bwd.copy()
            f2[g], b2[c] = c, g
            if close(f2, b2, [g]):
                extend(depth + 1, f2, b2)

    fwd = np.full(m, -1, dtype=np.int64)
    bwd = np.full(m, -1, dtype=np.int64)
    fwd[0] = bwd[0] = 0
    extend(0, fwd, bwd)
    return found


def reference_dedup_isomorphisms(q1, q2):
    """One isomorphism per class modulo inner automorphisms of q2, in the
    order and form of ``quotient_isomorphisms(q1, q2, dedup=True)``: the
    full search, then the first map found with each conjugation key, the
    lex-least row of the generator images conjugated by each element."""
    isos = quotient_isomorphisms(q1, q2, dedup=False)
    if len(isos) < 2:
        return isos
    gens = q1.generating_points
    t2 = q2.table
    inv2 = np.argmax(t2 == 0, axis=1)
    ys = np.arange(q2.order)
    keep, seen = [], set()
    for iso in isos:
        imgs = iso[gens]
        # y^-1 * x * y for every y (rows), every generator image x (cols)
        conj = t2[ys[:, None], t2[imgs[None, :], inv2[ys][:, None]]]
        key = lex_sorted(conj)[0].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(iso)
    return keep


def full_cover_scan(field, d: int, normals) -> tuple[bool, bool]:
    """(covers_all, trivial_intersection) for hyperplane normals over
    GF(q)^d, zero rows allowed, by evaluating every normal on every one
    of the q^d vectors: each vector lies on some plane, and only the
    zero vector lies on all of them."""
    normals = np.asarray(normals, dtype=np.int64).reshape(-1, d)
    values = np.arange(field.q)
    on = np.empty((len(normals), field.q**d), dtype=bool)
    for i, normal in enumerate(normals):
        dots = np.zeros(1, dtype=np.int64)  # a.v for every v, one coordinate at a time
        for a in normal:
            dots = field.add[dots[:, None], field.mul[a, values][None, :]].ravel()
        on[i] = dots == 0
    return bool(on.any(axis=0).all()), int(on.all(axis=0).sum()) == 1


SRC = Path(__file__).resolve().parent.parent / "src"


def derange_process(*args):
    """``(cmd, env)`` that run ``derange ARGS`` in a fresh interpreter,
    calling the console script's target ``derange.cli:derange`` with this
    checkout's ``src/`` first on ``PYTHONPATH``: no install needed, and
    an installed copy is never the one tested."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "from derange.cli import derange; derange(prog_name='derange')"
    return [sys.executable, "-c", code, *args], env
