"""Permutation groups with a deterministic stabilizer-chain backbone.

Orders and memberships come from an explicitly built base and strong
generating set.  A group given by generators gets its chain by
Schreier-Sims with full Schreier-generator checking, no randomization;
base points are chosen in increasing point order, so every derived
quantity (element enumeration order, transversal layout) is
reproducible run to run.  The chain is sifted and checked by a batched
sift of uint8 rows, one array for all of a level's Schreier generators;
it has the same base, strong generators and transversals as the loop
that sifts one element at a time (``tests/oracles.py::ReferenceBSGS``).
A group whose base and strong generators are known by construction
(a subdirect product, from its factors' chains) gets its chain built
from them, with no search: ``BSGS.from_strong_generators``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .perm import GroupError, Perm, invert_rows, rows_of


class ResourceCapExceeded(RuntimeError):
    """A computation would exceed a configured cap; result withheld."""


# the most elements (group elements or field vectors) any exhaustive
# scan lists, unless a caller passes its own cap
ENUM_CAP = 10**7


class _Level(NamedTuple):
    """One level of the chain: the rows of the strong generators fixing
    the base points before it, in order; the orbit of its base point,
    sorted; the representative row of each orbit point and its inverse
    row; and point -> row index, -1 off the orbit."""

    gens: np.ndarray
    points: np.ndarray
    reps: np.ndarray
    inv: np.ndarray
    index: np.ndarray


class BSGS:
    """Base, strong generators and explicit transversals for one group.

    Level i acts with every strong generator fixing base[:i]; after an
    insertion the affected levels are re-verified until every Schreier
    generator sifts to the identity, which certifies the order formula.
    """

    def __init__(self, degree: int, generators=()):
        self.degree = degree
        self.base: list[int] = []
        self.strong_gens: list[Perm] = []
        self._gen_rows = np.empty((0, degree), dtype=np.uint8)
        self._levels: list[_Level] = []
        # the product of the orbit lengths, kept up to date by _insert
        self.order = 1
        for g in generators:
            self.extend(g)

    @classmethod
    def from_strong_generators(cls, degree: int, base, strong_gens) -> "BSGS":
        """The chain of a known base and strong generating set, with no
        sifting: the caller vouches that, for each i, the strong
        generators fixing base[:i] generate that point stabilizer.  Each
        level's transversal is built by the same orbit walk as in
        Schreier-Sims, and the order is the product of the orbit lengths.
        """
        chain = cls(degree)
        chain.base = [int(b) for b in base]
        chain.strong_gens = list(strong_gens)
        chain._gen_rows = rows_of(chain.strong_gens, degree)
        chain._levels = [None] * len(chain.base)
        for i in range(len(chain.base)):
            chain._rebuild(i)
        chain._set_order()
        return chain

    def sift_rows(self, rows: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Each (m, degree) row reduced through levels[start:]: the residue
        rows and the level where each got stuck, len(base) if none."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            # checked before any indexing, which need not fail on a mismatch
            raise GroupError(f"rows of shape {rows.shape} given to a chain of degree {self.degree}")
        res = rows.astype(np.uint8)
        stuck = np.full(len(res), len(self.base), dtype=np.intp)
        live = np.arange(len(res))
        for i in range(start, len(self.base)):
            level = self._levels[i]
            idx = level.index[res[live, self.base[i]]]
            out = idx < 0
            stuck[live[out]] = i
            live, idx = live[~out], idx[~out]
            # row * u^-1: apply the row, then the inverse representative
            res[live] = level.inv[idx[:, None], res[live]]
        return res, stuck

    def sift(self, g: Perm, start: int = 0) -> tuple[Perm, int]:
        """g reduced through levels[start:]; returns (residue, stuck level)."""
        res, stuck = self.sift_rows(g.images[None, :], start)
        return Perm(res[0], validate=False), int(stuck[0])

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """mask[i] = row i is an element of the group."""
        res, stuck = self.sift_rows(rows)
        return (stuck == len(self.base)) & (res == np.arange(self.degree)).all(axis=1)

    def __contains__(self, g: Perm) -> bool:
        return bool(self.contains_rows(g.images[None, :])[0])

    def extend(self, g: Perm) -> bool:
        """Adjoin one element; returns True if the group grew."""
        residue, j = self.sift(g)
        if j == len(self.base) and residue.is_identity():
            return False
        self._insert(residue, j)
        self._complete(j)
        return True

    def _insert(self, residue: Perm, j: int) -> None:
        if j == len(self.base):
            self.base.append(int(residue.moved_points()[0]))
            self._levels.append(None)
        self.strong_gens.append(residue)
        self._gen_rows = np.concatenate([self._gen_rows, residue.images[None, :]])
        for i in range(j + 1):
            self._rebuild(i)
        self._set_order()

    def _set_order(self) -> None:
        self.order = 1
        for level in self._levels:
            self.order *= len(level.points)

    def _rebuild(self, i: int) -> None:
        prefix = self.base[:i]
        rows = self._gen_rows
        gens = rows[(rows[:, prefix] == np.array(prefix, dtype=np.uint8)).all(axis=1)]
        images = gens.tolist()
        # breadth-first orbit of base[i]: point p, in discovery order, and
        # generator s reach q = s(p) with u_q = u_p * s the first time
        pts = [self.base[i]]
        seen = set(pts)
        reps = [np.arange(self.degree, dtype=np.uint8)]
        for j, p in enumerate(pts):  # grows while it is walked
            for s, img in zip(gens, images):
                q = img[p]
                if q not in seen:
                    seen.add(q)
                    pts.append(q)
                    reps.append(s[reps[j]])
        order = np.argsort(pts)
        points = np.array(pts)[order]
        reps = np.array(reps)[order]
        reps.setflags(write=False)
        index = np.full(self.degree, -1, dtype=np.intp)
        index[points] = np.arange(len(points))
        self._levels[i] = _Level(gens, points, reps, invert_rows(reps), index)

    def _verify_level(self, i: int):
        """The first Schreier generator u_p * s * u_(s(p))^-1 of level i,
        p in orbit order, then s, that does not sift to the identity
        through the levels below: (residue, stuck level), or None."""
        level = self._levels[i]
        gens = level.gens
        # us[p, s, x] = s(u_p(x)); back[p, s] = the row of u_(s(p))
        us = gens[np.arange(len(gens))[None, :, None], level.reps[:, None, :]]
        back = level.index[gens[:, level.points].T]
        ident = np.arange(self.degree, dtype=np.uint8)
        w = level.inv[back[:, :, None], us].reshape(-1, self.degree)
        w = w[(w != ident).any(axis=1)]
        res, stuck = self.sift_rows(w, i + 1)
        bad = np.flatnonzero((stuck < len(self.base)) | (res != ident).any(axis=1))
        if not bad.size:
            return None
        return Perm(res[bad[0]], validate=False), int(stuck[bad[0]])

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

    def transversal_rows(self) -> list[np.ndarray]:
        """Per level, coset representative rows sorted by orbit point
        (read-only: they are the chain's own arrays)."""
        return [level.reps for level in self._levels]


class PermutationGroup:
    """A finitely generated subgroup of Sym(degree)."""

    def __init__(self, degree: int, generators, name: str | None = None):
        self.degree = int(degree)
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != self.degree:
                raise GroupError(
                    f"generator degree {g.degree} does not match group degree {self.degree}"
                )
            if g.is_identity() or g.key in seen:
                continue
            seen.add(g.key)
            gens.append(g)
        self.generators: list[Perm] = gens
        self.name = name
        self._bsgs: BSGS | None = None
        self._orbits: list[np.ndarray] | None = None
        # the quotient model by this group, kept by subdirect.quotient
        self._quotient = None

    @staticmethod
    def from_cycles(degree: int, cycle_gens, name: str | None = None) -> "PermutationGroup":
        return PermutationGroup(
            degree, [Perm.from_cycles(degree, *cycs) for cycs in cycle_gens], name=name
        )

    @staticmethod
    def symmetric(degree: int, name: str | None = None) -> "PermutationGroup":
        if degree == 1:
            return PermutationGroup(1, [], name=name)
        gens = [Perm.from_cycles(degree, tuple(range(degree)))]
        if degree > 2:
            gens.append(Perm.from_cycles(degree, (0, 1)))
        return PermutationGroup(degree, gens, name=name)

    def __repr__(self):
        label = self.name or f"degree {self.degree} with {len(self.generators)} generators"
        return f"PermutationGroup<{label}>"

    # --- stabilizer chain ------------------------------------------------

    @staticmethod
    def from_chain(chain: BSGS, name: str | None = None) -> "PermutationGroup":
        """The group of a built chain, generated by its strong generators."""
        group = PermutationGroup(chain.degree, chain.strong_gens, name=name)
        group._bsgs = chain
        return group

    @property
    def bsgs(self) -> BSGS:
        if self._bsgs is None:
            self._bsgs = BSGS(self.degree, self.generators)
        return self._bsgs

    @property
    def order(self) -> int:
        return self.bsgs.order

    def __contains__(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        return g in self.bsgs

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        if not self.generators:
            return True
        return self.degree == other.degree and bool(
            other.bsgs.contains_rows(rows_of(self.generators, self.degree)).all()
        )

    def same_group(self, other: "PermutationGroup") -> bool:
        return self.order == other.order and self.is_subgroup_of(other)

    # --- orbits and actions ----------------------------------------------

    def orbits(self) -> list[np.ndarray]:
        """Orbits on 0..degree-1, sorted by least point, each sorted."""
        if self._orbits is None:
            pairs = [(x, y) for g in self.generators for x, y in enumerate(g.images.tolist())]
            label = _join_classes(self.degree, pairs)
            # labels run 0..k-1; np.unique would first import numpy.ma (about 1.5 MB)
            self._orbits = [np.flatnonzero(label == k) for k in range(label.max(initial=-1) + 1)]
        return self._orbits

    def orbit(self, point: int) -> np.ndarray:
        for orb in self.orbits():
            if point in orb:
                return orb
        raise GroupError(f"point {point} out of range")

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1 and self.degree >= 1

    def induced_action(self, points) -> tuple["PermutationGroup", dict[int, int]]:
        """Faithful image of the action on an invariant point set.

        Returns the image group on len(points) relabeled points and the
        point map old -> new.  Raises if the set is not invariant.
        """
        pts = sorted(int(p) for p in points)
        relabel = {p: i for i, p in enumerate(pts)}
        gens = []
        for g in self.generators:
            images = [g(p) for p in pts]
            if any(q not in relabel for q in images):
                raise GroupError("point set is not invariant under the group")
            gens.append(Perm([relabel[q] for q in images]))
        image = PermutationGroup(len(pts), gens)
        return image, relabel

    # --- element streaming -------------------------------------------------

    def element_blocks(self, block_rows: int = 1 << 15):
        """Yield all elements as uint8 row blocks, in a fixed order.

        The order is the odometer over stabilizer-chain transversals with
        the top level varying slowest.  Concatenated blocks enumerate the
        group exactly once.
        """
        tr = self.bsgs.transversal_rows()
        if not tr:
            yield np.arange(self.degree, dtype=np.uint8)[None, :]
            return

        # an element is u_{k-1} * ... * u_1 * u_0 (deepest level applied
        # first); enumeration runs the level-0 index slowest
        sizes = [t.shape[0] for t in tr]
        split = len(tr)
        tail = 1
        while split > 0 and tail * sizes[split - 1] <= block_rows:
            tail *= sizes[split - 1]
            split -= 1

        suffix = tr[-1]
        for j in range(len(tr) - 2, split - 1, -1):
            t = tr[j]
            # prod[b, a] = suffix[a] * t[b]; flattening keeps shallower
            # levels slower
            prod = t[:, suffix]
            suffix = prod.reshape(-1, self.degree)

        # one row per level above split, the odometer running level 0
        # slowest; a recursive inner generator would sit in a reference
        # cycle with itself and keep suffix alive until a cyclic collection
        for rows in product(*tr[:split]):
            acc = None
            for row in rows:
                acc = row if acc is None else acc[row]
            yield suffix if acc is None else acc[suffix]

    def element_rows(self, cap: int | None = None) -> np.ndarray:
        """All elements as one row array; raises ResourceCapExceeded over cap."""
        if cap is not None and self.order > cap:
            raise ResourceCapExceeded(
                f"group order {self.order} exceeds enumeration cap {cap}"
            )
        return np.concatenate(list(self.element_blocks()), axis=0)

    def random_element(self, rng: np.random.Generator) -> Perm:
        """Uniformly random element via transversal products."""
        tr = self.bsgs.transversal_rows()
        if not tr:
            return Perm.identity(self.degree)
        row = None
        # deepest transversal applies first; each pick is uniform per level
        for t in reversed(tr):
            pick = t[int(rng.integers(t.shape[0]))]
            row = pick if row is None else pick[row]
        return Perm(row, validate=False)

    # --- block systems -----------------------------------------------------

    def minimal_block_systems(self, orbit=None) -> list["BlockSystem"]:
        """All minimal nontrivial block systems on one orbit.

        Defaults to the first orbit; empty list iff that action is
        primitive (or the orbit is too short to split).
        """
        orb = np.asarray(sorted(orbit)) if orbit is not None else self.orbit(0)
        image, relabel = self.induced_action(orb)
        m = len(orb)
        if m < 2:
            return []
        gens = [g.images for g in image.generators]
        systems = {}
        for beta in range(1, m):
            block_of = _join_classes(m, [(0, beta)], gens)
            nblocks = int(block_of.max()) + 1
            if nblocks <= 1:
                continue
            systems.setdefault(block_of.tobytes(), block_of)
        keep = []
        items = sorted(systems.values(), key=lambda b: b.tobytes())
        for cand in items:
            minimal = True
            for other in items:
                if other is cand:
                    continue
                if _refines(other, cand) and not np.array_equal(other, cand):
                    minimal = False
                    break
            if minimal:
                keep.append(cand)
        out = []
        for block_of in keep:
            full = np.full(self.degree, -1, dtype=np.int16)
            full[orb] = block_of
            nblocks = int(block_of.max()) + 1
            out.append(BlockSystem(self.degree, full, nblocks, m // nblocks))
        return out


@dataclass
class BlockSystem:
    """A G-invariant partition of one orbit into equal-size blocks.

    block_of maps a point to its block id, -1 off the orbit.
    """

    degree: int
    block_of: np.ndarray
    num_blocks: int
    block_size: int

    def __post_init__(self):
        on = self.block_of >= 0
        if self.num_blocks * self.block_size != int(on.sum()):
            raise GroupError("block count times block size must cover the orbit")
        counts = np.bincount(self.block_of[on], minlength=self.num_blocks)
        if not (counts == self.block_size).all():
            raise GroupError("blocks are not of equal size")


def _join_classes(m: int, pairs, gen_rows=()) -> np.ndarray:
    """Class labels of the finest partition of 0..m-1 that joins each
    pair and is closed under the generator rows (joining a and b joins
    g[a] and g[b]); classes are numbered by their least point.

    Union-find with a merge queue: each root is its class's least point,
    and a merge of two roots queues their images under every generator.
    """
    parent = list(range(m))
    rows = [np.asarray(g).tolist() for g in gen_rows]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        for g in rows:
            queue.append((g[ra], g[rb]))
    labels = {}
    label = np.empty(m, dtype=np.int16)
    for x in range(m):
        label[x] = labels.setdefault(find(x), len(labels))
    return label


def _refines(finer: np.ndarray, coarser: np.ndarray) -> bool:
    """True if every block of `finer` lies inside a block of `coarser`."""
    seen = {}
    for f, c in zip(finer.tolist(), coarser.tolist()):
        if f in seen:
            if seen[f] != c:
                return False
        else:
            seen[f] = c
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n, primes increasing; [] for n < 2.

    Trial division: quick for the small numbers and smooth group orders
    it is used on.
    """
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out
