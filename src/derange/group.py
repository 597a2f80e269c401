"""Permutation groups with a deterministic stabilizer-chain backbone.

A group given by generators has its order and memberships from an
explicitly built base and strong generating set, its chain, built by
Schreier-Sims with full Schreier-generator checking, no randomization;
base points are chosen in increasing point order, so every derived
quantity (element enumeration order, transversal layout) is
reproducible run to run.  The chain is sifted and checked by a batched
sift of uint8 rows, one array for all of a level's Schreier generators;
it has the same base, strong generators and transversals as the loop
that sifts one element at a time (``tests/oracles.py::ReferenceBSGS``).
Membership is two gathers per level, the row index of a row's base
image and then that inverse representative; only the one Schreier
generator that fails is sifted again to find the level where it got
stuck.  The chain also keys cosets: ``BSGS.coset_keys`` maps each row
to the element of its coset whose base images are least, level by
level.  A group given by all its elements (a normal subgroup off a
class table, a Sylow subgroup, a subdirect product listed from matched
cosets, a builtin corpus entry off the subgroup scan's table) holds them
as a lex-sorted listing, which gives its order, its elements and
membership (one search of the listing's lex keys); its chain is read
off the listing, with no search, only when asked for
(``BSGS.from_listing``).  Block systems on the first orbit come from one
routine, the block closure of 0 and each other orbit point
(``PermutationGroup.block_closures``).
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .perm import GroupError, Perm, in_listing, invert_rows, rows_of


class ResourceCapExceeded(RuntimeError):
    """A computation would exceed a configured cap; result withheld."""


# the most elements (group elements or field vectors) any exhaustive
# scan lists, unless a caller passes its own cap
ENUM_CAP = 10**7
# rows per block when elements are streamed or scanned block by block
BLOCK_ROWS = 1 << 15


def _checked_rows(rows, degree: int) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != degree:
        # checked before any indexing or search, which need not fail on a mismatch
        raise GroupError(f"rows of shape {rows.shape} given to a group of degree {degree}")
    return rows.astype(np.uint8, copy=False)


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
    def from_listing(cls, listing: np.ndarray) -> "BSGS":
        """The chain of a group given by all its elements, read off the
        listing with no sifting.

        Each base point is the first point the current stabilizer moves,
        and the stabilizer's first element (in listing order) taking it
        to each point of its orbit is that point's representative.  The
        strong generators are picked from the deepest level up: those of
        the levels below fix the level's base point, and a level's
        representative is adjoined when its point is not yet in the base
        point's orbit under the ones picked so far.  Those then reach the
        whole orbit, so with the stabilizer of the next base point they
        generate the level's stabilizer, as a chain requires.
        """
        degree = listing.shape[1]
        ident = np.arange(degree, dtype=np.uint8)
        chain = cls(degree)
        reps = []
        stab = listing
        while len(stab) > 1:
            b = int(np.flatnonzero((stab != ident).any(axis=0))[0])
            images = stab[:, b]
            order = np.argsort(images, kind="stable")
            ranked = images[order]
            chain.base.append(b)
            reps.append(stab[order[np.concatenate([[True], ranked[1:] != ranked[:-1]])]])
            stab = stab[images == b]
        picked = []  # per level, deepest first
        gens: list[list[int]] = []
        for b, level_reps in zip(reversed(chain.base), reversed(reps)):
            reached = bytearray(degree)
            reached[b] = 1
            orbit = [b]
            picked.append([])
            for row in level_reps.tolist():
                if reached[row[b]]:
                    continue
                picked[-1].append(row)
                gens.append(row)
                for p in orbit:  # grows while it is walked
                    for g in gens:
                        if not reached[g[p]]:
                            reached[g[p]] = 1
                            orbit.append(g[p])
        rows = [row for level in reversed(picked) for row in level]
        chain._gen_rows = np.array(rows, dtype=np.uint8).reshape(-1, degree)
        chain.strong_gens = [Perm(row, validate=False) for row in chain._gen_rows]
        chain._levels = [None] * len(chain.base)
        for i, level_reps in enumerate(reps):
            chain._set_level(i, chain._level_gens(i), level_reps[:, chain.base[i]], level_reps)
        chain._set_order()
        return chain

    def _sifted(self, rows: np.ndarray, start: int) -> np.ndarray:
        """Each uint8 row times the inverse representatives it meets in
        levels[start:], two gathers per level: the identity iff the row
        lies in the group those levels describe.

        A base image off the orbit has index -1, which picks the last
        representative.  Like every representative of the levels below,
        it lies in the group of the level's generators, which maps the
        level's orbit, and so the points off it, onto themselves: the
        row's image of the base point stays off the orbit, and the row
        never becomes the identity.
        """
        for level, b in zip(self._levels[start:], self.base[start:]):
            rows = level.inv[level.index[rows[:, b]][:, None], rows]
        return rows

    def sift_rows(self, rows: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Each (m, degree) row reduced through levels[start:]: the residue
        rows and the level where each got stuck, len(base) if none."""
        res = _checked_rows(rows, self.degree).copy()
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
        res = self._sifted(_checked_rows(rows, self.degree), 0)
        return (res == np.arange(self.degree)).all(axis=1)

    def coset_keys(self, rows: np.ndarray) -> np.ndarray:
        """One element of each row's coset {h * row : h in the group},
        the same for every row of a coset: the element whose images of
        the base points are least, in base order.  Level by level, the
        orbit point the row sends least picks the representative u, and
        the row becomes u * row (u applied first)."""
        res = _checked_rows(rows, self.degree)
        at = np.arange(len(res))[:, None]
        for level in self._levels:
            least = np.argmin(res[:, level.points], axis=1)
            res = res[at, level.reps[least]]
        return res

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

    def _level_gens(self, i: int) -> np.ndarray:
        """The rows of the strong generators fixing base[:i]."""
        prefix = self.base[:i]
        rows = self._gen_rows
        return rows[(rows[:, prefix] == np.array(prefix, dtype=np.uint8)).all(axis=1)] if i else rows

    def _set_level(self, i: int, gens: np.ndarray, points: np.ndarray, reps: np.ndarray) -> None:
        """Level i from its generator rows, its orbit points, sorted, and
        their representative rows."""
        reps.setflags(write=False)
        index = np.full(self.degree, -1, dtype=np.intp)
        index[points] = np.arange(len(points))
        self._levels[i] = _Level(gens, points, reps, invert_rows(reps), index)

    def _rebuild(self, i: int) -> None:
        gens = self._level_gens(i)
        images = gens.tolist()
        # breadth-first orbit of base[i]: point p, in discovery order, and
        # generator s reach q = s(p) with u_q = u_p * s the first time; the
        # walk runs on Python lists, which beat one numpy call per point
        pts = [self.base[i]]
        seen = [False] * self.degree
        seen[pts[0]] = True
        reps = [list(range(self.degree))]
        for j, p in enumerate(pts):  # grows while it is walked
            rep = reps[j]
            for img in images:
                q = img[p]
                if not seen[q]:
                    seen[q] = True
                    pts.append(q)
                    reps.append([img[x] for x in rep])
        order = sorted(range(len(pts)), key=pts.__getitem__)
        self._set_level(i, gens, np.array(pts)[order], np.array([reps[k] for k in order], dtype=np.uint8))

    def _verify_level(self, i: int):
        """The first Schreier generator u_p * s * u_(s(p))^-1 of level i,
        p in orbit order, then s, that does not sift to the identity
        through the levels below: (residue, stuck level), or None."""
        level = self._levels[i]
        gens = level.gens
        # us[p, s, x] = s(u_p(x)); back[p, s] = the row of u_(s(p))
        us = gens[np.arange(len(gens))[None, :, None], level.reps[:, None, :]]
        back = level.index[gens[:, level.points].T]
        w = level.inv[back[:, :, None], us].reshape(-1, self.degree)
        res = self._sifted(w, i + 1)
        bad = np.flatnonzero((res != np.arange(self.degree)).any(axis=1))
        if not bad.size:
            return None
        return self.sift(Perm(w[bad[0]], validate=False), i + 1)

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
        # None for a group given by its listing alone: see generators
        self._generators: list[Perm] | None = gens
        self.name = name
        self._bsgs: BSGS | None = None
        # all elements as lex-sorted rows, when the group was given by them
        self._listing: np.ndarray | None = None
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
    def from_listing(listing: np.ndarray, generators=None, name: str | None = None) -> "PermutationGroup":
        """The group whose elements are the rows of a lex-sorted listing,
        which the caller vouches is closed under products.  Its order and
        element rows are read off the listing, and its chain is read off
        it (``BSGS.from_listing``) when first asked for.  Without
        generators it is generated by that chain's strong generators."""
        listing.setflags(write=False)
        group = PermutationGroup(listing.shape[1], generators or [], name=name)
        group._listing = listing
        if generators is None:
            group._generators = None
        return group

    @property
    def generators(self) -> list[Perm]:
        if self._generators is None:
            self._generators = list(self.bsgs.strong_gens)
        return self._generators

    @property
    def bsgs(self) -> BSGS:
        if self._bsgs is None:
            if self._listing is not None:
                self._bsgs = BSGS.from_listing(self._listing)
            else:
                self._bsgs = BSGS(self.degree, self.generators)
        return self._bsgs

    @property
    def order(self) -> int:
        if self._listing is not None:
            return len(self._listing)
        return self.bsgs.order

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """mask[i] = row i is an element: one search of the listing's lex
        keys when the group holds one, else a sift through its chain."""
        if self._listing is not None:
            return in_listing(self._listing, _checked_rows(rows, self.degree))
        return self.bsgs.contains_rows(rows)

    def __contains__(self, g: Perm) -> bool:
        return g.degree == self.degree and bool(self.contains_rows(g.images[None, :])[0])

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        if not self.generators:
            return True
        return self.degree == other.degree and bool(
            other.contains_rows(rows_of(self.generators, self.degree)).all()
        )

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

    # --- element streaming -------------------------------------------------

    def element_blocks(self, block_rows: int = BLOCK_ROWS):
        """Yield all elements as uint8 row blocks, in a fixed order.

        The order is the listing's, when the group holds one, and else the
        odometer over stabilizer-chain transversals with the top level
        varying slowest.  Concatenated blocks enumerate the group exactly
        once.
        """
        if self._listing is not None:
            for lo in range(0, len(self._listing), block_rows):
                yield self._listing[lo:lo + block_rows]
            return
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
        if self._listing is not None:
            return self._listing
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

    def block_closures(self):
        """(beta, labels) for each point beta > 0 of the first orbit, the
        orbit of 0, lazily: labels is the finest block system joining 0
        and beta (``_join_classes`` over all points, so blocks are
        numbered by least point and each point off the orbit is alone).
        The action on the orbit is imprimitive iff some closure leaves an
        orbit point outside 0's block."""
        gens = [g.images for g in self.generators]
        for beta in self.orbit(0)[1:].tolist():
            yield beta, _join_classes(self.degree, [(0, beta)], gens)

    def minimal_block_systems(self) -> list[np.ndarray]:
        """All minimal nontrivial block systems on the first orbit, as
        int16 block labels per point, blocks numbered by least point and
        -1 off the orbit, sorted by their labels; empty iff that action is
        primitive (or the orbit is too short to split).

        A closure of (0, beta) other than the whole orbit is minimal iff
        every other point of 0's block closes to the same labels: a finer
        nontrivial system would join 0 to a point of that block, and so
        contain that point's closure.
        """
        orbit = self.orbit(0)
        closures = dict(self.block_closures())
        systems = []
        for beta, labels in closures.items():
            on = labels[orbit]
            block = orbit[on == on[0]]
            # each minimal system once, at the least beta of 0's block
            if beta == block[1] and len(block) < len(orbit) and all(
                np.array_equal(closures[x], labels) for x in block[2:].tolist()
            ):
                full = np.full(self.degree, -1, dtype=np.int16)
                # the orbit's labels renumbered 0, 1, ... in their order
                full[orbit] = np.searchsorted(np.flatnonzero(np.bincount(on)), on)
                systems.append(full)
        return sorted(systems, key=lambda s: s.tolist())


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
