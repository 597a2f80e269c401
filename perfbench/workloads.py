"""The benchmark's workloads: inputs, one timed pass, and its gate.

A workload builds its inputs once from the seed (``setup``), then each
pass rebuilds fresh program objects from them outside the timed window
(``fresh``), because the program memoizes on its objects: corpus entries
get ``primitive`` and ``pndr`` written onto them, groups keep their
stabilizer chain and quotient models keep their tables.  A reused object
would time a warm cache.

Seed 0 is the shipped input.  Any other seed conjugates every corpus
group by its own seeded relabelling of the points, which keeps every
verdict and count and changes generator sets and search orders.

Every output is checked.  A unit that raises, hits a cap or gives a
wrong answer counts as failed; it is never only timed.
"""

import hashlib
import traceback
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from derange import corpus, cover, derangements, gf, pipeline, structure, subdirect
from derange.corpus import CorpusEntry, GroupCorpus
from derange.group import PermutationGroup
from derange.perm import Perm

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = "src/derange/fixtures"


class Recorder:
    """Pass bookkeeping: timed seconds, unit latencies and failures.

    Only the program calls inside ``timed`` and ``unit`` count towards
    the pass time; building inputs and checking outputs do not.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.wall = 0.0
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, what):
        self.failed += 1
        self.problems.append(what)

    def timed(self, fn):
        t0 = self.clock()
        try:
            return fn()
        finally:
            self.wall += self.clock() - t0

    def unit(self, label, fn, gate):
        """Run one unit of certified work, then check its output."""
        self.attempted += 1
        t0 = self.clock()
        try:
            out = fn()
        except Exception:
            self.wall += self.clock() - t0
            self._fail(f"{label}: raised\n{traceback.format_exc()}")
            return
        dt = self.clock() - t0
        self.wall += dt
        self.latencies.append(dt)
        with Paused(self.tracer):
            problem = gate(out)
        if problem:
            self._fail(f"{label}: {problem}")

    def raised(self, label):
        """Count a failed call that produced no unit to check."""
        self.attempted += 1
        self._fail(f"{label}: raised\n{traceback.format_exc()}")

    def check(self, label, problem):
        """A pass-level check counts as one more attempted unit."""
        self.attempted += 1
        if problem:
            self._fail(f"{label}: {problem}")


class Paused:
    """Suspend span recording while the benchmark checks outputs."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.paused += 1

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.paused -= 1
        return False


# ---------------------------------------------------------------------------
# corpus inputs


@dataclass(frozen=True)
class CorpusInput:
    """Generator rows of each entry, in corpus order."""

    degree: int
    names: tuple
    gens: tuple  # per entry, a tuple of uint8 image rows
    source: str

    def fresh(self) -> GroupCorpus:
        entries = [
            CorpusEntry(name, PermutationGroup(self.degree, [Perm(r, validate=False) for r in rows], name=name))
            for name, rows in zip(self.names, self.gens)
        ]
        return GroupCorpus(self.degree, entries, self.source)


def _relabel(rows, rng):
    """Conjugate each generator by one random relabelling x -> s[x]."""
    n = len(rows[0]) if rows else 0
    s = rng.permutation(n).astype(np.uint8)
    inv = np.argsort(s).astype(np.uint8)
    return tuple(s[row[inv]] for row in rows)


def corpus_input(degree: int, seed: int, fixture: bool) -> CorpusInput:
    """The shipped corpus of one degree (fixture files, or the builtin
    enumeration for small degrees), relabelled by the seed."""
    if fixture:
        rel = f"{FIXTURES}/degree{degree:02d}"
        loaded = corpus.load_corpus(ROOT / rel, degree)
        source = f"fixtures:{rel}"
    else:
        loaded = corpus.enumerate_transitive(degree)
        source = loaded.source
    rng = np.random.default_rng(seed) if seed else None
    names, gens = [], []
    for e in loaded.entries:
        rows = tuple(g.images.copy() for g in e.group.generators)
        names.append(e.name)
        gens.append(_relabel(rows, rng) if rng is not None else rows)
    return CorpusInput(degree, tuple(names), tuple(gens), source)


def _no_fixed_point(images) -> bool:
    images = np.asarray(images)
    return not bool((images == np.arange(len(images))).any())


# ---------------------------------------------------------------------------
# verify: the real pipeline end to end


@dataclass(frozen=True)
class Verify:
    """``verify_degree(n)`` on the shipped corpus of degree n; the unit is
    the whole certified verdict."""

    degree: int
    fixture: bool
    pairs_checked: int
    products: int
    digest: str  # sha256 of the canonical report at seed 0
    per_unit = False

    def setup(self, seed):
        return corpus_input(self.degree, seed, self.fixture), seed

    def run_pass(self, inputs, rec: Recorder):
        data, seed = inputs
        fresh = data.fresh()
        groups = {e.name: e.group for e in fresh.entries}

        def work():
            report = pipeline.verify_degree(self.degree, corpus=fresh)
            return report, pipeline.emit_report(report)

        def gate(out):
            report, text = out
            if report.verdict != "verified":
                return f"verdict {report.verdict}"
            got = (report.pairs_checked, report.subdirect_products_checked)
            if got != (self.pairs_checked, self.products):
                return f"pairs and products {got}, expected {(self.pairs_checked, self.products)}"
            if seed == 0:
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digest != self.digest:
                    return f"report sha256 {digest}, expected {self.digest}"
            n = self.degree
            for rec_ in report.witnesses:
                w = np.asarray(rec_["witness"])
                g1, g2 = (groups[name] for name in rec_["pair"])
                if not _no_fixed_point(w):
                    return f"witness for {rec_['pair']} fixes a point"
                if Perm(w[:n]) not in g1 or Perm(w[n:] - n) not in g2:
                    return f"witness for {rec_['pair']} lies outside G1 x G2"
            return None

        rec.unit(f"verify_degree({self.degree})", work, gate)


# ---------------------------------------------------------------------------
# sweep: prune-free Goursat sweep with Sylow certificates


# every verdict sylow_certificate returns without raising, bar
# "hypothesis-not-applicable", which would mean the prime was chosen wrong
SYLOW_VERDICTS = {"equal-orbits", "elementary-abelian", "elementary-abelian-derangement"}


@dataclass(frozen=True)
class Sweep:
    """Every subdirect product of the imprimitive pairs of one degree with
    |G1 x G2| <= scope, certified one by one: coset derangement search,
    the materialized group, and its Sylow p-certificate.  Normal-subgroup
    lists are shared per group within a pass.  The unit is one product."""

    degree: int
    fixture: bool
    scope: int
    prime: int
    orbit_lengths: tuple
    pairs: int
    products: int

    def setup(self, seed):
        return corpus_input(self.degree, seed, self.fixture)

    def run_pass(self, data, rec: Recorder):
        fresh = data.fresh()
        imp = rec.timed(lambda: corpus.imprimitive_filter(fresh)).entries
        normals = {}

        def normals_of(e):
            if e.name not in normals:
                normals[e.name] = structure.normal_subgroups(e.group)
            return normals[e.name]

        pairs = products = 0
        for e1, e2 in combinations_with_replacement(imp, 2):
            if e1.group.order * e2.group.order > self.scope:
                continue
            pairs += 1
            label = f"{e1.name}|{e2.name}"
            try:
                descs = rec.timed(lambda: subdirect.goursat_enumerate(
                    e1.group, e2.group, normals1=normals_of(e1), normals2=normals_of(e2)))
            except Exception:
                rec.raised(label)
                continue
            for i, desc in enumerate(descs):
                products += 1

                def work(desc=desc):
                    witness = subdirect.subdirect_derangement(desc)
                    group = subdirect.materialize_group(desc)
                    cert = derangements.sylow_certificate(derangements.TwoOrbitAction.of(group), self.prime)
                    return witness, group, cert

                def gate(out):
                    witness, group, cert = out
                    if witness is None:
                        return "no derangement found"
                    if not _no_fixed_point(witness.images):
                        return "witness fixes a point"
                    if witness not in group:
                        return "witness lies outside the materialized group"
                    if cert.orbit_lengths != self.orbit_lengths:
                        return f"Sylow orbit lengths {cert.orbit_lengths}"
                    if cert.verdict not in SYLOW_VERDICTS:
                        return f"Sylow verdict {cert.verdict}"
                    return None

                rec.unit(f"{label}#{i}", work, gate)
        got = (pairs, products)
        rec.check("sweep totals", None if got == (self.pairs, self.products)
                  else f"pairs and products {got}, expected {(self.pairs, self.products)}")


# ---------------------------------------------------------------------------
# enum: builtin transitive-group enumeration


@dataclass(frozen=True)
class Enum:
    """``enumerate_transitive(n)``: the subgroup-lattice scan of Sym(n).
    Its input is Sym(n) itself, so the seed does not apply.  The unit is
    the whole corpus."""

    degree: int
    orders: tuple
    pndr: tuple  # exact fractions as strings
    primitive: tuple

    def setup(self, seed):
        return None

    def run_pass(self, inputs, rec: Recorder):
        def gate(out):
            got_orders = tuple(e.group.order for e in out)
            if got_orders != self.orders:
                return f"orders {got_orders}"
            got_pndr = tuple(str(e.pndr.fraction) for e in out)
            if got_pndr != self.pndr:
                return f"pndr {got_pndr}"
            if tuple(e.primitive for e in out) != self.primitive:
                return "primitivity flags differ"
            if not all(e.group.is_transitive() for e in out):
                return "an entry is not transitive"
            return None

        rec.unit(f"enumerate_transitive({self.degree})", lambda: corpus.enumerate_transitive(self.degree), gate)


# ---------------------------------------------------------------------------
# lincover: hyperplane covers and good-vector counts


@dataclass(frozen=True)
class Lincover:
    """Minimum-cover searches, tight cover constructions with their
    exhaustive check, and seeded brute-force-vs-formula counting cells.
    The unit is one search, one cover check or one cell."""

    searches: tuple  # (q, d)
    tight_qs: tuple
    tight_max: int  # largest q^d checked for the tight covers
    cell_qs: tuple
    cell_max_d: int
    cell_max: int  # largest q^d counted by brute force
    cells_per_k: int

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        cells = []
        for q in self.cell_qs:
            for d in range(1, self.cell_max_d + 1):
                if q**d > self.cell_max:
                    break
                for k in range(1, d + 1):
                    for _ in range(self.cells_per_k):
                        normal = np.zeros(d, dtype=np.int64)
                        normal[rng.choice(d, size=k, replace=False)] = rng.integers(1, q, size=k)
                        cells.append((q, d, k, tuple(int(x) for x in normal)))
        return tuple(cells)

    def tight_cases(self):
        for q in self.tight_qs:
            d = 2
            while q**d <= self.tight_max:
                yield q, d
                d += 1

    def run_pass(self, cells, rec: Recorder):
        for q, d in self.searches:
            def gate(out, q=q, d=d):
                size, found = out
                if size != d + q - 1 or len(found.hyperplanes) != size:
                    return f"minimum cover size {size}, expected {d + q - 1}"
                if not (found.covers_all and found.trivial_intersection):
                    return "search returned a set that is not a cover"
                return None

            rec.unit(f"min_cover_search({q},{d})", lambda q=q, d=d: cover.min_cover_search(q, d), gate)

        for q, d in self.tight_cases():
            def work(q=q, d=d):
                built = cover.tight_cover_construct(q, d)
                return built, cover.check_cover(built)

            def gate(out, q=q, d=d):
                built, flags = out
                if len(built.hyperplanes) != d + q - 1:
                    return f"tight cover size {len(built.hyperplanes)}"
                if flags != (True, True, True):
                    return f"check_cover {flags}"
                return None

            rec.unit(f"tight_cover({q},{d})", work, gate)

        for q, d, k, normal in cells:
            def work(q=q, d=d, normal=normal):
                return cover.good_count_bruteforce(cover.Hyperplane.make(normal), gf.FieldSpec(q), d)

            def gate(count, q=q, d=d, k=k):
                expected = cover.good_count_formula(q, d, k)
                return None if count == expected else f"brute force {count}, formula {expected}"

            rec.unit(f"good_count({q},{d},{normal})", work, gate)


# ---------------------------------------------------------------------------
# a workload made of several, run one after another in each pass


@dataclass(frozen=True)
class Combined:
    """Each part's pass in turn; the units are those of the parts."""

    parts: tuple
    per_unit = True

    def setup(self, seed):
        return tuple(part.setup(seed) for part in self.parts)

    def run_pass(self, inputs, rec: Recorder):
        for part, data in zip(self.parts, inputs):
            part.run_pass(data, rec)


# ---------------------------------------------------------------------------
# the named workloads and their seconds-long smoke versions
#
# The sweep, enumeration and cover parts share one workload so that each
# run can be long: the benchmark's host changes speed over seconds to
# minutes, and only long runs average that out.

WORKLOADS = {
    "verify9": Verify(
        degree=9, fixture=True, pairs_checked=45, products=433,
        digest="e0e5d8daf85157407596995d7b3ced600b5df120d2a2cf9b907e1ca47019bf64",
    ),
    "sweep-enum-cover": Combined((
        Sweep(
            degree=10, fixture=True, scope=1200, prime=5, orbit_lengths=(5, 5, 5, 5),
            pairs=28, products=146,
        ),
        Enum(
            degree=6,
            orders=(6, 6, 12, 12, 18, 24, 24, 24, 36, 36, 48, 60, 72, 120, 360, 720),
            pndr=("1/6", "1/6", "1/3", "1/3", "5/18", "7/24", "5/12", "5/12",
                  "7/18", "7/18", "19/48", "2/3", "4/9", "7/12", "23/36", "91/144"),
            primitive=(False,) * 11 + (True, False, True, True, True),
        ),
        Lincover(
            searches=((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)),
            tight_qs=(2, 3, 4, 5, 7, 8, 9), tight_max=10**5,
            cell_qs=(2, 3, 4, 5, 7, 8, 9), cell_max_d=5, cell_max=10**5, cells_per_k=2,
        ),
    )),
}

SMOKE = {
    "verify9": Verify(
        degree=6, fixture=False, pairs_checked=0, products=0,
        digest="8384a13f7519af742c5ce87a155cb9e91316a3754ac1351a274bda04c0b62893",
    ),
    "sweep-enum-cover": Combined((
        Sweep(
            degree=4, fixture=False, scope=10**5, prime=2, orbit_lengths=(4, 4),
            pairs=6, products=62,
        ),
        Enum(
            degree=5, orders=(5, 10, 20, 60, 120),
            pndr=("1/5", "3/5", "4/5", "3/5", "19/30"), primitive=(True,) * 5,
        ),
        Lincover(
            searches=((2, 2), (2, 3)), tight_qs=(2,), tight_max=2**8,
            cell_qs=(2,), cell_max_d=4, cell_max=2**4, cells_per_k=1,
        ),
    )),
}
