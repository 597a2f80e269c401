"""Acceptance gate: ten end-to-end checks, one test (and one pass/fail
line) each.

Covers the good-vector counting formula against an independent brute
force, the D-sequence closed forms against their recurrence, minimal
hyperplane covers, the full verification pipeline over every shipped
corpus (builtin degrees 2-7, fixture degrees 8-10), derangement
witnesses for all transitive groups, exact non-derangement
subadditivity on materialized two-orbit groups, Goursat enumeration
against a direct subgroup scan, Sylow orbit certificates, the two
counting strategies against each other, and byte-determinism of the
CLI report.

The two-orbit sweeps construct the full pair lattice directly: the
pipeline's exact prune eliminates every pair at degrees 4, 6 and 10
(only degree 9 reaches the checked path today), so sweeping all pairs
is a strict superset of whatever any run materializes.  Resource scope
for those sweeps: pairs with |G1 x G2| <= 1e5, certificates on
materialized groups of order <= 1e5.
"""

import dataclasses
import hashlib
import json
import subprocess
import time
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from derange.corpus import enumerate_transitive, load_corpus
from derange.cover import (
    check_cover,
    d_sequences,
    good_count_formula,
    min_cover_search,
    tight_cover_construct,
)
from derange.derangements import (
    TwoOrbitAction,
    check_sylow,
    count_nonderangements,
    find_derangement_detailed,
    pndr,
    sylow_certificate,
)
from derange.gf import FieldSpec
from derange.group import PermutationGroup
from derange.perm import lex_keys
from derange.pipeline import emit_report, verify_degree
from derange.structure import normal_subgroups
from derange.subdirect import goursat_enumerate, materialize_group
from derange.subgroups import ElementTable, subgroup_classes
from oracles import (
    class_sum_nonderangements,
    derange_process,
    direct_product,
    reference_sylow_facts,
    reference_sylow_subgroup,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"

ORDER_SCOPE = 10**5

# sha256 of the canonical degree-9 report with the corpus source written
# as the fixture directory relative to the checkout
DEGREE9_REPORT_SHA256 = "e0e5d8daf85157407596995d7b3ced600b5df120d2a2cf9b907e1ca47019bf64"


_LIVE = None


@pytest.fixture(autouse=True)
def _live_console(capsys):
    # lets _report bypass capture so the pass/fail lines show in plain runs
    global _LIVE
    _LIVE = capsys
    yield
    _LIVE = None


def _report(label: str, t0: float, detail: str = ""):
    extra = f" ({detail})" if detail else ""
    line = f"[acceptance] {label}: PASS in {time.perf_counter() - t0:.1f}s{extra}"
    if _LIVE is None:
        print(line)
    else:
        with _LIVE.disabled():
            print(f"\n{line}", flush=True)


@pytest.fixture(scope="module")
def corpora():
    out = {n: enumerate_transitive(n) for n in range(2, 8)}
    for n in (8, 9, 10):
        out[n] = load_corpus(FIXTURES / f"degree{n:02d}", n)
    return out


def _imprimitive(corpus):
    return [e for e in corpus.entries if e.group.minimal_block_systems()]


@pytest.fixture(scope="module")
def two_orbit_sweep(corpora):
    """All subdirect products of imprimitive same-degree pairs at the
    degrees where two-orbit structure matters, as TwoOrbitActions.
    Scope: |G1 x G2| <= 1e5 per pair."""
    sweep = {}
    for n in (4, 6, 10):
        normals = {}
        actions = []
        for e1, e2 in combinations_with_replacement(_imprimitive(corpora[n]), 2):
            if e1.group.order * e2.group.order > ORDER_SCOPE:
                continue
            for e in (e1, e2):
                if e.name not in normals:
                    normals[e.name] = normal_subgroups(e.group)
            descs = goursat_enumerate(
                e1.group, e2.group,
                normals1=normals[e1.name], normals2=normals[e2.name],
            )
            actions.extend((TwoOrbitAction.of(materialize_group(d)), e1, e2) for d in descs)
        sweep[n] = actions
    return sweep


def test_c01_formula_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    cells = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = FieldSpec(q)
        for d in range(1, 6):
            vals = np.arange(1, q, dtype=np.int64)
            grid = np.stack(
                np.meshgrid(*([vals] * d), indexing="ij"), axis=-1
            ).reshape(-1, d)
            for k in range(1, d + 1):
                for _ in range(20):
                    normal = np.zeros(d, dtype=np.int64)
                    pos = rng.choice(d, size=k, replace=False)
                    normal[pos] = rng.integers(1, q, size=k)
                    acc = np.zeros(len(grid), dtype=np.int64)
                    for j in range(d):
                        acc = F.add[acc, F.mul[normal[j], grid[:, j]]]
                    brute = int((acc == 0).sum())
                    assert good_count_formula(q, d, k) == brute, (q, d, k, normal)
                    cells += 1
    _report("c01 formula = brute force", t0, f"{cells} cells")


def test_c02_d_sequence_initials_and_recurrence():
    t0 = time.perf_counter()
    for q in range(2, 17):
        d0 = {}
        d1 = {}
        for j in range(1, 21):
            d0[j], d1[j] = d_sequences(q, j)
        assert d1[1] == 1
        assert d1[2] == q - 2
        for j in range(2, 21):
            assert d0[j] == (q - 1) * d1[j - 1]
        for j in range(3, 21):
            assert d1[j] == (q - 2) * d1[j - 1] + d0[j - 1]
            assert d1[j] == (q - 2) * d1[j - 1] + (q - 1) * d1[j - 2]
    _report("c02 D-sequence closed forms", t0, "q <= 16, j <= 20")


def test_c03_minimal_cover_tightness():
    t0 = time.perf_counter()
    searches = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (3, 4), (4, 3), (5, 2),
                (5, 3), (7, 2), (8, 2), (9, 2), (2, 6))
    for q, d in searches:
        size, cover = min_cover_search(q, d)
        assert size == d + q - 1, (q, d, size)
        assert len(cover.hyperplanes) == size
        assert check_cover(cover) == (True, True, True), (q, d)
    built = 0
    for q in (2, 3, 4, 5):
        for d in range(2, 7):
            cover = tight_cover_construct(q, d)
            assert len(cover.hyperplanes) == d + q - 1
            covers_all, trivial, bound_ok = check_cover(cover)
            assert covers_all and trivial and bound_ok, (q, d)
            built += 1
    _report("c03 minimal covers tight", t0, f"{len(searches)} searches, {built} constructions")


def test_c04_verify_degrees_2_through_10(corpora):
    t0 = time.perf_counter()
    checked_pairs = 0
    for n in range(2, 11):
        r = verify_degree(n, corpus=corpora[n])
        assert r.verdict == "verified", (n, r.verdict)
        assert r.counterexamples == []
        assert r.caps_hit == []
        checked_pairs += r.pairs_checked
        if n == 9:
            pinned = dataclasses.replace(r, source="fixtures:src/derange/fixtures/degree09")
            digest = hashlib.sha256(emit_report(pinned).encode()).hexdigest()
            assert digest == DEGREE9_REPORT_SHA256
    # degree 9 is the one degree whose pairs survive the prune today
    assert checked_pairs > 0
    _report("c04 verify degrees 2-10", t0, f"{checked_pairs} pairs past the prune")


def test_c05_derangement_witness_every_transitive_group(corpora):
    t0 = time.perf_counter()
    found = 0
    for n, corpus in corpora.items():
        ar = np.arange(n)
        for e in corpus.entries:
            witness, method = find_derangement_detailed(e.group, range(n))
            assert witness is not None, (n, e.name, method)
            assert not (witness.images == ar).any(), (n, e.name)
            found += 1
    assert found == sum(len(c.entries) for c in corpora.values())
    _report("c05 derangement witnesses", t0, f"{found}/{found} groups")


def test_c06_two_orbit_pndr_subadditivity(corpora, two_orbit_sweep):
    t0 = time.perf_counter()
    checked = 0
    past_prune = 0
    for n in (4, 6):
        for act, e1, e2 in two_orbit_sweep[n]:
            if act.group.order > ORDER_SCOPE:
                continue
            whole = pndr(act.group, act.omega).fraction
            part1 = pndr(act.group, act.omega1).fraction
            part2 = pndr(act.group, act.omega2).fraction
            assert whole <= part1 + part2, (n, e1.name, e2.name)
            checked += 1
            if e1.pndr.fraction + e2.pndr.fraction >= 1:
                past_prune += 1
    assert checked >= 100
    # every degree <= 7 pair is pruned today, so the run-encountered set
    # is empty; the sweep covers it by construction either way
    _report("c06 pndr subadditivity", t0,
            f"{checked} two-orbit groups, {past_prune} past the prune")


def _conjugate_inside(parent_rows, K: PermutationGroup, target_enc: np.ndarray) -> bool:
    """Does some element of the parent conjugate K onto the target set?"""
    T = parent_rows
    Tidx = T.astype(np.intp)
    Tinv = np.empty_like(T)
    np.put_along_axis(Tinv, Tidx, np.arange(T.shape[1], dtype=np.uint8), axis=1)
    mask = np.ones(len(T), dtype=bool)
    for g in K.generators:
        conj = np.take_along_axis(T, g.images[Tinv].astype(np.intp), axis=1)
        e = lex_keys(conj)
        pos = np.searchsorted(target_enc, e).clip(0, len(target_enc) - 1)
        mask &= target_enc[pos] == e
        if not mask.any():
            return False
    return bool(mask.any())


def test_c07_goursat_matches_subgroup_scan(corpora):
    t0 = time.perf_counter()
    groups = [e.group for n in range(2, 6) for e in corpora[n].entries]
    pairs_done = 0
    classes_matched = 0
    for G1, G2 in combinations_with_replacement(groups, 2):
        if G1.order * G2.order > 5000:
            continue
        prod = direct_product(G1, G2)
        et = ElementTable.of(prod)
        n1 = G1.degree
        subdirect = []
        for c in subgroup_classes(prod, et):
            rows = et.rows[c.indices]
            if len(np.unique(lex_keys(rows[:, :n1]))) != G1.order:
                continue
            if len(np.unique(lex_keys(rows[:, n1:]))) != G2.order:
                continue
            subdirect.append((c.order, np.sort(lex_keys(rows))))
        descs = goursat_enumerate(G1, G2)
        assert len(descs) == len(subdirect), (G1.name, G2.name)
        hits = []
        for desc in descs:
            K = materialize_group(desc)
            matches = [
                j for j, (order, enc) in enumerate(subdirect)
                if order == K.order and _conjugate_inside(et.rows, K, enc)
            ]
            assert len(matches) >= 1, (G1.name, G2.name, K.order)
            # conjugate brute classes are impossible: the scan already
            # merged them, so a unique hit is forced
            assert len(matches) == 1
            hits.append(matches[0])
        assert sorted(hits) == list(range(len(subdirect))), (G1.name, G2.name)
        pairs_done += 1
        classes_matched += len(hits)
    assert pairs_done >= 80
    _report("c07 goursat = subgroup scan", t0,
            f"{pairs_done} pairs, {classes_matched} classes")


def _qualifying_primes(n: int) -> list[tuple[int, int, int]]:
    out = []
    for p in range(2, n + 1):
        if n % p or any(p % r == 0 for r in range(2, p)):
            continue
        pk = gcd(n, p**n)
        b = n // pk
        if b < p:
            out.append((p, pk, b))
    return out


def test_c08_sylow_certificates(two_orbit_sweep):
    t0 = time.perf_counter()
    certs = 0
    witnesses = 0
    big_sylow = 0
    for n in (6, 10):
        quals = _qualifying_primes(n)
        assert quals, n
        for act, e1, e2 in two_orbit_sweep[n]:
            if act.group.order > ORDER_SCOPE:
                continue
            ar = np.arange(act.group.degree)
            for p, pk, b in quals:
                cert = sylow_certificate(act, p)
                assert cert.orbit_lengths == (pk,) * (2 * b), (n, e1.name, e2.name)
                certs += 1
                if b < (p + 1) / 2:
                    assert cert.verdict == "elementary-abelian-derangement"
                    assert cert.derangement_witness is not None
                else:
                    assert cert.verdict in (
                        "elementary-abelian", "elementary-abelian-derangement",
                    )
                w = cert.derangement_witness
                if w is not None:
                    assert not (w.images == ar).any(), (n, e1.name, e2.name)
                    witnesses += 1
                if cert.d >= 2:
                    big_sylow += 1
    assert certs >= 1000
    assert big_sylow >= 100   # order p^2 Sylow subgroups genuinely occur
    _report("c08 sylow certificates", t0,
            f"{certs} certificates, {witnesses} witnesses, {big_sylow} with |P| >= p^2")


# products of c08's sweep small enough for the chain-grown reference
DIFFERENTIAL_SCOPE = 2000


def test_c08_certificates_match_chain_grown_reference(two_orbit_sweep):
    # the listing-grown P is the chain-grown one, so every certificate
    # field, witness included, is the one checked on the reference P;
    # and those fields are the reference P's facts read the plain way
    certs = 0
    for n in (6, 10):
        for act, e1, e2 in two_orbit_sweep[n]:
            if act.group.order > DIFFERENTIAL_SCOPE:
                continue
            for p, _pk, _b in _qualifying_primes(n):
                cert = sylow_certificate(act, p)
                ref = reference_sylow_subgroup(act.group, p)
                assert cert == check_sylow(act, p, ref), (n, e1.name, e2.name, p)
                d, lengths, elementary, stabs, witness = reference_sylow_facts(act, p, ref)
                assert (cert.d, cert.orbit_lengths) == (d, lengths)
                if cert.elementary_abelian is not None:
                    assert (cert.elementary_abelian, cert.stabilizer_count) == (elementary, stabs)
                    assert cert.derangement_witness == witness
                certs += 1
    assert certs == 1292


def test_c09_class_vs_enumeration_counts(corpora):
    t0 = time.perf_counter()
    agreed = 0
    skipped = 0
    for n, corpus in corpora.items():
        for e in corpus.entries:
            if e.group.order > ORDER_SCOPE:
                skipped += 1
                continue
            by_class = class_sum_nonderangements(e.group, range(n))
            by_scan = count_nonderangements(e.group, range(n))
            assert by_class == by_scan, (n, e.name)
            agreed += 1
    total = sum(len(c.entries) for c in corpora.values())
    assert agreed + skipped == total
    assert agreed >= 150
    _report("c09 class vs enumeration counts", t0,
            f"{agreed} groups agree, {skipped} over the order scope")


def test_c10_verify_cli_byte_deterministic():
    t0 = time.perf_counter()
    cmd, env = derange_process("verify", "--degree", "6", "--seed", "42",
                               "--json", "-")
    runs = []
    for _ in range(2):
        r = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
        assert r.returncode == 0, r.stderr.decode()
        runs.append(r.stdout)
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["verdict"] == "verified"
    _report("c10 CLI byte determinism", t0, f"{len(runs[0])} byte report")
