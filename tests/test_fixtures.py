"""Checks on the packaged degree 8-10 corpora.

The generator asserts the classification counts before writing, so the
tests here focus on load-level invariants plus a handful of facts that
are independent of how the files were produced: regular representations
of order-n groups, known primitive class counts at special orders, and
a real end-to-end verification run over the degree-9 corpus.
"""

import json
from pathlib import Path

import pytest

from derange.corpus import load_corpus
from derange.pipeline import emit_report, verify_degree

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"
TOOLS = Path(__file__).resolve().parent.parent / "tools"

COUNTS = {8: 50, 9: 34, 10: 45}
IMPRIMITIVE = {8: 43, 9: 23, 10: 36}


@pytest.fixture(scope="module", params=[8, 9, 10])
def corpus(request):
    n = request.param
    return n, load_corpus(FIXTURES / f"degree{n:02d}", n)


class TestCorpusShape:
    def test_class_count(self, corpus):
        n, c = corpus
        assert len(c.entries) == COUNTS[n]

    def test_imprimitive_count(self, corpus):
        n, c = corpus
        imprim = sum(1 for e in c.entries if e.group.minimal_block_systems())
        assert imprim == IMPRIMITIVE[n]

    def test_names_unique_and_degree(self, corpus):
        n, c = corpus
        names = [e.name for e in c.entries]
        assert len(set(names)) == len(names)
        assert all(e.group.degree == n for e in c.entries)

    def test_source_tag(self, corpus):
        n, c = corpus
        assert c.source.startswith("fixtures:")

    def test_regular_representations(self, corpus):
        # groups of order n acting on themselves: 5 of order 8, 2 of 9, 2 of 10
        n, c = corpus
        want = {8: 5, 9: 2, 10: 2}[n]
        assert sum(1 for e in c.entries if e.group.order == n) == want

    def test_extremes_are_full_groups(self, corpus):
        import math

        n, c = corpus
        orders = sorted(e.group.order for e in c.entries)
        assert orders[-1] == math.factorial(n)
        assert orders[-2] == math.factorial(n) // 2
        assert orders[0] == n


class TestKnownClasses:
    def test_degree8_order168(self):
        # exactly the two primitive classes: neither wreath wrapper order
        # (384, 1152) is divisible by 168
        c = load_corpus(FIXTURES / "degree08", 8)
        hits = [e for e in c.entries if e.group.order == 168]
        assert len(hits) == 2
        assert all(not e.group.minimal_block_systems() for e in hits)

    def test_degree10_order720(self):
        c = load_corpus(FIXTURES / "degree10", 10)
        hits = [e for e in c.entries if e.group.order == 720]
        assert len(hits) == 3
        assert all(not e.group.minimal_block_systems() for e in hits)

    def test_transitivity_forces_divisibility(self):
        # orbit-stabilizer: n divides the order of every transitive group
        for n in COUNTS:
            c = load_corpus(FIXTURES / f"degree{n:02d}", n)
            assert all(e.group.order % n == 0 for e in c.entries)

    def test_degree9_imprimitive_orders_divide_wreath(self):
        # blocks of 3 are the only option, so Lagrange inside S3 wr S3
        c = load_corpus(FIXTURES / "degree09", 9)
        for e in c.entries:
            if e.group.minimal_block_systems():
                assert 1296 % e.group.order == 0


class TestVerifyOverFixtures:
    def test_degree9_checked_path_runs(self):
        c = load_corpus(FIXTURES / "degree09", 9)
        r = verify_degree(9, corpus=c)
        assert r.verdict == "verified"
        assert r.counterexamples == []
        assert r.pairs_checked > 0
        assert r.subdirect_products_checked > 400
        assert r.caps_hit == []

    def test_degree9_report_deterministic(self):
        runs = []
        for _ in range(2):
            c = load_corpus(FIXTURES / "degree09", 9)
            runs.append(emit_report(verify_degree(9, corpus=c), "json"))
        assert runs[0] == runs[1]
        doc = json.loads(runs[0])
        assert doc["verdict"] == "verified"


def test_tool_rebuilds_degree8_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import make_fixtures

    monkeypatch.setattr(make_fixtures, "FIXTURE_ROOT", tmp_path)
    make_fixtures.build_degree(8, force=True)
    shipped = sorted((FIXTURES / "degree08").glob("*.json"))
    built = sorted((tmp_path / "degree08").glob("*.json"))
    assert [f.name for f in built] == [f.name for f in shipped]
    for want, got in zip(shipped, built):
        assert got.read_bytes() == want.read_bytes(), got.name
