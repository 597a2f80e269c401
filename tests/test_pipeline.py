"""Degree-level verification runs and their reports."""

import json
from pathlib import Path

import pytest

from derange.corpus import (
    CorpusEntry,
    GroupCorpus,
    enumerate_transitive,
    imprimitive_filter,
    load_corpus,
)
from derange.derangements import PndrValue
from derange.group import GroupError, PermutationGroup
from derange.pipeline import VerificationReport, VerifyCaps, emit_report, verify_degree

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"


def c6():
    return PermutationGroup.from_cycles(6, [[[0, 1, 2, 3, 4, 5]]], name="C6")


def forced_corpus():
    """Single-entry degree-6 corpus with the prune bound preset to 1.

    No imprimitive pair of actual degree-6 groups sums to 1, so the
    checked branch is exercised by overriding the cached proportion;
    everything past the prune (Goursat, coset scans, witnesses) still
    runs the real machinery on a real group.
    """
    e = CorpusEntry(name="C6", group=c6(), pndr=PndrValue(6, 6))
    return GroupCorpus(6, [e], source="synthetic")


def handmade_report(**over):
    base = dict(
        degree=6,
        corpus_size=1,
        imprimitive_count=1,
        pairs_total=1,
        pairs_pruned=0,
        pairs_checked=1,
        subdirect_products_checked=1,
    )
    base.update(over)
    return VerificationReport(**base)


@pytest.fixture(scope="module")
def corpus6():
    return enumerate_transitive(6)


class TestVerifyDegree:
    def test_builtin_degree_four_counts(self):
        r = verify_degree(4)
        assert r.degree == 4
        assert r.corpus_size == 5
        assert r.imprimitive_count == 3
        assert r.pairs_total == 6
        assert r.pairs_pruned == 6
        assert r.pairs_checked == 0
        assert r.subdirect_products_checked == 0
        assert r.witnesses == [] and r.counterexamples == [] and r.caps_hit == []
        assert r.verdict == "verified"
        assert r.exit_code == 0
        assert r.source == "builtin-enumeration"
        assert r.wall_time > 0

    def test_prime_degree_has_no_pairs(self):
        r = verify_degree(5)
        assert r.corpus_size == 5
        assert r.imprimitive_count == 0
        assert r.pairs_total == 0
        assert r.verdict == "verified"

    def test_prune_matches_direct_bound(self, corpus6):
        r = verify_degree(6, corpus=corpus6)
        imp = imprimitive_filter(corpus6).entries
        assert len(imp) == 12
        sums_below_one = sum(
            1
            for i in range(len(imp))
            for j in range(i, len(imp))
            if imp[i].pndr.fraction + imp[j].pndr.fraction < 1
        )
        assert sums_below_one == 78
        assert r.pairs_total == 78
        assert r.pairs_pruned == 78
        assert r.pairs_checked == 0
        assert r.verdict == "verified"

    def test_corpus_degree_mismatch_rejected(self):
        with pytest.raises(GroupError, match="degree 4"):
            verify_degree(5, corpus=enumerate_transitive(4))

    def test_forced_pair_checked_and_witnessed(self):
        r = verify_degree(6, corpus=forced_corpus())
        assert r.corpus_size == 1
        assert r.imprimitive_count == 1
        assert r.pairs_total == 1
        assert r.pairs_pruned == 0
        assert r.pairs_checked == 1
        # C6 x C6 subdirect classes: quotients of order 1, 2, 3, 3, 6, 6
        assert r.subdirect_products_checked == 6
        assert len(r.witnesses) == 6
        assert r.counterexamples == [] and r.caps_hit == []
        assert r.verdict == "verified"
        orders = sorted(rec["subgroup_order"] for rec in r.witnesses)
        assert orders == [6, 6, 12, 12, 18, 36]
        for rec in r.witnesses:
            assert rec["pair"] == ["C6", "C6"]
            q, (k1, k2) = rec["quotient_order"], rec["kernel_orders"]
            assert q * k1 == 6 and q * k2 == 6
            assert rec["subgroup_order"] == 6 * k2
            w = rec["witness"]
            assert len(w) == 12
            assert all(w[i] != i for i in range(12))

    def test_quotient_cap_makes_partial(self):
        caps = VerifyCaps(quotient_cap=1)
        r = verify_degree(6, corpus=forced_corpus(), caps=caps)
        assert r.pairs_checked == 1
        assert r.subdirect_products_checked == 0
        assert len(r.caps_hit) == 1
        assert r.caps_hit[0]["item"] == "C6|C6"
        assert r.verdict == "partial"
        assert r.exit_code == 3

    def test_enum_cap_makes_partial(self):
        # an imprimitive group over the scan cap has no exact proportion,
        # so it is recorded and skipped like a max-order exclusion
        corpus = load_corpus(FIXTURES / "degree09", 9)
        r = verify_degree(9, corpus=corpus, caps=VerifyCaps(enum_cap=10))
        assert r.verdict == "partial"
        imprimitive = [e for e in corpus.entries if not e.primitive]
        small = [e.name for e in imprimitive if e.group.order <= 10]
        assert r.imprimitive_count == len(small) > 0
        assert sorted(rec["item"] for rec in r.caps_hit) == sorted(
            e.name for e in imprimitive if e.group.order > 10
        )
        for rec in r.caps_hit:
            assert rec["reason"].endswith("over enumeration cap 10")

    def test_class_cap_makes_partial(self):
        # the class table behind normal_subgroups lists the group first,
        # so an over-cap group reads as an enumeration cap
        r = verify_degree(6, corpus=forced_corpus(), caps=VerifyCaps(class_cap=5))
        assert r.caps_hit == [{"item": "C6|C6", "reason": "group order 6 exceeds enumeration cap 5"}]
        assert r.verdict == "partial"

    def test_iso_cap_makes_partial(self):
        r = verify_degree(6, corpus=forced_corpus(), caps=VerifyCaps(iso_cap=1))
        assert len(r.caps_hit) == 1
        assert r.verdict == "partial"

    def test_max_order_exclusions(self, corpus6):
        caps = VerifyCaps(max_order=40)
        r = verify_degree(6, corpus=corpus6, caps=caps)
        imp = imprimitive_filter(corpus6).entries
        excluded = {e.name for e in imp if e.group.order > 40}
        assert excluded
        assert {rec["item"] for rec in r.caps_hit} == excluded
        for rec in r.caps_hit:
            assert "max-order" in rec["reason"]
        m = len(imp) - len(excluded)
        assert r.imprimitive_count == m
        assert r.pairs_total == m * (m + 1) // 2
        assert r.pairs_pruned + r.pairs_checked == r.pairs_total
        assert r.verdict == "partial"
        assert r.exit_code == 3

    def test_verdict_precedence(self):
        assert handmade_report().verdict == "verified"
        assert handmade_report(caps_hit=[{"item": "x", "reason": "y"}]).verdict == "partial"
        bad = handmade_report(
            caps_hit=[{"item": "x", "reason": "y"}],
            counterexamples=[{"pair": ["A", "B"], "pair_index": 0, "descriptor": 0,
                              "kernel_orders": [2, 2], "quotient_order": 3,
                              "subgroup_order": 12, "witness": None}],
        )
        assert bad.verdict == "counterexample"
        assert bad.exit_code == 1


class TestCounterexampleBranch:
    """A descriptor whose coset search finds no derangement must survive
    a direct scan of the materialized group before it is reported."""

    @pytest.fixture
    def no_coset_witness(self, monkeypatch):
        monkeypatch.setattr("derange.pipeline.subdirect_derangement", lambda desc: None)

    def test_direct_scan_disagreement_raises(self, no_coset_witness):
        with pytest.raises(GroupError, match="coset analysis and direct scan disagree"):
            verify_degree(6, corpus=forced_corpus())

    def test_scan_without_derangement_is_counterexample(self, no_coset_witness, monkeypatch):
        # every element fixes point 0, so the direct scan finds no derangement
        fixes_zero = PermutationGroup.from_cycles(12, [[tuple(range(1, 12))]])
        monkeypatch.setattr("derange.pipeline.materialize_group", lambda desc: fixes_zero)
        r = verify_degree(6, corpus=forced_corpus())
        assert r.verdict == "counterexample"
        assert r.exit_code == 1
        assert r.witnesses == [] and r.caps_hit == []
        assert len(r.counterexamples) == 6
        assert all(rec["witness"] is None for rec in r.counterexamples)
        raw = emit_report(r, format="json")
        assert '"witness":null' in raw
        assert json.loads(raw)["verdict"] == "counterexample"
        assert "COUNTEREXAMPLE pair C6,C6 descriptor 0" in emit_report(r, format="human")

    def test_scan_over_cap_is_partial(self, no_coset_witness):
        r = verify_degree(6, corpus=forced_corpus(), caps=VerifyCaps(enum_cap=1))
        assert r.counterexamples == [] and r.witnesses == []
        assert len(r.caps_hit) == 6
        assert all("over the scan cap" in rec["reason"] for rec in r.caps_hit)
        assert r.verdict == "partial"
        assert r.exit_code == 3


def test_pair_accounting_mismatch_raises(monkeypatch):
    # a report that loses its checked-pair count leaves the one pair of
    # the corpus neither pruned nor checked
    class LossyReport(VerificationReport):
        pairs_checked = property(lambda self: 0, lambda self, value: None)

    monkeypatch.setattr("derange.pipeline.VerificationReport", LossyReport)
    with pytest.raises(GroupError, match="pair accounting: 0 pruned . 0 checked != 1 total"):
        verify_degree(6, corpus=forced_corpus())


class TestEmitReport:
    def test_json_is_canonical(self):
        r = verify_degree(4)
        raw = emit_report(r, format="json")
        assert raw.endswith("\n")
        doc = json.loads(raw)
        assert raw == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        for key in ("degree", "corpus_size", "imprimitive_count", "pairs_total",
                    "pairs_pruned", "pairs_checked", "subdirect_products_checked",
                    "seed"):
            assert isinstance(doc[key], str) and doc[key].isdigit()
        assert "wall_time" not in doc
        assert doc["verdict"] == "verified"
        assert doc["source"] == "builtin-enumeration"
        assert all(isinstance(v, str) for v in doc["caps"].values())

    def test_json_deterministic_across_runs(self):
        a = emit_report(verify_degree(6, corpus=forced_corpus()), format="json")
        b = emit_report(verify_degree(6, corpus=forced_corpus()), format="json")
        assert a == b

    def test_json_witness_record_form(self):
        r = verify_degree(6, corpus=forced_corpus())
        doc = json.loads(emit_report(r, format="json"))
        assert len(doc["witnesses"]) == 6
        rec = doc["witnesses"][0]
        assert isinstance(rec["descriptor"], str)
        assert isinstance(rec["subgroup_order"], str)
        assert all(isinstance(k, str) for k in rec["kernel_orders"])
        assert all(isinstance(x, int) for x in rec["witness"])
        assert rec["pair"] == ["C6", "C6"]

    def test_human_format(self):
        r = verify_degree(6, corpus=forced_corpus())
        text = emit_report(r, format="human")
        assert "degree 6: verdict verified" in text
        assert "pairs: 1 total = 0 pruned + 1 checked" in text
        assert "wall time" in text
        assert "subdirect products checked: 6" in text

    def test_human_detail_lines(self):
        r = handmade_report(
            caps_hit=[{"item": "C6|C6", "reason": "over cap"}],
            counterexamples=[{"pair": ["A", "B"], "pair_index": 0, "descriptor": 2,
                              "kernel_orders": [2, 2], "quotient_order": 3,
                              "subgroup_order": 12, "witness": None}],
        )
        text = emit_report(r, format="human")
        assert "verdict counterexample" in text
        assert "cap: C6|C6: over cap" in text
        assert "COUNTEREXAMPLE pair A,B descriptor 2 order 12" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(verify_degree(2), format="yaml")
