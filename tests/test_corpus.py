"""Corpus construction and fixture loading.

The builtin enumeration is checked against the known transitive-group
counts and, for tiny degrees, against a raw exhaustive subgroup scan
with no conjugacy shortcuts.
"""

import hashlib
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from derange.corpus import (
    BUILTIN_CAP,
    CorpusEntry,
    GroupCorpus,
    enumerate_transitive,
    group_json,
    imprimitive_filter,
    load_corpus,
    parse_group_json,
    save_corpus,
)
from derange.group import GroupError, PermutationGroup
from oracles import are_conjugate, same_group, subgroup_scan

TRANSITIVE_COUNTS = {2: 1, 3: 2, 4: 5, 5: 5, 6: 16, 7: 7}
IMPRIMITIVE_COUNTS = {2: 0, 3: 0, 4: 3, 5: 0, 6: 12, 7: 0}

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "derange" / "fixtures"
_CACHE = {}


def corpus_for(n):
    """Shared read-only corpora; builtin entries arrive fully annotated,
    so the filter never mutates them."""
    if n not in _CACHE:
        _CACHE[n] = enumerate_transitive(n)
    return _CACHE[n]


class TestEnumerateTransitive:
    @pytest.mark.parametrize("n", sorted(TRANSITIVE_COUNTS))
    def test_counts(self, n):
        corpus = corpus_for(n)
        assert len(corpus) == TRANSITIVE_COUNTS[n]
        assert corpus.source == "builtin-enumeration"
        for e in corpus.entries:
            assert e.group.degree == n
            assert e.group.is_transitive()
            assert e.primitive is not None
            assert e.pndr is not None

    @pytest.mark.parametrize("n", sorted(TRANSITIVE_COUNTS))
    def test_listing_matches_schreier_sims_rebuild(self, n):
        # each entry holds its elements as read off the scan's table:
        # the order and element set of the group its generators span
        for e in corpus_for(n).entries:
            rows = e.group.element_rows()
            rebuilt = PermutationGroup(n, e.group.generators)
            assert e.group.order == len(rows) == rebuilt.order, e.name
            assert [r.tobytes() for r in rows] == sorted(
                r.tobytes() for r in rebuilt.element_rows()
            ), e.name

    def test_raw_scan_agreement_small_degrees(self):
        # completeness without the lattice machinery: adjoin-one-element
        # closure growth over the whole symmetric group
        for n in (3, 4, 5):
            sym = PermutationGroup.symmetric(n)
            raw = [H for H in subgroup_scan(sym) if H.is_transitive()]
            corpus = corpus_for(n)
            for H in raw:
                hits = sum(
                    1 for e in corpus.entries if are_conjugate(sym, H, e.group)
                )
                assert hits == 1

    def test_entries_pairwise_nonconjugate(self):
        sym = PermutationGroup.symmetric(4)
        entries = corpus_for(4).entries
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                assert not are_conjugate(sym, entries[i].group, entries[j].group)

    def test_names_deterministic(self):
        a = corpus_for(4)
        b = enumerate_transitive(4)
        assert [e.name for e in a.entries] == [e.name for e in b.entries]
        assert a.entries[0].name == "T4.1"
        for x, y in zip(a.entries, b.entries):
            assert [g.key for g in x.group.generators] == [g.key for g in y.group.generators]

    def test_entries_pinned(self):
        # the builtin corpus feeds every report below degree 8, so names,
        # generators, pndr and primitivity must not move across changes
        def digest(degrees):
            h = hashlib.sha256()
            for n in degrees:
                for e in corpus_for(n):
                    gens = [g.images.tolist() for g in e.group.generators]
                    h.update(repr((e.name, gens, str(e.pndr), e.primitive)).encode())
            return h.hexdigest()

        assert digest(range(2, 7)) == "112f48347829b919ca108537a283ef9cb5ba5c6a5d10cf4d87f217f37fee6778"
        # degree 7 apart: its scan is the one the lattice pruning cuts most
        assert digest([7]) == "5aed2b5043fe76ad94568e444a1dc69c5594dad5a7911e1a65ecc9548556f78a"

    def test_pndr_values(self):
        by_order = {}
        for e in corpus_for(4).entries:
            by_order.setdefault(e.group.order, []).append(e)
        # C4: identity and the double transposition... only the identity
        # and one rotation fix nothing? non-derangements: identity only
        c4 = PermutationGroup.from_cycles(4, [[(0, 1, 2, 3)]])
        cyclic = [e for e in by_order[4] if same_group(e.group, c4)]
        assert len(cyclic) == 1
        assert cyclic[0].pndr.fraction == Fraction(1, 4)
        s4 = by_order[24][0]
        # S4 natural: 15 elements fix at least one point
        assert s4.pndr.numerator == 15 and s4.pndr.denominator == 24

    def test_degree_bounds(self):
        with pytest.raises(GroupError):
            enumerate_transitive(1)
        with pytest.raises(GroupError, match="fixture"):
            enumerate_transitive(BUILTIN_CAP + 1)


class TestImprimitiveFilter:
    @pytest.mark.parametrize("n", sorted(IMPRIMITIVE_COUNTS))
    def test_counts(self, n):
        filtered = imprimitive_filter(corpus_for(n))
        assert len(filtered) == IMPRIMITIVE_COUNTS[n]
        for e in filtered.entries:
            assert e.primitive is False
            assert e.pndr is not None

    def test_flags_set_on_input(self):
        corpus = enumerate_transitive(4)
        for e in corpus.entries:
            e.primitive = None
        imprimitive_filter(corpus)
        assert all(e.primitive is not None for e in corpus.entries)

    def test_prime_degree_vacuous(self):
        for n in (2, 3, 5, 7):
            assert len(imprimitive_filter(corpus_for(n))) == 0

    def test_s4_primitive_c4_not(self):
        corpus = corpus_for(4)
        for e in corpus.entries:
            if e.group.order == 24 or e.group.order == 12:
                assert e.primitive
            else:
                assert not e.primitive

    @pytest.mark.parametrize("n", range(2, 11))
    def test_flags_match_minimal_block_systems(self, n):
        # the filter stops at the first nontrivial block closure; the
        # flag must be the one the full list of minimal systems gives
        corpus = corpus_for(n) if n <= BUILTIN_CAP else load_corpus(FIXTURES / f"degree{n:02d}", n)
        imprimitive_filter(corpus)
        assert [e.primitive for e in corpus.entries] == [
            not e.group.minimal_block_systems() for e in corpus.entries
        ]

    def test_flags_read_the_first_orbit(self):
        groups = {
            "c4 on 0..3, swap 4 5": [[(0, 1, 2, 3), (4, 5)]],
            "s4 on 0..3, swap 4 5": [[(0, 1, 2, 3)], [(0, 1), (4, 5)]],
            "0 fixed, c4 on 1..4": [[(1, 2, 3, 4)]],
        }
        entries = [
            CorpusEntry(name, PermutationGroup.from_cycles(6, gens)) for name, gens in groups.items()
        ]
        imprimitive_filter(GroupCorpus(6, entries, "fixtures:x"), enum_cap=0)
        assert [e.primitive for e in entries] == [False, True, True]
        assert [e.primitive for e in entries] == [not e.group.minimal_block_systems() for e in entries]

    def test_fills_missing_pndr(self):
        group = PermutationGroup.from_cycles(4, [[(0, 1, 2, 3)]])
        corpus = GroupCorpus(4, [CorpusEntry("c4", group)], "fixtures:x")
        out = imprimitive_filter(corpus)
        assert len(out) == 1
        assert out.entries[0].pndr.fraction == Fraction(1, 4)


class TestGroupJson:
    def test_round_trip(self):
        G = PermutationGroup.from_cycles(6, [[(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)]])
        doc = group_json(G, "d6")
        back, name = parse_group_json(doc, "mem")
        assert name == "d6"
        assert same_group(back, G)

    @pytest.mark.parametrize(
        "doc,msg",
        [
            ([], "JSON object"),
            ({"degree": "x", "generators": []}, "degree"),
            ({"degree": 0, "generators": []}, "degree"),
            ({"degree": 3, "generators": 5}, "generators"),
            ({"degree": 3, "generators": [[0, 1]]}, "generator 0"),
            ({"degree": 3, "generators": [[0, 1, 2], [0, 0, 2]]}, "generator 1"),
            ({"degree": 3, "generators": [[0, 1, 2], [0, 1, 3]]}, "generator 1"),
            ({"degree": 3, "generators": [], "name": 7}, "name"),
            # JSON true/false load as bools, which are ints to isinstance
            ({"degree": True, "generators": []}, "degree must be an integer"),
            ({"degree": 2, "generators": [[True, False]]}, "generator 0 is not a bijection"),
            ({"degree": 2, "generators": [[1, False]]}, "generator 0 is not a bijection"),
        ],
    )
    def test_rejections(self, doc, msg):
        with pytest.raises(GroupError, match=msg):
            parse_group_json(doc, "f.json")


class TestLoadCorpus:
    def test_save_load_round_trip(self, tmp_path):
        corpus = corpus_for(6)
        paths = save_corpus(corpus, tmp_path)
        assert len(paths) == 16
        back = load_corpus(tmp_path, 6)
        assert len(back) == 16
        assert back.source == f"fixtures:{tmp_path}"
        got = sorted(e.group.order for e in back.entries)
        want = sorted(e.group.order for e in corpus.entries)
        assert got == want
        assert {e.name for e in back.entries} == {e.name for e in corpus.entries}

    def test_empty_directory_warns(self, tmp_path):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            corpus = load_corpus(tmp_path, 6)
        assert len(corpus) == 0
        assert len(w) == 1 and "no group files" in str(w[0].message)

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(GroupError, match="not a directory"):
            load_corpus(tmp_path / "missing", 6)

    def test_invalid_json_names_file(self, tmp_path):
        (tmp_path / "broken.json").write_text("{nope")
        with pytest.raises(GroupError, match="broken.json"):
            load_corpus(tmp_path, 6)

    def test_bad_generator_names_file_and_index(self, tmp_path):
        doc = {"degree": 3, "generators": [[0, 1, 2], [1, 1, 0]]}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        with pytest.raises(GroupError, match=r"bad\.json.*generator 1"):
            load_corpus(tmp_path, 3)

    def test_degree_mismatch(self, tmp_path):
        doc = {"degree": 3, "generators": [[1, 2, 0]]}
        (tmp_path / "c3.json").write_text(json.dumps(doc))
        with pytest.raises(GroupError, match="degree 3, expected 4"):
            load_corpus(tmp_path, 4)

    def test_non_transitive_rejected(self, tmp_path):
        doc = {"degree": 4, "generators": [[1, 0, 2, 3]]}
        (tmp_path / "fix.json").write_text(json.dumps(doc))
        with pytest.raises(GroupError, match="not transitive"):
            load_corpus(tmp_path, 4)

    def test_name_defaults_to_stem(self, tmp_path):
        doc = {"degree": 3, "generators": [[1, 2, 0]]}
        (tmp_path / "rot3.json").write_text(json.dumps(doc))
        corpus = load_corpus(tmp_path, 3)
        assert corpus.entries[0].name == "rot3"
