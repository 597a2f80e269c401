from math import factorial

import numpy as np
import pytest

from derange import derangements
from derange.derangements import (
    CertificateError,
    Inconclusive,
    PndrValue,
    TwoOrbitAction,
    check_sylow,
    classify_case,
    count_nonderangements,
    find_derangement_detailed,
    pndr,
    pndr_pair_bound,
    sylow_certificate,
)
from derange.group import GroupError, PermutationGroup, ResourceCapExceeded, factorize
from derange.perm import Perm
from derange.structure import sylow_subgroup
from oracles import class_sum_nonderangements, conjugate, elements, is_derangement


def cyc(degree, *cycles):
    return Perm.from_cycles(degree, *cycles)


S4 = PermutationGroup.from_cycles(4, [[(0, 1)], [(0, 1, 2, 3)]], name="S4")
A5 = PermutationGroup.from_cycles(5, [[(0, 1, 2)], [(2, 3, 4)]], name="A5")
D4 = PermutationGroup.from_cycles(4, [[(0, 1, 2, 3)], [(1, 3)]], name="D4")
C6 = PermutationGroup.from_cycles(6, [[(0, 1, 2, 3, 4, 5)]], name="C6")
F20 = PermutationGroup.from_cycles(5, [[(0, 1, 2, 3, 4)], [(1, 2, 4, 3)]], name="F20")


def brute_nonderangements(group, pts):
    pts = np.asarray(sorted(pts))
    return sum(1 for g in elements(group) if (g.images[pts] == pts).any())


# two orbits of length 6 whose Sylow 3-subgroup C3 x C3 is covered by its
# four point stabilizers (one per projective kernel), so the Sylow part
# has no derangement while the full group still does
def covered_sylow_group():
    a = cyc(12, (0, 1, 2), (6, 7, 8), (9, 10, 11))
    b = cyc(12, (3, 4, 5), (6, 7, 8), (9, 11, 10))
    s = Perm(np.array([3, 4, 5, 0, 2, 1, 9, 11, 10, 6, 7, 8], dtype=np.uint8))
    return PermutationGroup(12, [a, b, s], name="covered sylow")


class TestCounting:
    def test_is_derangement(self):
        g = cyc(4, (0, 1, 2, 3))
        assert is_derangement(g, range(4))
        assert not is_derangement(cyc(4, (0, 1)), range(4))
        assert is_derangement(cyc(4, (0, 1)), [2, 3]) is False  # both fixed
        assert is_derangement(cyc(4, (2, 3)), [2, 3])

    def test_s4_count(self):
        # identity (1) + transpositions (6) + 3-cycles (8) = 15 with a fixed point
        assert count_nonderangements(S4, range(4)) == 15

    def test_a5_count(self):
        # 1 + 15 double transpositions + 20 three-cycles
        assert count_nonderangements(A5, range(5)) == 36
        assert pndr(A5, range(5)).fraction.numerator == 3
        assert pndr(A5, range(5)).fraction.denominator == 5

    @pytest.mark.parametrize("group", [S4, A5, D4, C6, F20])
    def test_count_matches_bruteforce(self, group):
        pts = range(group.degree)
        want = brute_nonderangements(group, pts)
        assert count_nonderangements(group, pts) == want

    def test_suborbit_counts(self):
        # C6 is transitive, so [0, 2] is not an invariant set; the scan
        # counts it all the same
        pts = [0, 2]
        want = brute_nonderangements(C6, pts)
        assert count_nonderangements(C6, pts) == want

    def test_invariant_subset_class_counting(self):
        # intransitive group: two C3 orbits, count on one of them
        g = cyc(6, (0, 1, 2), (3, 4, 5))
        G = PermutationGroup(6, [g])
        want = brute_nonderangements(G, [0, 1, 2])
        assert want == 1  # only the identity fixes anything in a 3-cycle orbit
        assert count_nonderangements(G, [0, 1, 2]) == want
        assert class_sum_nonderangements(G, [0, 1, 2]) == want

    @pytest.mark.parametrize("n", range(2, 10))
    def test_symmetric_group_pndr(self, n):
        # !n = sum_k (-1)^k n!/k! derangements of n points; n = 9 scans
        # all 362,880 elements
        subfactorial = sum((-1) ** k * (factorial(n) // factorial(k)) for k in range(n + 1))
        value = pndr(PermutationGroup.symmetric(n), range(n))
        assert (value.numerator, value.denominator) == (factorial(n) - subfactorial, factorial(n))

    def test_class_function_soundness(self):
        # "fixes a point of an invariant set" is constant on conjugacy
        # classes; spot-check with random conjugations
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = S4.random_element(rng)
            h = S4.random_element(rng)
            a = bool((g.images[:4] == np.arange(4)).any())
            conj = conjugate(g, h)
            b = bool((conj.images[:4] == np.arange(4)).any())
            assert a == b

    def test_bad_points(self):
        with pytest.raises(GroupError):
            count_nonderangements(S4, [])
        with pytest.raises(GroupError):
            count_nonderangements(S4, [0, 7])

    def test_pndr_value(self):
        v = PndrValue(15, 24)
        assert v.fraction.numerator == 5 and v.fraction.denominator == 8
        with pytest.raises(GroupError):
            PndrValue(25, 24)
        with pytest.raises(GroupError):
            PndrValue(-1, 24)

    def test_pair_bound(self):
        v = pndr(S4, range(4))
        w = pndr(A5, range(5))
        assert pndr_pair_bound(v, w) == v.fraction + w.fraction
        # bound below 1 certifies a derangement in any group projecting
        # onto these two actions; here 5/8 + 3/5 > 1, no conclusion
        assert pndr_pair_bound(v, w) > 1


class TestFindDerangement:
    @pytest.mark.parametrize("group", [S4, A5, C6, F20, D4])
    def test_transitive_groups_have_witnesses(self, group):
        # transitive on >= 2 points always admits a derangement
        w, method = find_derangement_detailed(group, range(group.degree), seed=1)
        assert w is not None
        assert is_derangement(w, range(group.degree))
        assert method == "random"

    def test_exhaustive_methods(self):
        # zero budget skips sampling entirely
        w, method = find_derangement_detailed(S4, range(4), budget=0)
        assert method == "enumeration"
        assert is_derangement(w, range(4))

    def test_witness_is_deterministic_per_seed(self):
        a = find_derangement_detailed(A5, range(5), seed=11)[0]
        b = find_derangement_detailed(A5, range(5), seed=11)[0]
        assert a == b

    def test_absence_is_conclusive(self):
        # the covered Sylow subgroup: every element fixes a point
        a = cyc(12, (0, 1, 2), (6, 7, 8), (9, 10, 11))
        b = cyc(12, (3, 4, 5), (6, 7, 8), (9, 11, 10))
        P = PermutationGroup(12, [a, b])
        for g in elements(P):
            assert not is_derangement(g, range(12))
        w, method = find_derangement_detailed(P, range(12), seed=0, budget=50)
        assert w is None
        assert method == "enumeration"

    def test_inconclusive_when_capped(self):
        with pytest.raises(Inconclusive):
            find_derangement_detailed(A5, range(5), budget=0, enum_cap=1)

    def test_count_over_cap_raises(self):
        with pytest.raises(ResourceCapExceeded, match="order 60 over enumeration cap 59"):
            count_nonderangements(A5, range(5), enum_cap=59)

    def test_two_stabilizer_cover_impossible(self):
        # a group is never the union of two proper subgroups, so any
        # action with at most two distinct point stabilizers has a
        # derangement; exercise with elementary abelian two-kernel setups
        a = cyc(12, (0, 1, 2), (6, 7, 8))
        b = cyc(12, (3, 4, 5), (9, 10, 11))
        P = PermutationGroup(12, [a, b])
        stabs = set()
        for pt in range(12):
            stabs.add(frozenset(g.key for g in elements(P) if g(pt) == pt))
        assert len(stabs) == 2
        assert find_derangement_detailed(P, range(12), budget=0)[0] is not None


class TestTwoOrbitAction:
    def test_of(self):
        g = cyc(8, (0, 1, 2, 3), (4, 5, 6, 7))
        act = TwoOrbitAction.of(PermutationGroup(8, [g]))
        assert act.n == 4
        assert act.omega1 == (0, 1, 2, 3)
        assert act.omega2 == (4, 5, 6, 7)
        assert act.omega == tuple(range(8))

    def test_rejects_one_orbit(self):
        with pytest.raises(GroupError):
            TwoOrbitAction.of(S4)

    def test_rejects_unequal_orbits(self):
        g = cyc(5, (0, 1), (2, 3, 4))
        with pytest.raises(GroupError):
            TwoOrbitAction.of(PermutationGroup(5, [g]))

    def test_rejects_three_orbits(self):
        g = cyc(6, (0, 1), (2, 3))
        with pytest.raises(GroupError):
            TwoOrbitAction.of(PermutationGroup(6, [g]))


class TestSylowCertificate:
    def test_not_applicable(self):
        # n = 6, p = 2: b = 3 >= p
        g = cyc(12, (0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))
        act = TwoOrbitAction.of(PermutationGroup(12, [g]))
        cert = sylow_certificate(act, 2)
        assert cert.verdict == "hypothesis-not-applicable"
        assert (cert.prime, cert.b, cert.k) == (2, 3, 1)
        assert cert.derangement_witness is None

    def test_equal_orbits_k2(self):
        # n = 4, p = 2, k = 2: orbit facts only
        gens = [cyc(8, (0, 1), (4, 5)), cyc(8, (0, 1, 2, 3), (4, 5, 6, 7))]
        act = TwoOrbitAction.of(PermutationGroup(8, gens))
        cert = sylow_certificate(act, 2)
        assert cert.verdict == "equal-orbits"
        assert cert.orbit_lengths == (4, 4)
        assert cert.k == 2 and cert.b == 1
        assert cert.elementary_abelian is None

    def test_mandatory_witness_small_b(self):
        # n = 5, p = 5, b = 1 < (p+1)/2: witness in the Sylow is forced
        g = cyc(10, (0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
        act = TwoOrbitAction.of(PermutationGroup(10, [g]))
        cert = sylow_certificate(act, 5)
        assert cert.verdict == "elementary-abelian-derangement"
        assert cert.stabilizer_count == 1
        assert cert.derangement_witness is not None
        assert is_derangement(cert.derangement_witness, range(10))

    def test_witness_case_p3(self):
        g = cyc(12, (0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))
        act = TwoOrbitAction.of(PermutationGroup(12, [g]))
        cert = sylow_certificate(act, 3)
        assert cert.verdict == "elementary-abelian-derangement"
        assert cert.orbit_lengths == (3, 3, 3, 3)
        assert is_derangement(cert.derangement_witness, range(12))

    def test_covered_sylow(self):
        G = covered_sylow_group()
        act = TwoOrbitAction.of(G)
        cert = sylow_certificate(act, 3)
        assert cert.verdict == "elementary-abelian"
        assert cert.derangement_witness is None
        assert cert.elementary_abelian is True
        assert cert.stabilizer_count == 4
        assert cert.orbit_lengths == (3, 3, 3, 3)
        # counting bound: 2 <= d <= s - p + 1 <= 2b - p + 1
        assert 2 <= cert.d <= cert.stabilizer_count - 3 + 1 <= 2 * cert.b - 3 + 1
        # the group itself still has one
        w = find_derangement_detailed(G, range(12), seed=0)[0]
        assert w is not None and is_derangement(w, range(12))

    def test_covered_sylow_exhaustive_confirmation(self):
        G = covered_sylow_group()
        P = sylow_subgroup(G, 3)
        assert P.order == 9
        assert all(not is_derangement(g, range(12)) for g in elements(P))
        # and the distinct stabilizers really number four
        stabs = {
            frozenset(g.key for g in elements(P) if g(pt) == pt)
            for pt in range(12)
        }
        assert len(stabs) == 4

    def test_rejects_bad_prime(self):
        g = cyc(12, (0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))
        act = TwoOrbitAction.of(PermutationGroup(12, [g]))
        with pytest.raises(GroupError):
            sylow_certificate(act, 4)
        with pytest.raises(GroupError):
            sylow_certificate(act, 5)

    def test_random_elementary_abelian_actions(self):
        # seeded sweep: diagonal C_p subgroups on 2b orbits of length p
        # with random shift vectors; certificate must self-validate and
        # the p = 5, b = 2 cases must match a brute stabilizer count
        rng = np.random.default_rng(53)
        p, b = 5, 2
        for _ in range(10):
            shifts = rng.integers(0, p, size=(2, 2 * b))
            shifts[0, 0] = 1  # keep generator 0 moving orbit 0
            shifts[1, 2 * b - 1] = 1
            gens = []
            for row in shifts:
                images = np.arange(2 * b * p, dtype=np.uint8)
                for o, s in enumerate(row):
                    pts = np.arange(o * p, (o + 1) * p)
                    images[pts] = np.roll(pts, -int(s))
                gens.append(Perm(images))
            P = PermutationGroup(2 * b * p, gens)
            if len(P.orbits()) != 2 * b:
                continue  # a zero column left an orbit split, skip
            # fuse into two orbits of length b*p by a block swap
            sw = np.arange(2 * b * p, dtype=np.uint8)
            sw = np.concatenate([sw[p : 2 * p], sw[:p], sw[3 * p :], sw[2 * p : 3 * p]])
            G = PermutationGroup(2 * b * p, gens + [Perm(sw)])
            if len(G.orbits()) != 2:
                continue
            act = TwoOrbitAction.of(G)
            if G.order % 25 or G.order % 125 == 0:
                continue  # want the diagonal part itself as the Sylow 5-group
            cert = sylow_certificate(act, p)
            assert cert.verdict in (
                "elementary-abelian",
                "elementary-abelian-derangement",
            )
            stabs = {
                frozenset(g.key for g in elements(_sylow_of(G, p)) if g(pt) == pt)
                for pt in range(2 * b * p)
            }
            assert cert.stabilizer_count == len(stabs)


# S3 acting alike on two orbits of length 3: a wrong Sylow 3-subgroup
# whose orbits pass the orbit check
S3_TWICE = PermutationGroup(6, [cyc(6, (0, 1, 2), (3, 4, 5)), cyc(6, (0, 1), (3, 4))])
# C6 on two orbits of length 6: its Sylow 3-subgroup has four orbits
C6_TWICE = PermutationGroup(12, [cyc(12, (0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))])


class TestSylowChecks:
    """check_sylow on a given P reaches each CertificateError branch.  A
    wrong P reaches the orbit and elementary-abelian checks.  The other
    three hold for every true Sylow subgroup (they are the theorem), so
    they are reached by faking the check before them."""

    def test_checks_on_the_grown_subgroup_are_the_certificate(self):
        for G in [covered_sylow_group(), C6_TWICE]:
            act = TwoOrbitAction.of(G)
            assert check_sylow(act, 3, sylow_subgroup(G, 3)) == sylow_certificate(act, 3)

    def test_rejects_a_prime_power(self):
        act = TwoOrbitAction.of(S3_TWICE)
        with pytest.raises(GroupError, match="4 is not prime"):
            check_sylow(act, 4, PermutationGroup(6, []))

    def test_wrong_orbit_lengths(self):
        # n = 5, p = 5: P needs two orbits of length 5, not ten fixed points
        act = TwoOrbitAction.of(PermutationGroup(10, [cyc(10, (0, 1, 2, 3, 4), (5, 6, 7, 8, 9))]))
        with pytest.raises(CertificateError, match="expected 2 orbits of length 5"):
            check_sylow(act, 5, PermutationGroup(10, []))

    def test_not_elementary_abelian(self):
        with pytest.raises(CertificateError, match="not elementary abelian"):
            check_sylow(TwoOrbitAction.of(S3_TWICE), 3, S3_TWICE)

    def test_too_many_stabilizers(self, monkeypatch):
        # past a faked elementary-abelian check, S3's three distinct
        # point stabilizers exceed 2b = 2
        monkeypatch.setattr(derangements, "_is_elementary_abelian", lambda gens, p: True)
        with pytest.raises(CertificateError, match="3 distinct point stabilizers exceeds 2b = 2"):
            check_sylow(TwoOrbitAction.of(S3_TWICE), 3, S3_TWICE)

    def test_missing_mandatory_derangement(self, monkeypatch):
        # n = 5, p = 5, b = 1 < (p+1)/2: with the derangement hidden
        monkeypatch.setattr(derangements, "least_derangement", lambda rows, points: None)
        act = TwoOrbitAction.of(PermutationGroup(10, [cyc(10, (0, 1, 2, 3, 4), (5, 6, 7, 8, 9))]))
        with pytest.raises(CertificateError, match="no derangement in the Sylow subgroup"):
            sylow_certificate(act, 5)

    def test_d_bound(self, monkeypatch):
        # n = 6, p = 3, b = 2: P = C3 on four orbits has d = 1 and one
        # stabilizer, so with its derangements hidden 2 <= d fails
        monkeypatch.setattr(derangements, "least_derangement", lambda rows, points: None)
        act = TwoOrbitAction.of(C6_TWICE)
        with pytest.raises(CertificateError, match="d=1, s=1, b=2"):
            sylow_certificate(act, 3)


def _sylow_of(G, p):
    return sylow_subgroup(G, p)


class TestClassify:
    def test_routing_table(self):
        assert classify_case(2) == "prime-power"
        assert classify_case(3) == "prime-power"
        assert classify_case(4) == "equal-primes"
        assert classify_case(5) == "prime-power"
        assert classify_case(6) == "direct-verification"
        assert classify_case(8) == "prime-power"
        assert classify_case(9) == "equal-primes"
        assert classify_case(10) == "q-at-most-half-p-minus-1"
        assert classify_case(14) == "q-at-most-half-p-minus-1"
        assert classify_case(35) == "q-not-dividing-p-minus-1"
        assert classify_case(15) == "q-not-dividing-p-minus-1"
        assert classify_case(21) == "q-at-most-half-p-minus-1"
        assert classify_case(25) == "equal-primes"
        assert classify_case(27) == "prime-power"
        assert classify_case(12) == "not-covered"
        assert classify_case(30) == "not-covered"
        assert classify_case(36) == "not-covered"

    def test_routing_consistency_sweep(self):
        # independent re-derivation of the routing rules from the
        # factorization, which test_group checks by brute force
        for n in range(2, 400):
            f = dict(factorize(n))
            got = classify_case(n)
            if len(f) == 1:
                ((p, e),) = f.items()
                assert got == ("equal-primes" if e == 2 else "prime-power")
            elif len(f) == 2 and set(f.values()) == {1}:
                q, p = sorted(f)
                if (p - 1) % q:
                    assert got == "q-not-dividing-p-minus-1"
                elif q == p - 1:
                    assert got == "direct-verification" and n == 6
                else:
                    assert got == "q-at-most-half-p-minus-1"
                    assert q <= (p - 1) // 2
            else:
                assert got == "not-covered"

    def test_rejects_tiny(self):
        with pytest.raises(GroupError):
            classify_case(1)
        with pytest.raises(GroupError):
            classify_case(0)


def test_q_dividing_cases_have_small_q():
    # whenever q | p - 1 with q < p - 1, q <= (p-1)/2 holds automatically;
    # spot-check the label really only covers that range
    for p, q in [(7, 2), (7, 3), (11, 2), (11, 5), (13, 2), (13, 3)]:
        assert (p - 1) % q == 0 and q < p - 1
        assert classify_case(p * q) == "q-at-most-half-p-minus-1"
