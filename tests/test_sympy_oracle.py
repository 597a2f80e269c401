"""Differential check of the group engine against sympy.combinatorics.

sympy is an independent implementation (its own Schreier-Sims, class
and Sylow algorithms), used only here; it is not a runtime dependency.
"""

import random
from collections import Counter

import numpy as np

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from derange import Perm, PermutationGroup  # noqa: E402
from derange._kernels import row_orders  # noqa: E402
from derange.derangements import count_nonderangements  # noqa: E402
from derange.group import factorize  # noqa: E402
from derange.structure import conjugacy_classes, normal_subgroups, sylow_subgroup  # noqa: E402
from derange.subgroups import ElementTable  # noqa: E402


@st.composite
def generator_sets(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, 3))
    return n, [draw(st.permutations(range(n))) for _ in range(k)]


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(generator_sets())
def test_engine_matches_sympy(case):
    n, gens = case
    ours = PermutationGroup(n, gens)
    theirs = combinatorics.PermutationGroup([combinatorics.Permutation(g) for g in gens])

    assert ours.order == theirs.order()

    their_classes = theirs.conjugacy_classes()
    sizes = sorted(len(c) for c in their_classes)
    assert sorted(conjugacy_classes(ours).sizes) == sizes
    fixers = sum(
        len(c) for c in their_classes
        if any(x == i for i, x in enumerate(next(iter(c)).array_form))
    )
    assert count_nonderangements(ours, range(n)) == fixers
    assert int(ElementTable.of(ours).class_id.max()) + 1 == len(sizes)

    # element orders are constant on classes
    their_orders = Counter()
    for c in their_classes:
        their_orders[next(iter(c)).order()] += len(c)
    assert Counter(row_orders(ours.element_rows()).tolist()) == their_orders

    for p, _ in factorize(ours.order):
        assert sylow_subgroup(ours, p).order == theirs.sylow_subgroup(p).order()


@st.composite
def wider_generator_sets(draw):
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, 3))
    return n, [draw(st.permutations(range(n))) for _ in range(k)]


def _sympy_perm(n, images):
    return combinatorics.Permutation([int(x) for x in images], size=n)


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(wider_generator_sets())
def test_chain_and_normal_subgroups_match_sympy(case):
    n, gens = case
    ours = PermutationGroup(n, gens)
    theirs = combinatorics.PermutationGroup([_sympy_perm(n, g) for g in gens])

    assert ours.order == theirs.order()

    # membership both ways, on elements each side draws from its own chain
    rng = np.random.default_rng(n)
    for _ in range(5):
        assert theirs.contains(_sympy_perm(n, ours.random_element(rng).images))
    ranks = random.Random(n)
    # sympy's coset_unrank (behind its random()) fails on the trivial group
    for _ in range(5 if ours.order > 1 else 0):
        g = theirs.coset_unrank(ranks.randrange(theirs.order()))
        assert Perm(g.array_form) in ours
    # and on elements of Sym(n), which need not be members
    for _ in range(5):
        g = rng.permutation(n)
        assert (Perm(g) in ours) == theirs.contains(_sympy_perm(n, g))

    if ours.order <= 2000:
        for h in normal_subgroups(ours):
            sub = combinatorics.PermutationGroup(
                [_sympy_perm(n, g.images) for g in h.generators] or [_sympy_perm(n, range(n))]
            )
            assert sub.order() == h.order
            assert sub.is_normal(theirs)
