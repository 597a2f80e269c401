"""Differential check of the group engine against sympy.combinatorics.

sympy is an independent implementation (its own Schreier-Sims, class
and Sylow algorithms), used only here; it is not a runtime dependency.
"""

from collections import Counter

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from derange import PermutationGroup  # noqa: E402
from derange._kernels import row_orders  # noqa: E402
from derange.derangements import count_nonderangements  # noqa: E402
from derange.group import factorize  # noqa: E402
from derange.structure import conjugacy_classes, sylow_subgroup  # noqa: E402
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
