import numpy as np
import pytest

from derange.gf import (
    PINNED_MODULI,
    FieldError,
    FieldSpec,
    _is_irreducible,
    factor_prime_power,
)
from oracles import dot, reference_field_tables

SUPPORTED_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(16) == (2, 4)
    for bad in (1, 6, 12, 100):
        with pytest.raises(FieldError):
            factor_prime_power(bad)


def test_unsupported_extension_field():
    with pytest.raises(FieldError):
        FieldSpec(32)  # valid prime power, no pinned modulus


def test_pinned_moduli_are_irreducible():
    for q, modulus in PINNED_MODULI.items():
        p, e = factor_prime_power(q)
        assert len(modulus) == e + 1
        assert _is_irreducible(list(modulus), p)


def test_reducible_pinned_modulus_is_refused(monkeypatch):
    # X^2 + 2 = (X - 1)(X + 1) over GF(3): the tables would not be a field
    monkeypatch.setitem(PINNED_MODULI, 9, (2, 0, 1))
    with pytest.raises(FieldError, match="reducible"):
        FieldSpec(9)
    monkeypatch.setitem(PINNED_MODULI, 9, (1, 0, 1, 1))
    with pytest.raises(FieldError, match="degree"):
        FieldSpec(9)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_tables_match_the_pairwise_reference(q):
    f = FieldSpec(q)
    for got, want in zip((f.add, f.mul, f.neg, f.inv), reference_field_tables(q)):
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()


def test_non_monic_modulus_gives_the_same_tables(monkeypatch):
    # 2X^2 + 2 = 2(X^2 + 1) over GF(3): reducing by it is reducing by X^2 + 1
    want = reference_field_tables(9)
    monkeypatch.setitem(PINNED_MODULI, 9, (2, 0, 2))
    f = FieldSpec(9)
    assert f.mul.tolist() == want[1].tolist()
    assert f.inv.tolist() == want[3].tolist()


def test_reducible_is_detected():
    # X^2 - 1 = (X-1)(X+1) over GF(3)
    assert not _is_irreducible([2, 0, 1], 3)
    # X^2 + X = X(X+1) over GF(2)
    assert not _is_irreducible([0, 1, 1], 2)
    # X^2 + 1 over GF(2) = (X+1)^2
    assert not _is_irreducible([1, 0, 1], 2)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms_on_sampled_triples(q):
    f = FieldSpec(q)
    rng = np.random.default_rng(q)
    add, mul = f.add, f.mul
    for _ in range(200):
        a, b, c = (int(x) for x in rng.integers(0, q, 3))
        assert add[a, b] == add[b, a]
        assert mul[a, b] == mul[b, a]
        assert add[add[a, b], c] == add[a, add[b, c]]
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
    # identities and inverses, exhaustively
    for a in range(q):
        assert add[a, 0] == a
        assert mul[a, 1] == a
        assert mul[a, 0] == 0
        assert add[a, f.neg[a]] == 0
        if a:
            assert mul[a, f.inv[a]] == 1


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_multiplicative_group_is_cyclic_of_order_q_minus_1(q):
    f = FieldSpec(q)
    # every nonzero element has multiplicative order dividing q-1
    for a in range(1, q):
        x, n = a, 1
        while x != 1:
            x = int(f.mul[x, a])
            n += 1
            assert n <= q
        assert (q - 1) % n == 0


def test_prime_field_is_plain_modular_arithmetic():
    f = FieldSpec(7)
    for a in range(7):
        for b in range(7):
            assert f.add[a, b] == (a + b) % 7
            assert f.mul[a, b] == (a * b) % 7


def test_vector_space_and_dot():
    f = FieldSpec(3)
    v = f.vector_space(2)
    assert v.shape == (9, 2)
    assert v[0].tolist() == [0, 0]
    assert v[1].tolist() == [0, 1]
    assert v[-1].tolist() == [2, 2]
    # x + y over GF(3)
    dots = dot(f, np.array([1, 1]), v)
    assert dots.tolist() == [(a + b) % 3 for a, b in v.tolist()]


def test_dot_matches_manual_fold_in_extension_field():
    f = FieldSpec(4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.integers(0, 4, 3)
        v = rng.integers(0, 4, 3)
        acc = 0
        for a, b in zip(u.tolist(), v.tolist()):
            acc = int(f.add[acc, f.mul[a, b]])
        assert int(dot(f, u, v)) == acc
