"""Prime utilities: dual-route primality, twin pairs, partial factoring."""

import math

import pytest
from hypothesis import given, strategies as st

from lossprobe.errors import ValidationError
from lossprobe.primes import (
    Factorization,
    factor_over,
    first_primes,
    is_prime,
    remainders,
    sieve_primes,
    tree_product,
    twin_primes,
)

from conftest import naive_factor_over


def test_sieve_and_miller_rabin_agree_to_ten_thousand():
    sieved = set(sieve_primes(10_000))
    for n in range(10_000):
        assert is_prime(n) == (n in sieved)


def test_is_prime_refuses_past_its_deterministic_range():
    # a strong pseudoprime to every one of the twelve witness bases 2-37
    composite = 399_165_290_221 * 798_330_580_441
    with pytest.raises(ValidationError, match="deterministic only below"):
        is_prime(composite)
    with pytest.raises(ValidationError):
        is_prime(composite + 2)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)


def test_first_primes_head():
    assert first_primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_first_primes_requires_positive_count():
    with pytest.raises(ValidationError):
        first_primes(0)


def test_twin_table_starts_at_five_seven(twin_pairs_100):
    table = twin_primes(len(twin_pairs_100))
    for (lo, hi), p in zip(twin_pairs_100, table.primes):
        assert p == lo
        assert is_prime(p) and is_prime(p + 2)
        assert p + 2 == hi


def test_twin_table_members_are_all_twin_primes():
    table = twin_primes(200)
    assert len(table.primes) == 200
    for p in table.primes:
        assert is_prime(p) and is_prime(p + 2)
    # ascending and distinct
    assert list(table.primes) == sorted(set(table.primes))


@given(
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
    st.integers(1, 50).filter(lambda v: all(v % p for p in (3, 5, 7))),
    st.permutations((3, 5, 7)),
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=6),
)
def test_factor_over_reconstructs(exponents, leftover, order, extra):
    value = leftover
    for p, e in zip((3, 5, 7), exponents):
        value *= p**e
    # unsorted, with repeats, and with primes that may divide the leftover
    primes = [*order, *extra]
    result = factor_over(value, primes)
    assert (dict(result.exponents), result.leftover) == naive_factor_over(value, primes)
    product = result.leftover
    for p, e in result.exponents.items():
        product *= p**e
    assert product == value
    # only positive exponents are recorded
    assert all(e > 0 for e in result.exponents.values())
    for p, e in zip((3, 5, 7), exponents):
        assert result.exponents.get(p, 0) == e
    assert result.leftover % 1 == 0
    for p in primes:
        assert result.leftover % p != 0


@given(st.integers(0, 10**60), st.lists(st.integers(1, 10**9), max_size=100))
def test_trees_match_plain_arithmetic(value, moduli):
    assert tree_product(moduli) == math.prod(moduli)
    assert remainders(value, moduli) == [value % m for m in moduli]


def test_factor_over_rejects_nonpositive():
    with pytest.raises(ValidationError):
        factor_over(0, (2, 3))


def test_factorization_roundtrip_example():
    f = factor_over(1729, (7, 13, 19))
    assert f == Factorization(exponents={7: 1, 13: 1, 19: 1}, leftover=1)
