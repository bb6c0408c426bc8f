"""Prime utilities: dual-route primality, twin pairs, the exponent reader."""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from lossprobe import primes
from lossprobe.errors import ValidationError
from lossprobe.exact import TWIN_MAX_N
from lossprobe.primes import (
    exponents_over,
    first_primes,
    is_prime,
    remainders,
    sieve_primes,
    tree_product,
    twin_primes,
)

from conftest import naive_factor_over, trial_division_primes, trial_division_twins


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


@pytest.mark.parametrize(
    "bases,composite",
    # OEIS A014233: the least strong pseudoprime to the first k prime bases
    [(1, 2047), (2, 1_373_653), (3, 25_326_001), (4, 3_215_031_751), (5, 2_152_302_898_747),
     (6, 3_474_749_660_383), (8, 341_550_071_728_321), (11, 3_825_123_056_546_413_051)],
)
def test_is_prime_rejects_strong_pseudoprimes_to_fewer_bases(bases, composite):
    # each composite fools the first `bases` witnesses, so a cut list would pass it
    def strong_probable_prime(a):
        d, r = composite - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        x = pow(a, d, composite)
        return x in (1, composite - 1) or any(
            pow(x, 2**i, composite) == composite - 1 for i in range(1, r)
        )

    assert all(strong_probable_prime(a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)[:bases])
    assert not is_prime(composite)


def test_first_primes_head():
    assert tuple(first_primes(10)) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_first_primes_requires_positive_count():
    with pytest.raises(ValidationError):
        first_primes(0)


def test_twin_table_starts_at_five_seven(twin_pairs_100):
    for (lo, hi), p in zip(twin_pairs_100, twin_primes(len(twin_pairs_100))):
        assert p == lo
        assert is_prime(p) and is_prime(p + 2)
        assert p + 2 == hi


def test_twin_table_members_are_all_twin_primes():
    lowers = twin_primes(200)
    assert len(lowers) == 200
    for p in lowers:
        assert is_prime(p) and is_prime(p + 2)
    # ascending and distinct
    assert list(lowers) == sorted(set(lowers))


def test_first_primes_match_trial_division():
    reference = trial_division_primes(20_000)  # 2262 primes
    for n in range(1, 2001):
        assert tuple(first_primes.__wrapped__(n)) == reference[:n]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3000))
def test_twin_table_matches_trial_division(n):
    assert tuple(twin_primes.__wrapped__(n)) == trial_division_twins(3000)[:n]


def _spy(monkeypatch, name):
    calls = []
    real = getattr(primes, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(primes, name, spy)
    return calls


def test_cold_twin_table_sieves_once_and_rechecks_every_entry(monkeypatch):
    scans, checks = _spy(monkeypatch, "_twin_lowers"), _spy(monkeypatch, "is_prime")
    lowers = twin_primes.__wrapped__(500)
    assert len(scans) == 1
    # the independent Miller-Rabin route sees every p and p + 2, and nothing else
    assert checks == [(q,) for p in lowers for q in (p, p + 2)]


@pytest.mark.parametrize("bad", [25, 23], ids=["composite-lower", "composite-upper"])
def test_twin_table_refuses_a_non_twin_from_the_sieve(bad, monkeypatch):
    # whatever the re-check runs on, a sieve fault that puts a non-twin
    # among the pairs (here between 17 and 29) must not reach a table
    real = primes._twin_lowers

    def faulty():
        for p in real():
            if p == 29:
                yield bad
            yield p

    monkeypatch.setattr(primes, "_twin_lowers", faulty)
    with pytest.raises(ValidationError, match="sieve produced a non-twin entry"):
        twin_primes.__wrapped__(10)


def test_sieve_sized_once_reaches_the_last_table_entry(monkeypatch):
    # the twelve-base re-check is pinned above; here only the scan runs
    monkeypatch.setattr(primes, "is_prime", lambda k: True)
    scans = _spy(monkeypatch, "_twin_lowers")
    lowers = twin_primes.__wrapped__(TWIN_MAX_N)
    assert len(scans) == 1
    assert lowers[-1] == 18_409_541


@pytest.mark.parametrize("segment", range(1, 65))
def test_twin_scan_finds_the_pairs_across_segment_boundaries(monkeypatch, segment):
    # the re-check would mask a scan fault as a ValidationError; compare the scan
    monkeypatch.setattr(primes, "is_prime", lambda k: True)
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    reference = trial_division_twins(3000)
    # the scan of a one-flag segment takes seconds to the 3000th pair, so
    # the full table is checked at the widest segments only
    sizes = (1, 2, 3, 4, 7, 30, 100, 300) + ((3000,) if segment > 60 else ())
    for n in sizes:
        assert tuple(twin_primes.__wrapped__(n)) == reference[:n]
    # p straddles when its flag, (p - 5) / 2 from the first, ends a segment;
    # then p = 3 + 2 * segment * k, so a segment divisible by 3 or 5 puts a
    # multiple of 3 at p or of 5 at p + 2, and no pair can straddle
    straddling = [p for p in reference[:300] if (p - 3) % (2 * segment) == 0]
    assert straddling or segment % 3 == 0 or segment % 5 == 0


def test_twin_table_memory_stays_near_its_flags(monkeypatch):
    # a list and a set of every prime below the bound once peaked at 12.1 MB,
    # a flag for every integer at 2.03 MB, a flag for every odd number up
    # to the bound at 0.85 MB, and a tuple of ints, about 36 B an entry, at
    # 0.30 MB.  The scan holds one segment and a strike buffer a third its
    # size; the rest is the table's four bytes an entry and its array's
    # growth.  The re-check keeps nothing past a call, and traced it takes seconds
    monkeypatch.setattr(primes, "is_prime", lambda k: True)
    n = 7000
    tracemalloc.start()
    try:
        twin_primes.__wrapped__(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n + 2 * primes._SEGMENT


@pytest.mark.parametrize("table", [twin_primes, first_primes])
def test_prime_tables_are_read_only_four_byte_views(table):
    # the cached table is shared by every caller, so no caller may edit it
    lowers = table(100)
    assert lowers.itemsize == 4 and len(lowers) == 100
    with pytest.raises(TypeError):
        lowers[0] = 3
    assert table(100) is lowers
    # a slice is a view of the same bytes, as read-only as the table
    head = lowers[:10]
    assert head.obj is lowers.obj and tuple(head) == tuple(lowers)[:10]
    with pytest.raises(TypeError):
        head[0] = 3


def test_sieve_strikes_hold_no_second_buffer():
    # a bytes right-hand side is copied into a bytearray before a strike, so
    # each strike once held two zero buffers: 1.67 times the flags traced
    tracemalloc.start()
    try:
        _, flags = next(primes._segments())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(flags) == primes._SEGMENT
    assert peak <= 1.4 * len(flags)


@pytest.mark.parametrize("segment", [1, 2, 3, 7, 64])
def test_short_segments_regrow_the_base_primes(monkeypatch, segment):
    # each segment's striking primes come from a sieve_primes call that
    # itself reads short segments, and is called again each time the scan
    # passes its reach; the re-check would mask a scan fault, so it is off
    monkeypatch.setattr(primes, "is_prime", lambda k: True)
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    reference = trial_division_primes(20_000)
    assert tuple(sieve_primes(20_000)) == reference
    assert tuple(first_primes.__wrapped__(len(reference))) == reference
    # to the 3000th pair, 300581, a scan of segments of 3 flags or fewer takes 2-7 s
    n = 3000 if segment > 3 else 300
    assert tuple(twin_primes.__wrapped__(n)) == trial_division_twins(3000)[:n]


@given(
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
    st.integers(1, 60),
    st.permutations((2, 3, 5, 7)),
    st.integers(1, 3),
)
def test_exponents_over_matches_trial_division(exponents, leftover, order, top):
    value = leftover
    for p, e in zip((2, 3, 5, 7), exponents):
        value *= p**e
    # listed out of order, some primes left out, and the leftover may hold any of them
    primes = order[:3]
    exps, rest, over = exponents_over(value, primes, top)
    naive, naive_rest = naive_factor_over(value, primes)
    assert exps == [min(naive.get(p, 0), top) for p in primes]
    assert rest == naive_rest
    assert over == [p for p in primes if naive.get(p, 0) > top]


# lengths on either side of whole runs of _LEAF = 32, read off a table in place
# and as squares, against a value wider than any of their products
@given(st.integers(0, 10**60), st.lists(st.integers(1, 10**9), max_size=100))
@example(3**20000 + 1, first_primes(1000)[:0])
@example(3**20000 + 1, first_primes(1000)[:1])
@example(3**20000 + 1, first_primes(1000)[:31])
@example(3**20000 + 1, first_primes(1000)[:32])
@example(3**20000 + 1, [p * p for p in first_primes(1000)[:33]])
@example(3**20000 + 1, first_primes(1000)[:64])
@example(3**20000 + 1, [p * p for p in first_primes(1000)[:65]])
@example(3**20000 + 1, first_primes(1000))
def test_trees_match_plain_arithmetic(value, moduli):
    assert primes._LEAF == 32
    assert tree_product(moduli) == math.prod(moduli)
    assert remainders(value, moduli) == [value % m for m in moduli]


def test_exponents_over_rejects_nonpositive():
    with pytest.raises(ValidationError):
        exponents_over(0, (2, 3), 1)
