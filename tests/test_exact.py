"""Reversible constructions: build, score, decode, and tamper detection."""

import math
import random
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from decimal import MAX_EMAX
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from lossprobe import exact
from lossprobe.cli import BINARY_WIRE_MAX_N, _respond
from lossprobe.core import (
    ClassLabeling,
    ExactScore,
    Labeling,
    ScoreKind,
    _auc_value,
    _rounded_ll,
    coprime_fraction,
    exact_score,
    exact_score_multiclass,
    format_rational,
    logloss_decimal,
    parse_decimal_score,
)
from lossprobe.errors import DecodeError, LossProbeError, PrecisionError, ValidationError
from lossprobe.exact import (
    BINARY_DECIMAL_MAX_N,
    BINARY_MAX_N,
    MULTICLASS_MAX_CELLS,
    TWIN_MAX_N,
    _largest_binary_batch,
    binary_decimal_response,
    build_binary_vector,
    build_multiclass_matrix,
    build_twin_prime_vector,
    decode_binary,
    decode_binary_from_decimal,
    decode_multiclass,
    decode_twin_prime,
    decode_twin_prime_value,
)
from lossprobe.mia import perturb_prime, respond
from lossprobe.precision import LOOKUP_MAX_BATCH, build_tuple_lookup
from lossprobe.primes import twin_primes

from conftest import (
    binary_entries,
    mp_binary_batch_precisions,
    mp_binary_logloss_wire,
    mp_logloss_wire,
    naive_exact_score,
    naive_exact_score_multiclass,
    tampered_wires,
)

F = Fraction


# twin-prime construction


def test_twin_vector_entries():
    vec = build_twin_prime_vector(2)
    assert vec.entries == (F(5, 7), F(11, 13))
    assert build_twin_prime_vector(4).entries == (
        F(5, 7), F(11, 13), F(17, 19), F(29, 31),
    )


def test_twin_score_table_n2():
    vec = build_twin_prime_vector(2)
    table = {
        (0, 0): F(91, 4),
        (0, 1): F(91, 22),
        (1, 0): F(91, 10),
        (1, 1): F(91, 55),
    }
    for bits, expected in table.items():
        assert exact_score(vec, Labeling(bits)).value == expected


def test_twin_known_score_decodes():
    got = decode_twin_prime(ExactScore(value=F(1729, 170), n=3))
    assert got.to_string() == "101"


def test_twin_value_decode_infers_n():
    assert decode_twin_prime_value(F(1729, 170)).to_string() == "101"
    assert decode_twin_prime_value(F(91, 10)).to_string() == "10"
    assert decode_twin_prime_value(F(91, 4)).to_string() == "00"


def test_twin_decode_rejects_wrong_n():
    with pytest.raises(DecodeError):
        decode_twin_prime(ExactScore(value=F(1729, 170), n=4))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=24))
def test_twin_roundtrip(bits):
    vec = build_twin_prime_vector(len(bits))
    score = exact_score(vec, Labeling(tuple(bits)))
    assert score.value == naive_exact_score(vec.entries, bits)
    assert decode_twin_prime(score).bits == tuple(bits)


def test_twin_roundtrip_large():
    bits = tuple(i * 7 % 3 % 2 for i in range(2000))
    vec = build_twin_prime_vector(2000)
    score = exact_score(vec, Labeling(bits))
    assert decode_twin_prime(score).bits == bits


@pytest.mark.parametrize(
    "value",
    [
        F(1729, 170) * 7,       # duplicate upper twin factor
        F(1729, 170) / 7,       # missing upper twin factor
        F(1729, 170) * 5,       # stray lower twin in the numerator
        F(1729, 170) / 2,       # power of two off by one
        F(1729, 170) * 2,
        F(1729, 170) * 11,      # lower twin for a point marked 0
        F(1729, 170) / 5,       # lower twin removed
        F(1729 * 23, 170),      # prime from outside the table
        F(170, 1729),           # reciprocal is smaller than 1 on top
        # parts wider than the interpreter's 4300-digit int-to-str cap,
        # which the error message still quotes whole
        F((1 << (1 << 15)) - 1, 2),
        F(7, 2 * 13**5000),
    ],
)
def test_twin_decode_rejects_tampered_values(value):
    with pytest.raises(DecodeError):
        decode_twin_prime_value(value)


# an honest n = 40 score, tampered in ways only a whole-table check meets
_N = 40
_BITS = tuple(i * 5 % 3 % 2 for i in range(_N))
_LOWERS = twin_primes(_N + 4)
_HONEST = exact_score(build_twin_prime_vector(_N), Labeling(_BITS)).value
_ONE = _LOWERS[_BITS.index(1)]


@pytest.mark.parametrize(
    "value,claimed,message",
    [
        pytest.param(
            _HONEST * F(_LOWERS[_N] + 2, 2),
            _N,
            f"score claims n = {_N} but the factorization encodes {_N + 1}",
            id="n-plus-one-uppers",
        ),
        pytest.param(
            _HONEST / (_LOWERS[_N // 2] + 2), _N, "numerator has an unexpected factor",
            id="middle-upper-missing",
        ),
        pytest.param(_HONEST / _ONE, _N, f"denominator contains {_ONE} twice", id="lower-squared"),
        pytest.param(
            _HONEST / _LOWERS[_N], _N, f"denominator has a foreign factor {_LOWERS[_N]}",
            id="lower-beyond-n",
        ),
        pytest.param(
            _HONEST / 1_000_003, _N, "denominator has a foreign factor 1000003",
            id="prime-beyond-table",
        ),
        pytest.param(_HONEST * 2, _N, "power of two .* disagrees", id="two-power-minus-one"),
        pytest.param(_HONEST / 2, _N, "power of two .* disagrees", id="two-power-plus-one"),
    ],
)
def test_twin_decode_rejects_tampering_the_whole_table_meets(value, claimed, message):
    with pytest.raises(DecodeError, match=message):
        decode_twin_prime(ExactScore(value=value, n=claimed))
    if "score claims" not in message:  # with n inferred, n + 1 uppers are honest
        with pytest.raises(DecodeError, match=message):
            decode_twin_prime_value(value)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)))
def test_twin_roundtrip_both_decoders_against_naive_product(bits):
    vec = build_twin_prime_vector(len(bits))
    value = naive_exact_score(vec.entries, bits)
    assert exact_score(vec, Labeling(tuple(bits))).value == value
    assert decode_twin_prime(ExactScore(value=value, n=len(bits))).bits == tuple(bits)
    assert decode_twin_prime_value(value).bits == tuple(bits)


def test_twin_decode_reuses_the_attackers_table():
    n = 777
    vec = build_twin_prime_vector(n)
    score = exact_score(vec, Labeling(tuple(i % 2 for i in range(n))))
    misses = twin_primes.cache_info().misses
    decode_twin_prime(score)
    assert twin_primes.cache_info().misses == misses


def test_bare_twin_decodes_share_tables():
    # honest values off one table, so the decodes are the only table demand
    lowers = twin_primes(300)
    rng = random.Random(5)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 300)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        num = math.prod(p + 2 for p in lowers[:n])
        den = 2 ** bits.count(0) * math.prod(p for p, b in zip(lowers, bits) if b)
        cases.append((F(num, den), bits))
    misses = twin_primes.cache_info().misses
    for value, bits in cases:
        assert decode_twin_prime_value(value).bits == bits
    # at most one table per power of two up to 512, not one per numerator size
    assert twin_primes.cache_info().misses - misses <= 10


def test_twin_vector_numerators_are_the_table():
    # p and p + 2 are coprime, so an entry is p/(p + 2) as it stands
    n = 500
    entries = build_twin_prime_vector(n).entries
    assert all(
        (x.numerator, x.denominator) == (p, p + 2)
        for x, p in zip(entries, twin_primes(n), strict=True)
    )


def test_twin_decode_reads_the_table_in_place():
    # 1.10 MB traced with a list of the uppers and p**1 copies of the lowers,
    # 0.77 MB without, and 0.37 MB with the remainder tree's leaves on runs
    # of _LEAF lowers instead of one leaf per lower
    n = 7000
    bits = tuple(random.Random(3).choices((0, 1), k=n))
    score = exact_score(build_twin_prime_vector(n), Labeling(bits))
    tracemalloc.start()
    try:
        labeling = decode_twin_prime(score)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labeling.bits == bits
    assert peak < 0.5e6


def test_junk_twin_numerator_refused_off_a_short_prefix():
    # 3^1000000 * 7 used to build a table sized by its 1.58M bits, then
    # quote all 477k digits of what was left: 21.8 s through the value path
    value = F(3**1000000 * 7)
    message = (
        r"numerator has an unexpected factor "
        r"\(stuck at 17977101166757438380\.\.\. \(477122 digits, 1584963 bits\)\)$"
    )
    for decode in (decode_twin_prime_value, lambda v: decode_twin_prime(ExactScore(v, 3))):
        began = time.perf_counter()
        with pytest.raises(DecodeError, match=message) as caught:
            decode(value)
        assert time.perf_counter() - began < 1
        assert len(str(caught.value)) < 300


@pytest.mark.parametrize(
    "head,twice,scanned", [(0, False, 64), (64, False, 128), (100, True, 128), (200, False, 256)]
)
def test_junk_twin_numerator_fault_scans_one_doubling_prefix(head, twice, scanned, monkeypatch):
    # the first `head` uppers divide, then 3^125000 stands where the next
    # should, or the last of them divides twice: the first upper that fails
    # lies in the first doubling prefix that does not divide, so only that
    # prefix reaches `remainders`, and it reads as a scan of a longer table
    uppers = [p + 2 for p in twin_primes(256)[:head]]
    numerator = math.prod(uppers) * (uppers[-1] if twice else 1) * 3**125000
    message = str(exact._numerator_fault(numerator, twin_primes(1024)))
    if twice:
        assert message == f"numerator contains {uppers[-1]} twice"
    else:
        assert message.startswith("numerator has an unexpected factor (stuck at 1434960537490496")
    moduli = _spy_remainders(monkeypatch)
    asked = []
    real_twin_primes = exact.twin_primes
    monkeypatch.setattr(exact, "twin_primes", lambda n: asked.append(n) or real_twin_primes(n))
    with pytest.raises(DecodeError) as caught:
        decode_twin_prime_value(F(numerator))
    assert str(caught.value) == message
    assert moduli == [scanned]
    # a refusal costs the prefix, not the bits: no longer table is built
    assert max(asked) == scanned


@pytest.mark.parametrize("where,scanned", [(5, 64), (100, 300), (298, 300)])
def test_late_twin_fault_scans_one_past_the_inferred_n(where, scanned, monkeypatch):
    # a prefix wider than a 64th of the numerator is not tried, so a fault
    # late in an honest-width numerator costs one scan of the first n + 1
    uppers = [p + 2 for p in twin_primes(300)]
    uppers.pop(where)
    numerator = math.prod(uppers)
    moduli = _spy_remainders(monkeypatch)
    with pytest.raises(DecodeError, match="numerator has an unexpected factor") as caught:
        decode_twin_prime_value(F(numerator))
    assert moduli == [scanned]
    assert str(caught.value).endswith(f"(stuck at {math.prod(uppers[where:])})")


def test_twin_denominator_wider_than_any_labeling_refused_unread():
    # an honest n = 3000 numerator over a coprime 8M-bit denominator, whose
    # remainder tree over the lowers would take over a second per decoder
    n = 3000
    numerator = math.prod(p + 2 for p in twin_primes(n))
    value = F(numerator, 2 * ((numerator << 8_000_000) + 1))
    width = value.denominator.bit_length()
    message = f"denominator of {width} bits is wider than {n} points allow"
    for decode in (decode_twin_prime_value, lambda v: decode_twin_prime(ExactScore(v, n))):
        began = time.perf_counter()
        with pytest.raises(DecodeError) as caught:
            decode(value)
        assert time.perf_counter() - began < 1
        assert str(caught.value) == message
    # one bit per point past the numerator is still read, and refused on its merits
    widest = F(numerator, 1 << (numerator.bit_length() + n - 1))
    with pytest.raises(DecodeError, match="power of two .* disagrees"):
        decode_twin_prime_value(widest)


_TAMPERS = ("none", "upper past n", "over upper past n", "over lower labeled 1",
            "prime beyond table", "two", "over two", "upper present")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.sampled_from(_TAMPERS), st.data())
def test_twin_decoders_return_only_a_labeling_that_scores_the_input(n, tamper, data):
    # closure: whatever one tamper does, a decoder either refuses or returns
    # a labeling whose score is exactly the value it was given
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    lowers = twin_primes(316)
    value = naive_exact_score(build_twin_prime_vector(n).entries, bits)
    past = lowers[data.draw(st.integers(n, n + 15))] + 2
    if tamper == "upper past n":
        value *= past
    elif tamper == "over upper past n":
        value /= past
    elif tamper == "over lower labeled 1" and 1 in bits:
        value /= lowers[data.draw(st.sampled_from([i for i, b in enumerate(bits) if b]))]
    elif tamper == "prime beyond table":
        value *= 1_000_003
    elif tamper == "two":
        value *= 2
    elif tamper == "over two":
        value /= 2
    elif tamper == "upper present":
        value *= lowers[data.draw(st.integers(0, n - 1))] + 2
    try:
        labeling = decode_twin_prime_value(value)
    except DecodeError:
        pass
    else:
        entries = build_twin_prime_vector(len(labeling)).entries
        assert naive_exact_score(entries, labeling.bits) == value
    try:
        labeling = decode_twin_prime(ExactScore(value, n))
    except DecodeError:
        pass
    else:
        assert len(labeling) == n
        assert naive_exact_score(build_twin_prime_vector(n).entries, labeling.bits) == value


def _spy_remainders(monkeypatch) -> list[int]:
    """Patch exact.remainders to record how many moduli each call gets."""
    moduli = []
    real = exact.remainders

    def spy(value, mods):
        moduli.append(len(mods))
        return real(value, mods)

    monkeypatch.setattr(exact, "remainders", spy)
    return moduli


# binary construction


def test_binary_vector_entries():
    vec = build_binary_vector(4)
    assert vec.entries == (F(2, 3), F(4, 5), F(16, 17), F(256, 257))


def test_binary_score_exponent_example():
    # labeling 1011 read little-endian is 1 + 4 + 8 = 13
    vec = build_binary_vector(4)
    score = exact_score(vec, Labeling((1, 0, 1, 1)))
    assert score.value == F(2**16 - 1, 2**13)


def test_binary_decode_example():
    score = ExactScore(value=F(2**32 - 1, 2**18), n=5)
    assert decode_binary(score).bits == (0, 1, 0, 0, 1)


def test_binary_decode_n_inferred_from_numerator():
    score = ExactScore(value=F(2**8 - 1, 2**5), n=3)
    assert decode_binary(score).to_string() == "101"


@given(st.lists(st.integers(0, 1), min_size=1, max_size=14))
def test_binary_roundtrip(bits):
    vec = build_binary_vector(len(bits))
    score = exact_score(vec, Labeling(tuple(bits)))
    assert score.value == naive_exact_score(vec.entries, bits)
    assert decode_binary(score).bits == tuple(bits)
    # numerator telescopes regardless of the labeling
    assert score.value.numerator == 2 ** (2 ** len(bits)) - 1


def test_binary_max_n_roundtrip():
    n = BINARY_MAX_N
    bits = tuple((i * i + 1) % 2 for i in range(n))
    score = exact_score(build_binary_vector(n), Labeling(bits))
    assert decode_binary(score).bits == bits


def test_binary_decode_rejects_wrong_numerator():
    with pytest.raises(DecodeError):
        decode_binary(ExactScore(value=F(2**16 - 2, 2**13), n=4))
    with pytest.raises(DecodeError):
        decode_binary(ExactScore(value=F((2**16 - 1) * 3, 2**13), n=4))
    with pytest.raises(DecodeError):
        # right bit length, one zero bit, at a size past 2^26 bits
        decode_binary(ExactScore(coprime_fraction((1 << (1 << 27)) - 3, 1 << 5), 27))


def test_binary_decode_rejects_odd_denominator():
    with pytest.raises(DecodeError):
        decode_binary(ExactScore(value=F(2**16 - 1, 3 * 2**10), n=4))


def test_binary_decode_rejects_out_of_range_exponent():
    # denominator exponent must stay below 2^n
    with pytest.raises(DecodeError):
        decode_binary(ExactScore(value=F(2**16 - 1, 2**16), n=4))


def test_binary_denominator_tampering_is_silent_by_design():
    # unlike the twin construction, scaling the denominator by 2 lands on
    # another valid codeword; honesty checks must use the twin mode
    vec = build_binary_vector(4)
    score = exact_score(vec, Labeling((1, 0, 1, 1)))
    shifted = ExactScore(value=score.value / 2, n=4)
    assert decode_binary(shifted).bits == (0, 1, 1, 1)


# one tamper each: a prime's exponent shifted by one (2 and 3 are factors
# of both constructions' scores, 1_000_003 of neither), the numerator moved
# by one, or numerator and denominator swapped
_SCORE_TAMPERS = (
    None,
    *((p, delta) for p in (2, 3, 1_000_003) for delta in (-1, 1)),
    "numerator + 1",
    "numerator - 1",
    "swapped",
)


def _tamper(score: ExactScore, tamper) -> ExactScore:
    if tamper is None:
        return score
    if isinstance(tamper, tuple):
        return perturb_prime(score, *tamper)
    num, den = score.value.numerator, score.value.denominator
    if tamper == "swapped":
        return ExactScore(F(den, num), score.n)
    return ExactScore(F(num + (1 if tamper == "numerator + 1" else -1), den), score.n)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.sampled_from(_SCORE_TAMPERS))
@example([0] * 12, (1_000_003, -1))  # an odd denominator, its bit length still in range
def test_binary_decoder_returns_only_a_labeling_that_scores_the_input(bits, tamper):
    # closure: the decoder refuses with a typed error or returns a labeling
    # whose own exact score is the value it was given
    score = _tamper(exact_score(build_binary_vector(len(bits)), Labeling(tuple(bits))), tamper)
    try:
        labeling = decode_binary(score)
    except LossProbeError:
        return
    assert naive_exact_score(binary_entries(len(labeling)), labeling.bits) == score.value


def test_binary_limit_enforced():
    with pytest.raises(ValidationError):
        build_binary_vector(BINARY_MAX_N + 1)


# binary construction through the rounded-decimal channel


def _fit_precision(n):
    """The fewest digits at which the planner sends n binary points."""
    return next(phi for phi in range(1, 2000) if _largest_binary_batch(phi) >= n)


def _exponent(labeling):
    return sum(bit << i for i, bit in enumerate(labeling.bits))


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, 2), (3, 3), (5, 4), (8, 5), (64, 21),
        # 4 * 2^n passes 10^13 between n = 41 and 42
        (39, 14), (40, 14), (41, 14), (42, 15),
        (100, 32), (BINARY_DECIMAL_MAX_N, 1235),
    ],
)
def test_required_precision_values(n, expected):
    # the digits of 4 * 2^n, plus one, keep the rounding error of n LL below
    # a quarter step; the planner fits n points there, and each labeling decodes
    assert len(str(4 << n)) + 1 == expected
    assert _largest_binary_batch(expected) >= n
    rng = random.Random(n)
    for bits in ((0,) * n, (1,) * n, tuple(rng.randint(0, 1) for _ in range(n))):
        ll, _ = binary_decimal_response(Labeling(bits), expected)
        assert decode_binary_from_decimal(ll, n).bits == bits


def test_required_precision_matches_per_point_sums():
    # the fewest digits the planner sends n points at, for every n of the
    # decimal route, against C(n) summed one point at a time
    reference = mp_binary_batch_precisions(BINARY_DECIMAL_MAX_N)
    largest = [_largest_binary_batch(phi) for phi in range(1, reference[-1] + 1)]
    fewest = [bisect_left(largest, n) + 1 for n in range(1, BINARY_DECIMAL_MAX_N + 1)]
    assert fewest == reference


def test_largest_binary_batch_at_any_precision():
    # the batch that fits is the count of b whose fewest digits are at most
    # phi; past every b's fewest digits it is the route's cap, even where a
    # unit in the phi-th digit is beyond what Decimal.scaleb reaches
    reference = mp_binary_batch_precisions(BINARY_DECIMAL_MAX_N)
    largest = [_largest_binary_batch(phi) for phi in range(1, 5001)]
    assert largest == [bisect_right(reference, phi) for phi in range(1, 5001)]
    assert _largest_binary_batch(3_000_000) == BINARY_DECIMAL_MAX_N


def test_required_precision_monotone():
    # the fewest digits that fit b points never fall as b grows, so the
    # batches that fit at any precision form a prefix, as the planner's
    # bisection assumes
    values = mp_binary_batch_precisions(BINARY_DECIMAL_MAX_N)
    assert values == sorted(values)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.data())
def test_binary_decimal_roundtrip_small(n, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    phi = _fit_precision(n)
    wire = mp_logloss_wire(binary_entries(n), bits, phi)
    ll = parse_decimal_score(wire, phi, ScoreKind.LOGLOSS)
    assert decode_binary_from_decimal(ll, n).bits == tuple(bits)


@pytest.mark.parametrize("n", [44, 100, 500, BINARY_DECIMAL_MAX_N])
def test_binary_decimal_roundtrip_large(n):
    phi = _fit_precision(n)
    bits = tuple((i * 13 + 5) % 7 % 2 for i in range(n))
    ll, _ = binary_decimal_response(Labeling(bits), phi)
    assert decode_binary_from_decimal(ll, n).bits == bits


@pytest.mark.parametrize("phi", [2, 3, 4, 5])
def test_bin_inversion_matches_enumeration_at_planned_sizes(phi):
    # every labeling of the planner's batch has its own wire, and each wire
    # decodes to its labeling
    b = _largest_binary_batch(phi)
    wires = [exact._binary_ll(b, exponent, phi) for exponent in range(1 << b)]
    assert len({ll.digits for ll in wires}) == 1 << b
    for exponent, ll in enumerate(wires):
        assert _exponent(decode_binary_from_decimal(ll, b)) == exponent


@pytest.mark.parametrize("phi", [4, 5])
def test_one_point_past_the_plan_fails_closed(phi):
    # shared wires raise PrecisionError; every wire that decodes is right
    b = _largest_binary_batch(phi) + 1
    wires = [exact._binary_ll(b, exponent, phi) for exponent in range(1 << b)]
    shared = Counter(ll.digits for ll in wires)
    refused = 0
    for exponent, ll in enumerate(wires):
        try:
            assert _exponent(decode_binary_from_decimal(ll, b)) == exponent
        except PrecisionError:
            refused += 1
        else:
            assert shared[ll.digits] == 1
    assert refused >= sum(count for count in shared.values() if count > 1) > 0


def test_binary_decimal_decode_never_wrong_sweep():
    # all-zero, all-one and near-all-one labelings of 1 to 600 points, each n
    # at a seeded precision up to three digits past 2^n's: the decoder returns
    # the labeling or raises PrecisionError, and decodes wherever the plan sends n
    rng = random.Random(16)
    for n in range(1, 601):
        phi = rng.randint(1, len(str(1 << n)) + 3)
        top = (1 << n) - 1
        for exponent in {0, top, max(top - 1, 0), max(top - rng.randint(1, 9), 0)}:
            bits = tuple((exponent >> i) & 1 for i in range(n))
            ll, _ = binary_decimal_response(Labeling(bits), phi)
            try:
                assert decode_binary_from_decimal(ll, n).bits == bits
            except PrecisionError:
                assert _largest_binary_batch(phi) < n


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_binary_decimal_decoder_returns_only_a_labeling_that_rounds_to_the_input(phi, data):
    # closure for the rounded route: at n <= 12 or the planned batch at phi,
    # an honest or tampered LL wire is refused with a typed error or decodes
    # to a labeling whose own LL is that wire
    planned = st.just(_largest_binary_batch(phi)) if phi > 1 else st.nothing()
    n = data.draw(st.integers(1, 12) | planned)
    bits = Labeling(tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    wire = data.draw(tampered_wires(binary_decimal_response(bits, phi)[0].wire(), phi))
    try:
        ll = parse_decimal_score(wire, phi, ScoreKind.LOGLOSS)
        labeling = decode_binary_from_decimal(ll, n)
    except LossProbeError:
        return
    assert binary_decimal_response(labeling, phi)[0] == ll


def test_binary_decimal_closed_form_matches_entries_path():
    for n in (1, 2, 3, 5, 8, 11):
        entries = binary_entries(n)
        vec = build_binary_vector(n)
        for mask in (0, 1, (1 << n) - 1, (1 << n) // 3):
            bits = tuple((mask >> i) & 1 for i in range(n))
            for phi in (2, 5, 9):
                ll, auc_score = binary_decimal_response(Labeling(bits), phi)
                assert ll == logloss_decimal(vec, Labeling(bits), phi)
                assert ll.wire() == mp_logloss_wire(entries, bits, phi)
                assert auc_score.phi == phi


_LABELINGS = {
    "zeros": lambda n: (0,) * n,
    "ones": lambda n: (1,) * n,
    "alternating": lambda n: tuple(i % 2 for i in range(n)),
    "seeded": lambda n: tuple(random.Random(n).randint(0, 1) for _ in range(n)),
}


# named exact answers: each construction's closed form against general scoring


def _assert_named_exact_is_general(name, labels, text=True):
    named = respond(name, labels, None)
    general = exact_score(exact._CONSTRUCTIONS[name].build(len(labels)), labels)
    assert named == general
    assert type(named.value.numerator) is type(named.value.denominator) is int
    if text:
        assert format_rational(named.value) == format_rational(general.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.data())
def test_named_twin_exact_is_the_general_score(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    _assert_named_exact_is_general("twin", Labeling(tuple((mask >> i) & 1 for i in range(n))))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, BINARY_WIRE_MAX_N), st.data())
def test_named_binary_exact_is_the_general_score(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    _assert_named_exact_is_general("binary", Labeling(tuple((mask >> i) & 1 for i in range(n))))


@pytest.mark.parametrize("pattern", ["zeros", "ones"])
@pytest.mark.parametrize("n", [1, 2, 3000])
def test_named_twin_exact_of_one_class_is_the_general_score(n, pattern):
    _assert_named_exact_is_general("twin", Labeling(_LABELINGS[pattern](n)))


@pytest.mark.parametrize("pattern", ["zeros", "ones", "seeded"])
def test_named_binary_exact_past_the_wire_cap_is_the_general_score(pattern):
    # a numerator of 2^24 bits prints as 5 million digits in about 4 s, so
    # the parts are compared as ints, whose printed bytes then agree
    _assert_named_exact_is_general("binary", Labeling(_LABELINGS[pattern](24)), text=False)


def test_named_exact_refuses_sizes_outside_its_construction():
    with pytest.raises(ValidationError, match="binary construction capped at n = 32"):
        respond("binary", Labeling((0,) * (BINARY_MAX_N + 1)), None)
    with pytest.raises(ValidationError, match="twin-prime construction capped"):
        respond("twin", Labeling((0,) * (TWIN_MAX_N + 1)), None)


@pytest.mark.parametrize("pattern", sorted(_LABELINGS))
@pytest.mark.parametrize("n", [12, 64, 500, BINARY_DECIMAL_MAX_N])
def test_binary_decimal_response_matches_per_point_sums(n, pattern):
    bits = _LABELINGS[pattern](n)
    for phi in (1, 3, 6, 12):
        ll, _ = binary_decimal_response(Labeling(bits), phi)
        assert ll.wire() == mp_binary_logloss_wire(bits, phi)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 40), st.integers(1018, 1030)), st.integers(1, 12), st.data())
def test_binary_double_bracket_matches_decimal_bracket_and_mpmath(n, phi, data):
    # n < 1024 takes the double bracket first, n >= 1024 the Decimal one only
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    exponent = sum(bit << i for i, bit in enumerate(bits))
    ll, _ = binary_decimal_response(Labeling(tuple(bits)), phi)
    decimal_only = _rounded_ll(partial(exact._binary_log, n, exponent), n, phi)
    assert ll == decimal_only
    assert ll.wire() == mp_binary_logloss_wire(bits, phi)


def test_binary_bitmask_conversions_match_the_shift_formulas(monkeypatch):
    # the response's exponent, its doubled rank sum and the decoders' labelings
    # go through binary digits; the shift formulas say what each must be
    monkeypatch.setattr(exact, "_binary_ll", lambda n, exponent, phi: exponent)
    monkeypatch.setattr(exact, "_rounded_auc", lambda value, phi: value)
    rng = random.Random(18)
    seeded = tuple(rng.randint(0, 1) for _ in range(BINARY_DECIMAL_MAX_N))
    # every prefix of an all-zero, an all-one and a seeded labeling, with the
    # shift formulas' sums grown one point at a time
    sums = {pattern: (0, 0, 0) for pattern in ((0,), (1,), seeded)}
    for n in range(1, BINARY_DECIMAL_MAX_N + 1):
        for pattern, (mask, rank2, pos) in sums.items():
            bits = pattern * n if len(pattern) == 1 else pattern[:n]
            bit = bits[-1]
            mask, rank2, pos = mask | bit << (n - 1), rank2 + 2 * n * bit, pos + bit
            sums[pattern] = mask, rank2, pos
            assert binary_decimal_response(Labeling(bits), 1) == (mask, _auc_value(rank2, pos, n))
            assert exact._mask_labeling(mask, n).bits == bits


def test_binary_decimal_path_only_past_a_double(monkeypatch):
    calls = []
    binary_log = exact._binary_log
    monkeypatch.setattr(
        exact, "_binary_log", lambda *args: calls.append(args) or binary_log(*args)
    )
    rng = random.Random(15)
    for _ in range(300):  # named binary documents like the served ones
        bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(8, 256)))
        binary_decimal_response(Labeling(bits), 3)
    assert calls == []
    binary_decimal_response(Labeling((1, 0) * 512), 3)
    assert len(calls) == 1  # 2^1024 is past every double


@pytest.mark.parametrize("n,phi", [(134, 41), (144, 44)])
def test_binary_decimal_decode_fails_closed_below_required_precision(n, phi):
    # too few digits for n points: exponents 0 and 1 share the all-zero wire
    assert _largest_binary_batch(phi) < n
    ll, _ = binary_decimal_response(Labeling((0,) * n), phi)
    with pytest.raises(PrecisionError, match="exponents 0, 1 all round"):
        decode_binary_from_decimal(ll, n)


def test_binary_decimal_ambiguous_digits_detected():
    # seven points step by ln 2 / 7 < 0.1 between exponents, and the LLs of
    # exponents 0 and 1, 12.67 and 12.57, both round to 1.3e1 at two digits
    ll = parse_decimal_score("1.3e1", 2, ScoreKind.LOGLOSS)
    assert [exact._binary_ll(7, e, 2).digits for e in (0, 1)] == ["1.3e1"] * 2
    with pytest.raises(PrecisionError, match="exponents 0, 1 all round to 1.3e1"):
        decode_binary_from_decimal(ll, 7)


def test_binary_decimal_bin_wider_than_four_exponents_refused_unscored(monkeypatch):
    # 1e0 at one digit spans LLs 0.5-1.5: seven exponents of five points
    monkeypatch.setattr(exact, "_binary_ll", lambda *args: pytest.fail("rescored"))
    ll = parse_decimal_score("1e0", 1, ScoreKind.LOGLOSS)
    with pytest.raises(PrecisionError, match="1 digits leave 7 exponents at 1e0"):
        decode_binary_from_decimal(ll, 5)


def test_binary_decimal_candidates_are_rescored():
    # the bin of 1.0e0 widened to 0.95-1.05 holds exponents 8388574-8388576
    # of 23 points; the last two round to 9.9e-1 and 9.6e-1 instead
    bits = tuple((8388574 >> i) & 1 for i in range(23))
    ll, _ = binary_decimal_response(Labeling(bits), 2)
    assert ll.digits == "1.0e0"
    assert decode_binary_from_decimal(ll, 23).bits == bits


def test_binary_decimal_out_of_range_exponent_detected():
    for wire, phi, n in (
        ("1e-2", 1, 4),  # below the all-ones LL
        ("7.5e-1", 2, 20),  # 20 * [0.745, 0.755] / ln 2 holds no integer
        ("9e9", 1, 4),  # above the all-zeros LL
        ("1e-999999999", 1, 10),  # past the decimal context's exponent range
    ):
        ll = parse_decimal_score(wire, phi, ScoreKind.LOGLOSS)
        with pytest.raises(DecodeError, match=f"no exponent of {n} points rounds to {wire}"):
            decode_binary_from_decimal(ll, n)


@given(
    st.text("0123456789", min_size=1, max_size=30).map(lambda d: "1" + d),
    st.one_of(
        st.integers(20, 10**40),  # every LL of 64 or fewer points is below 1e20
        st.integers(-(10**40), -20),
        st.integers(-3, 3).map(lambda k: MAX_EMAX + k),
        st.integers(-3, 3).map(lambda k: -MAX_EMAX + k),
    ),
    st.integers(1, 64),
)
def test_binary_decimal_any_far_exponent_fails_typed(digits, exponent, n):
    # a served LL line is outside input: it must end in a LossProbeError,
    # never in an exception of the decimal module
    wire = f"{digits[0]}.{digits[1:]}e{exponent}"
    with pytest.raises(LossProbeError):
        decode_binary_from_decimal(parse_decimal_score(wire, len(digits), ScoreKind.LOGLOSS), n)


# multiclass construction


def test_multiclass_matrix_rows():
    m = build_multiclass_matrix(2, 3)
    assert m.rows[0] == (F(1, 7), F(2, 7), F(4, 7))
    assert m.rows[1] == (F(1, 13), F(3, 13), F(9, 13))


def test_multiclass_known_scores():
    m = build_multiclass_matrix(2, 3)
    score = exact_score_multiclass(m, ClassLabeling((2, 3), 3))
    assert score.value == F(91, 18)
    assert decode_multiclass(score, 3).classes == (2, 3)
    ones = exact_score_multiclass(m, ClassLabeling((1, 1), 3))
    assert ones.value == F(91, 1)
    assert decode_multiclass(ones, 3).classes == (1, 1)


def test_multiclass_roundtrip_exhaustive_small():
    for n, k in ((1, 2), (2, 3), (3, 4), (2, 5)):
        m = build_multiclass_matrix(n, k)
        seen = set()
        for mask in range(k**n):
            value = mask
            classes = []
            for _ in range(n):
                classes.append(value % k + 1)
                value //= k
            score = exact_score_multiclass(m, ClassLabeling(tuple(classes), k))
            seen.add(score.value)
            assert decode_multiclass(score, k).classes == tuple(classes)
        assert len(seen) == k**n  # injective over all labelings


def test_multiclass_tamper_rejected():
    with pytest.raises(DecodeError, match="does not divide the alpha product"):
        decode_multiclass(ExactScore(value=F(92, 18), n=2), 3)
    with pytest.raises(DecodeError, match="does not divide the alpha product"):
        decode_multiclass(ExactScore(value=F(91 * 5, 18), n=2), 3)
    with pytest.raises(DecodeError, match="exponent of 2 exceeds the class count"):
        # denominator exponent 4 exceeds the k - 1 = 2 a label can produce
        decode_multiclass(ExactScore(value=F(91, 48), n=2), 3)
    with pytest.raises(DecodeError, match="foreign factor 169$"):
        # over-full in 2 and a foreign 13^2 at once: the foreign factor is named first
        decode_multiclass(ExactScore(value=F(91, 18 * 2**4 * 13**2), n=2), 3)
    with pytest.raises(DecodeError, match="foreign factor"):
        # a foreign factor wider than the int-to-str cap
        decode_multiclass(ExactScore(value=F(91, 18 * 13**5000), n=2), 3)


def test_multiclass_all_denominators_are_codewords():
    # reduced denominators enumerate exponent vectors with entries < k,
    # so unlike the twin construction small-prime tampering can land on
    # a valid codeword; 91/12 is honestly (3, 2)
    assert decode_multiclass(ExactScore(value=F(91, 12), n=2), 3).classes == (3, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 20).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(1, k), min_size=1, max_size=40 // k))
    ),
    st.sampled_from(_SCORE_TAMPERS),
)
def test_multiclass_decoder_returns_only_a_labeling_that_scores_the_input(drawn, tamper):
    # closure, as for the binary decoder, over n * k <= 40
    k, classes = drawn
    matrix = build_multiclass_matrix(len(classes), k)
    score = _tamper(exact_score_multiclass(matrix, ClassLabeling(tuple(classes), k)), tamper)
    try:
        labeling = decode_multiclass(score, k)
    except LossProbeError:
        return
    rows = build_multiclass_matrix(len(labeling.classes), k).rows
    assert naive_exact_score_multiclass(rows, labeling.classes) == score.value


def test_multiclass_cell_limit():
    with pytest.raises(ValidationError):
        build_multiclass_matrix(MULTICLASS_MAX_CELLS, 2)


# size guards: each entry point refuses one step past its cap, before any work


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(
            lambda: build_twin_prime_vector(TWIN_MAX_N + 1),
            "twin-prime construction capped at n = 100000",
            id="twin-vector",
        ),
        pytest.param(
            lambda: build_binary_vector(BINARY_MAX_N + 1),
            "binary construction capped at n = 32",
            id="binary-vector",
        ),
        pytest.param(
            lambda: decode_binary(ExactScore(F(3, 2), BINARY_MAX_N + 1)),
            "binary construction capped at n = 32",
            id="binary-decode",
        ),
        pytest.param(
            lambda: decode_binary_from_decimal(
                parse_decimal_score("1.0e0", 2, ScoreKind.LOGLOSS), BINARY_DECIMAL_MAX_N + 1
            ),
            "binary decimal route capped at n = 4096",
            id="binary-decimal-decode",
        ),
        pytest.param(
            lambda: binary_decimal_response(Labeling((0,) * (BINARY_DECIMAL_MAX_N + 1)), 5),
            "binary decimal route capped at n = 4096",
            id="binary-decimal-response",
        ),
        pytest.param(
            lambda: build_multiclass_matrix(1, MULTICLASS_MAX_CELLS + 1),
            "multi-class construction capped at n \\* k = 10000",
            id="multiclass-matrix",
        ),
        pytest.param(
            lambda: decode_multiclass(ExactScore(value=F(1), n=1), MULTICLASS_MAX_CELLS + 1),
            "multi-class construction capped at n \\* k = 10000",
            id="multiclass-decode",
        ),
        pytest.param(
            # the guard refuses before the curated 12-point vector is consulted
            lambda: build_tuple_lookup(LOOKUP_MAX_BATCH + 1, 3),
            "exceeds the enumeration guard of 16",
            id="tuple-lookup",
        ),
        pytest.param(
            # the request path behind `score` and `oracle-serve`
            lambda: _respond(
                {"kind": "binary", "n": BINARY_WIRE_MAX_N + 1},
                Labeling((0,) * (BINARY_WIRE_MAX_N + 1)),
                None,
            ),
            "exact binary responses are capped at n = 16 on the wire; use decimal mode",
            id="score-binary-wire",
        ),
    ],
)
def test_size_guard_rejects_one_past_its_cap(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_binary_decode_refuses_a_huge_n_before_any_work():
    # 1 << n for the claimed n once traced 13.3 MB here before a DecodeError
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="capped at n = 32"):
            decode_binary(ExactScore(F(3, 2), 10**8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1e6
