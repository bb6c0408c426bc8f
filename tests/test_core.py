"""Exact scores, rounding, and serialization against independent oracles."""

import random
import sys
import threading
from decimal import MAX_EMAX, ROUND_DOWN, Context, Decimal, DefaultContext, Inexact, localcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from lossprobe import core
from lossprobe.core import (
    ClassLabeling,
    DecimalScore,
    ExactScore,
    Labeling,
    PredictionMatrix,
    PredictionVector,
    ScoreKind,
    auc,
    auc_exact,
    exact_score,
    exact_score_multiclass,
    format_rational,
    logloss_decimal,
    parse_decimal_score,
    parse_rational,
    round_fraction_sig,
)
from lossprobe.errors import ValidationError
from lossprobe.exact import binary_decimal_response
from lossprobe.precision import curated_batch_vector
from lossprobe.primes import twin_primes

from conftest import (
    fraction_sig_wire,
    mp_logloss_wire,
    naive_auc,
    naive_exact_score,
    naive_exact_score_multiclass,
    proper_fractions,
    vectors_with_labels,
)

F = Fraction


# exact scores


@given(vectors_with_labels())
def test_exact_score_matches_naive_product(case):
    entries, labels = case
    score = exact_score(PredictionVector(tuple(entries)), Labeling(tuple(labels)))
    assert score.value == naive_exact_score(entries, labels)
    assert score.n == len(entries)


# entries over (2^k + 1) * 2^j: their odd denominator parts take the shift-and-add fold
_folded_denominators = st.builds(
    lambda k, j: ((1 << k) + 1) << j, st.integers(1, 70), st.integers(0, 3)
)
_folded_entries = _folded_denominators.flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: F(num, den))
)


@given(
    st.lists(st.one_of(proper_fractions, _folded_entries), min_size=1, max_size=10).flatmap(
        lambda es: st.tuples(
            st.just(es), st.lists(st.integers(0, 1), min_size=len(es), max_size=len(es))
        )
    )
)
def test_exact_score_with_folded_denominators_matches_naive_product(case):
    entries, labels = case
    score = exact_score(PredictionVector(tuple(entries)), Labeling(tuple(labels)))
    assert score.value == naive_exact_score(entries, labels)


def test_exact_score_reduced():
    score = exact_score(
        PredictionVector((F(1, 4), F(1, 4))), Labeling((1, 1))
    )
    assert score.value == F(16, 1)
    assert score.value.denominator == 1


def test_exact_score_length_mismatch():
    with pytest.raises(ValidationError):
        exact_score(PredictionVector((F(1, 2),)), Labeling((1, 0)))


def test_prediction_vector_rejects_endpoints():
    for bad in (F(0), F(1), F(-1, 2), F(3, 2)):
        with pytest.raises(ValidationError):
            PredictionVector((bad,))


def test_exact_score_requires_positive_n():
    with pytest.raises(ValidationError):
        ExactScore(value=F(3, 2), n=0)
    with pytest.raises(ValidationError):
        ExactScore(value=F(-1, 2), n=1)
    # n is exactly an int: a bool or a float is no dataset size
    with pytest.raises(ValidationError, match="positive dataset size"):
        ExactScore(F(7, 2), True)
    with pytest.raises(ValidationError, match="positive dataset size"):
        ExactScore(F(7, 2), 2.5)


@given(st.integers(1, 5), st.integers(2, 4), st.data())
def test_multiclass_score_matches_naive(n, k, data):
    rows = []
    for _ in range(n):
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, 19), min_size=k - 1, max_size=k - 1, unique=True
                )
            )
        )
        bounds = [0, *cuts, 20]
        rows.append(
            tuple(F(bounds[j + 1] - bounds[j], 20) for j in range(k))
        )
    classes = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    matrix = PredictionMatrix(tuple(rows))
    score = exact_score_multiclass(matrix, ClassLabeling(tuple(classes), k))
    assert score.value == naive_exact_score_multiclass(rows, classes)
    assert score.n == n


def test_prediction_matrix_rows_must_sum_to_one():
    with pytest.raises(ValidationError):
        PredictionMatrix(((F(1, 3), F(1, 3)),))


# rounding to significant digits


@pytest.mark.parametrize(
    "value,phi,expected",
    [
        (F(1, 8), 2, "1.2e-1"),  # tie 0.125 rounds to even
        (F(135, 1000), 2, "1.4e-1"),
        (F(995, 1000), 2, "1.0e0"),  # carry into the next decade
        (F(1, 4), 1, "2e-1"),
        (F(3, 4), 1, "8e-1"),
        (F(1, 3), 3, "3.33e-1"),
        (F(2, 3), 3, "6.67e-1"),
        (F(1), 2, "1.0e0"),
        (F(0), 2, "0.0e0"),
        (F(2469, 2), 3, "1.23e3"),
        (F(1, 2), 1, "5e-1"),
    ],
)
def test_round_fraction_sig_cases(value, phi, expected):
    assert round_fraction_sig(value, phi) == expected


@given(
    st.fractions(min_value=0, max_value=1000, max_denominator=10**6),
    st.integers(1, 6),
)
def test_round_fraction_sig_matches_decimal_reference(value, phi):
    assert round_fraction_sig(value, phi) == fraction_sig_wire(value, phi)


@pytest.mark.parametrize(
    "value,phi,expected",
    [
        (F(10**5000, 3), 3, "3.33e4999"),
        (F(2, 3 * 10**5000), 3, "6.67e-5001"),
        (F(10**5001 - 1, 10**5001), 2, "1.0e0"),  # carry into the next decade
        (F(7**6000, 3), 4, None),
        (F(3, 7**6000), 4, None),
        (F(11**5000, 7**6000), 5, None),
    ],
)
def test_round_fraction_sig_past_the_digit_cap(value, phi, expected):
    # parts of 5000 digits or more, past the interpreter's default cap of 4300
    wire = round_fraction_sig(value, phi)
    assert wire == fraction_sig_wire(value, phi)
    assert expected is None or wire == expected


def test_round_fraction_sig_rejects_negative():
    with pytest.raises(ValidationError):
        round_fraction_sig(F(-1, 2), 2)
    with pytest.raises(ValidationError):
        round_fraction_sig(F(1, 2), 0)


def _assert_half_even_wire(value: Fraction, phi: int, wire: str) -> None:
    """The wire M * 10^k is value rounded half-even to phi digits, in integers alone."""
    mantissa, _, exponent = wire.partition("e")
    m = int(mantissa.replace(".", ""))
    k = int(exponent) - (phi - 1)
    assert len(str(m)) == phi
    unit = F(10) ** k
    twice_error = 2 * abs(value - m * unit)
    assert twice_error <= unit
    assert twice_error < unit or m % 2 == 0


@st.composite
def _rounding_sources(draw):
    """(value, phi): exact half-even ties, decade carries, and parts of 5000+ digits."""
    phi = draw(st.integers(1, 40))
    scale = F(10) ** draw(st.integers(-60, 60))
    kind = draw(st.sampled_from(("tie", "carry", "wide")))
    if kind == "tie":
        # m.5 with m of phi digits sits exactly between two phi-digit wires
        m = draw(st.integers(10 ** (phi - 1), 10**phi - 1))
        return F(2 * m + 1, 2) * scale, phi
    if kind == "carry":
        return (1 - F(1, 10 ** draw(st.integers(1, 60)))) * scale, phi
    a, b, c, d = (draw(st.integers(1, 10**30)) for _ in range(4))
    p, q = a * 7**6000 + b, c * 3**11000 + d  # 5071 and 5249 digits and up
    return (F(p, q) if draw(st.booleans()) else F(q, p)) * scale, phi


@given(_rounding_sources())
@settings(max_examples=300, deadline=None)
def test_round_fraction_sig_is_half_even_by_integers(case):
    # no decimal arithmetic here: round_fraction_sig and fraction_sig_wire both divide in decimal
    value, phi = case
    _assert_half_even_wire(value, phi, round_fraction_sig(value, phi))


def test_wires_ignore_the_thread_decimal_context():
    vec = PredictionVector((F(1, 5), F(2, 5), F(2, 5), F(3, 5), F(4, 7)))
    labels = Labeling((0, 1, 0, 1, 1))
    rng = random.Random(19)
    binary = [Labeling(tuple(rng.randint(0, 1) for _ in range(n))) for n in (3, 8, 16, 30)]

    def wires():
        return (
            [auc(vec, labels, phi).wire() for phi in (1, 2, 3, 7)],
            round_fraction_sig(F(10**5000, 3), 3),
            [[s.wire() for s in binary_decimal_response(b, 3)] for b in binary],
        )

    expected = wires()
    # 11/12 with one tie: ROUND_DOWN at two digits would write 9.1e-1, not 9.2e-1
    assert expected[0] == ["9e-1", "9.2e-1", "9.17e-1", "9.166667e-1"]
    assert expected[1] == "3.33e4999"
    foreign = Context(prec=2, rounding=ROUND_DOWN, Emax=10, Emin=-10)
    with localcontext(foreign):
        assert wires() == expected


def test_wires_ignore_the_default_decimal_context():
    # Context() copies each field it is not given from DefaultContext, which a
    # process may set for its new threads: a trap set there must not fire
    expected = round_fraction_sig(F(1, 3), 2)
    DefaultContext.traps[Inexact] = True
    core._context.cache_clear()
    try:
        assert round_fraction_sig(F(1, 3), 2) == expected
    finally:
        DefaultContext.traps[Inexact] = False
        core._context.cache_clear()


# log loss


@pytest.mark.parametrize(
    "phi,expected",
    [(1, "4e-1"), (2, "4.1e-1"), (3, "4.15e-1"), (4, "4.149e-1")],
)
def test_logloss_known_vector(phi, expected):
    vec = PredictionVector((F(1, 5), F(2, 5), F(3, 5)))
    got = logloss_decimal(vec, Labeling((0, 0, 1)), phi)
    assert got.digits == expected
    assert got.kind is ScoreKind.LOGLOSS
    assert got.phi == phi


def test_logloss_single_coin_is_ln_two():
    vec = PredictionVector((F(1, 2),))
    for bit in (0, 1):
        assert logloss_decimal(vec, Labeling((bit,)), 3).digits == "6.93e-1"


@settings(max_examples=40)
@given(vectors_with_labels(max_size=6), st.integers(1, 8))
def test_logloss_matches_mpmath(case, phi):
    entries, labels = case
    mine = logloss_decimal(
        PredictionVector(tuple(entries)), Labeling(tuple(labels)), phi
    ).digits
    assert mine == mp_logloss_wire(entries, labels, phi)


@pytest.mark.parametrize("offset,expected", [("3e-13", "3e-1"), ("-3e-13", "2e-1")])
def test_logloss_rounds_once_next_to_a_tie(offset, expected):
    # -ln x is 0.25 + offset to within 1e-39, a hair off the half-even
    # boundary between 2e-1 and 3e-1: rounding first to 12 digits would
    # land on 0.25 itself and round both to 2e-1
    with localcontext() as ctx:
        ctx.prec = 40
        x = F((-Decimal("0.25") - Decimal(offset)).exp())
    got = logloss_decimal(PredictionVector((x,)), Labeling((1,)), 1).wire()
    assert got == expected == mp_logloss_wire([x], [1], 1)


def _decimal_only(entries, labels, phi) -> str:
    """The wire from _rounded_ll's Decimal bracket alone, without the double one."""
    score = exact_score(PredictionVector(tuple(entries)), Labeling(tuple(labels)))
    return core._rounded_ll(partial(core._ln_fraction, score.value), score.n, phi).wire()


with localcontext() as _ctx:
    _ctx.prec = 60
    _X_AT_TIE = F(Decimal("-1.000000000055e-3").exp())


@st.composite
def near_tie_vectors(draw):
    """Entries whose LL, -ln x, is within 1e-12 of a half-even tie at phi digits.

    x carries 60 digits, far below every offset drawn; k copies of x labeled
    1 and k of 1 - x labeled 0 keep the LL and widen the exact score.
    """
    phi = draw(st.integers(1, 12))
    mantissa = draw(st.integers(10 ** (phi - 1), 10**phi - 1))
    tie = (Decimal(2 * mantissa + 1) / 2).scaleb(draw(st.integers(-3, 1)) - phi + 1)
    offset = Decimal(draw(st.integers(-999, 999)) or 1).scaleb(-draw(st.integers(15, 30)))
    with localcontext() as ctx:
        ctx.prec = 60
        x = F((-(tie + offset)).exp())
    k = draw(st.integers(1, 4))
    return [x] * k + [1 - x] * k, [1] * k + [0] * k, phi


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(vectors_with_labels(), st.integers(1, 12)).map(lambda c: (*c[0], c[1])),
        near_tie_vectors(),
    )
)
# an offset of 5e-14 lands on the next tie, 1.000000000055e-3: x rounded to
# 60 digits leaves the log loss 1e-64 below it, so a fixed-precision
# reading rounds up where the exact value rounds down
@example(case=([_X_AT_TIE, 1 - _X_AT_TIE], [1, 0], 12))
def test_logloss_double_bracket_matches_decimal_bracket_and_mpmath(case):
    entries, labels, phi = case
    wire = logloss_decimal(PredictionVector(tuple(entries)), Labeling(tuple(labels)), phi).wire()
    assert wire == _decimal_only(entries, labels, phi)
    assert wire == mp_logloss_wire(entries, labels, phi)


def test_logloss_decimal_path_only_next_to_a_tie(monkeypatch):
    calls = []
    ln_fraction = core._ln_fraction
    monkeypatch.setattr(
        core, "_ln_fraction", lambda *args: calls.append(args) or ln_fraction(*args)
    )
    # within 1e-17 of the ties 0.25 (phi 1) and 1.2345 (phi 5): the double
    # bracket cannot decide, so the Decimal one does
    for tie, phi in (("0.25", 1), ("1.2345", 5)):
        for offset in ("1e-17", "-1e-17"):
            with localcontext() as ctx:
                ctx.prec = 60
                x = F((-Decimal(tie) - Decimal(offset)).exp())
            got = logloss_decimal(PredictionVector((x,)), Labeling((1,)), phi).wire()
            assert got == mp_logloss_wire([x], [1], phi)
    assert len(calls) == 4
    calls.clear()
    # every labeling of every curated prefix at its own precision
    for phi in (1, 2, 3):
        curated = curated_batch_vector(phi)
        for b in range(1, len(curated) + 1):
            vec = PredictionVector(curated[:b])
            for mask in range(1 << b):
                logloss_decimal(vec, Labeling(tuple((mask >> i) & 1 for i in range(b))), phi)
    # twin and random entry lists like the served ones, at phi 3
    rng = random.Random(15)
    twins = twin_primes(1024)
    for _ in range(300):
        size = rng.randint(8, 64)
        start = rng.randrange(len(twins) - size)
        twin = [F(p, p + 2) for p in twins[start : start + size]]
        dens = [rng.randint(3, 1000) for _ in range(rng.randint(2, 12))]
        for entries in (twin, [F(rng.randint(1, d - 1), d) for d in dens]):
            labels = Labeling(tuple(rng.randint(0, 1) for _ in entries))
            logloss_decimal(PredictionVector(tuple(entries)), labels, 3)
    assert calls == []


# AUC


@given(st.integers(1, 8), st.data())
def test_auc_matches_pair_counting(n, data):
    # small denominators force ties between entries regularly
    entries = data.draw(
        st.lists(
            st.integers(1, 7).map(lambda k: F(k, 8)), min_size=n, max_size=n
        )
    )
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    assert auc_exact(
        PredictionVector(tuple(entries)), Labeling(tuple(labels))
    ) == naive_auc(entries, labels)


@given(st.integers(2, 16), st.integers(1, 6), st.data())
def test_auc_wire_matches_pair_counting_with_ties(n, phi, data):
    # quarters and halves, so most points share their entry with others
    entries = data.draw(
        st.lists(st.sampled_from((F(1, 4), F(1, 2), F(2, 4), F(3, 4))), min_size=n, max_size=n)
    )
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    expected = naive_auc(entries, labels)
    got = auc(PredictionVector(tuple(entries)), Labeling(tuple(labels)), phi).wire()
    assert got == ("ND" if expected is None else fraction_sig_wire(expected, phi))


def test_auc_orders_entries_a_double_cannot_tell_apart():
    # equal as doubles, distinct as rationals: only the exact order ranks them
    low, high = F(1, 3), F(1, 3) + F(1, 10**30)
    assert float(low) == float(high)
    entries = [high, low, low, high]
    for mask in range(16):
        bits = tuple((mask >> i) & 1 for i in range(4))
        got = auc_exact(PredictionVector(tuple(entries)), Labeling(bits))
        assert got == naive_auc(entries, bits)


def test_auc_tie_gets_half_credit():
    entries = [F(1, 2), F(1, 2), F(3, 4)]
    vec = PredictionVector(tuple(entries))
    assert auc_exact(vec, Labeling((1, 0, 1))) == F(3, 4)
    assert auc_exact(vec, Labeling((0, 1, 0))) == F(1, 4)


def test_auc_reversal_symmetry():
    entries = [F(1, 5), F(2, 5), F(3, 5), F(2, 5)]
    vec = PredictionVector(tuple(entries))
    labels = (0, 1, 1, 0)
    flipped = tuple(1 - b for b in labels)
    a = auc_exact(vec, Labeling(labels))
    b = auc_exact(vec, Labeling(flipped))
    assert a + b == 1


def test_auc_undefined_for_single_class():
    vec = PredictionVector((F(1, 5), F(2, 5)))
    for bits in ((1, 1), (0, 0)):
        assert auc_exact(vec, Labeling(bits)) is None
        rounded = auc(vec, Labeling(bits), 2)
        assert rounded.kind is ScoreKind.AUC_NOT_DEFINED
        assert rounded.wire() == "ND"


def test_auc_wire_values():
    vec = PredictionVector((F(1, 5), F(2, 5), F(3, 5)))
    assert auc(vec, Labeling((0, 0, 1)), 2).wire() == "1.0e0"
    assert auc(vec, Labeling((1, 0, 0)), 2).wire() == "0.0e0"
    assert auc(vec, Labeling((0, 1, 0)), 2).wire() == "5.0e-1"


# labelings


def test_labeling_string_roundtrip():
    lab = Labeling.from_string("10110")
    assert lab.bits == (1, 0, 1, 1, 0)
    assert lab.to_string() == "10110"


def test_labeling_rejects_garbage():
    for bad in ("", "012", "1 0"):
        with pytest.raises(ValidationError):
            Labeling.from_string(bad)
    with pytest.raises(ValidationError):
        Labeling(())


def test_class_labeling_roundtrip():
    lab = ClassLabeling.from_string("2,3", 3)
    assert lab.classes == (2, 3)
    assert lab.to_string() == "2,3"
    with pytest.raises(ValidationError):
        ClassLabeling.from_string("0,1", 3)
    with pytest.raises(ValidationError):
        ClassLabeling.from_string("4", 3)
    with pytest.raises(ValidationError):
        ClassLabeling.from_string("a,b", 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Labeling((True, False, True)),
        lambda: Labeling((1.0, 0.0, 1.0)),
        lambda: Labeling((1, 0, [1])),
        lambda: ClassLabeling((1.5, 2), 2),
        lambda: ClassLabeling((True, 2), 2),
        lambda: ClassLabeling((1, 2), 2.0),
    ],
    ids=["bool bits", "float bits", "list bit", "float class", "bool class", "float k"],
)
def test_labels_must_be_ints(build):
    # a bool or a float equal to 0, 1 or a class passed the value checks, and
    # failed later: to_string wrote 'TrueFalseTrue', scoring raised TypeError
    with pytest.raises(ValidationError, match="bits must be 0 or 1|lie in 1..k|two classes"):
        build()


# rational wire format


@given(
    st.integers(1, 10**30),
    st.integers(1, 10**30),
)
def test_rational_roundtrip(num, den):
    value = F(num, den)
    assert parse_rational(format_rational(value)) == value


def test_rational_roundtrip_past_interpreter_digit_cap():
    # 7**6000 has about 5071 digits, past the default 4300-digit str cap;
    # the cap is widened for each conversion only, never for the process
    value = F(7**6000, 3)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = format_rational(value)
        assert sys.get_int_max_str_digits() == 4300
        assert len(text) > 4300
        assert parse_rational(text) == value
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize(
    "value",
    [2**32768 - 1, 2**32768, 10**20000 - 1, 10**20000, 3**50000 * 7, F(2**40000 + 1, 3)],
    ids=["2^32768-1", "2^32768", "10^20000-1", "10^20000", "3^50000*7", "(2^40000+1)/3"],
)
def test_messages_quote_a_wide_part_by_its_leading_digits_and_size(value):
    # str() is quadratic in the length, so past 2^15 bits a part is quoted
    # by its first 20 digits and its size; up to it, in full
    value = F(value)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parts = [(x, str(x)) for x in (value.numerator, value.denominator)]
    finally:
        sys.set_int_max_str_digits(previous)
    expected = [
        text if x.bit_length() <= 1 << 15
        else f"{text[:20]}... ({len(text)} digits, {x.bit_length()} bits)"
        for x, text in parts
    ]
    assert core._wide_str(value) == "/".join(expected[:1] if value.denominator == 1 else expected)


def _without_limit(convert, values):
    """[convert(v) for v in values] with the interpreter's digit limit off."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [convert(v) for v in values]
    finally:
        sys.set_int_max_str_digits(previous)


def _p_q(value):
    return f"{value.numerator}/{value.denominator}"


# 10^k - 1, 10^k and 10^k + 1 around the 600-digit reading leaf, and
# 2^k - 1, 2^k and 2^k + 1 around the 2000-bit writing leaf, then wide values
_LEAF_EDGES = [
    base + d
    for base in (10**599, 10**600, 10**601, 10**1200, 2**1999, 2**2000, 2**2001, 2**4000)
    for d in (-1, 0, 1)
]
_WIDE = [2**65536 - 1, 7**6000, 10**20000 + 1, 3**50000 * 7]


def test_wide_parts_convert_without_touching_the_digit_limit(monkeypatch):
    # under the lowest limit an interpreter accepts, with the setter gone:
    # a conversion that widened the limit, even for a moment, fails here
    values = [F(v) for v in _LEAF_EDGES + _WIDE] + [F(7**6000, 3), F(2**65536 - 1, 10**5000)]
    expected = _without_limit(_p_q, values)
    quoted = [core._wide_str(v) for v in values]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)

    def refuse(maxdigits):
        raise AssertionError(f"the digit limit was set to {maxdigits}")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    try:
        for value, text, quote in zip(values, expected, quoted):
            assert format_rational(value) == text
            assert parse_rational(text) == value
            assert core._wide_str(value) == quote
        assert sys.get_int_max_str_digits() == 640
    finally:
        monkeypatch.undo()
        sys.set_int_max_str_digits(previous)


def test_wide_conversions_from_threads_leave_the_digit_limit_alone():
    # four threads round-trip 5k-20k-digit values under a 640-digit limit;
    # a widening that restores the limit races with the others' widenings
    rng = random.Random(26)
    values = [F(rng.getrandbits(rng.randint(16600, 66400)) | 1, rng.getrandbits(16600) | 1)
              for _ in range(16)]
    texts = _without_limit(_p_q, values)
    previous, interval = sys.get_int_max_str_digits(), sys.getswitchinterval()
    seen_limits, errors = set(), []

    def work(offset):
        try:
            for _ in range(3):
                for i in range(offset, len(values), 4):
                    assert format_rational(values[i]) == texts[i]
                    assert parse_rational(texts[i]) == values[i]
                    seen_limits.add(sys.get_int_max_str_digits())
        except Exception as exc:  # reported below, with the thread's work
            errors.append(repr(exc))

    sys.set_int_max_str_digits(640)
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert (errors, seen_limits, sys.get_int_max_str_digits()) == ([], {640}, 640)
    finally:
        sys.setswitchinterval(interval)
        sys.set_int_max_str_digits(previous)


# digit strings up to ~30k long, of random stretches and runs of zeros and
# nines, so that the halves both conversions split at often start or end
# in a run (a leading-zero half, a carry across a split)
_DIGIT_RUNS = st.lists(
    st.one_of(
        st.integers(1, 8000).map(lambda k: "0" * k),
        st.integers(1, 8000).map(lambda k: "9" * k),
        st.integers(0, 10**4000).map(str),
    ),
    min_size=1,
    max_size=16,
).map(lambda runs: "".join(runs)[:30000])


@settings(max_examples=40, deadline=None)
@given(_DIGIT_RUNS, _DIGIT_RUNS.filter(lambda d: d.strip("0")))
def test_wide_rationals_match_str_at_any_width(p_digits, q_digits):
    p_digits = "1" + p_digits  # a positive numerator
    value = F(*_without_limit(int, (p_digits, q_digits)))
    [expected] = _without_limit(_p_q, [value])
    assert parse_rational(f"{p_digits}/{q_digits}") == value
    assert format_rational(value) == expected
    foreign = Context(prec=2, rounding=ROUND_DOWN, Emax=10, Emin=-10)
    with localcontext(foreign):
        assert format_rational(value) == expected
        assert parse_rational(expected) == value


def test_parse_rational_rejections():
    for bad in ("abc", "1/0", "-3/4", "0", "0/5", "1/2/3", "", 1, None, ["1/2"],
                "1_0/3", " 5/7", "+5/7", "5/ 7", "\u0665/7"):
        with pytest.raises(ValidationError):
            parse_rational(bad)


def test_format_rational_keeps_reduced_form():
    assert format_rational(F(1729, 170)) == "1729/170"
    assert format_rational(F(4, 2)) == "2/1"


# rounded score wire format


@pytest.mark.parametrize("text,phi", [("4.1e-1", 2), ("6.93e-1", 3), ("1e0", 1), ("5e-1", 1)])
def test_parse_decimal_score_roundtrip(text, phi):
    score = parse_decimal_score(text, phi, ScoreKind.LOGLOSS)
    assert score.wire() == text
    assert score.phi == phi


def test_parse_decimal_score_nd_only_for_auc():
    nd = parse_decimal_score("ND", 2, ScoreKind.AUC)
    assert nd.kind is ScoreKind.AUC_NOT_DEFINED
    assert nd.wire() == "ND"
    with pytest.raises(ValidationError):
        parse_decimal_score("ND", 2, ScoreKind.LOGLOSS)


def test_parse_decimal_score_rejections():
    with pytest.raises(ValidationError):
        parse_decimal_score("4.12e-1", 2, ScoreKind.LOGLOSS)  # wrong digit count
    for bad in ("", "4.1", "e-1", "4.1e", "-4.1e-1", "4.1E-1", "0.41"):
        with pytest.raises(ValidationError):
            parse_decimal_score(bad, 2, ScoreKind.LOGLOSS)


def test_parse_decimal_score_bounds_the_exponent():
    for exponent in (MAX_EMAX, -MAX_EMAX):
        assert parse_decimal_score(f"1.5e{exponent}", 2, ScoreKind.LOGLOSS).phi == 2
    # past MAX_EMAX, Decimal() raises InvalidOperation; 5000 digits would trip int()
    for exponent in (MAX_EMAX + 1, -MAX_EMAX - 1, 10**20, -(10**20), "9" * 5000):
        with pytest.raises(ValidationError, match="exponent past"):
            parse_decimal_score(f"1.5e{exponent}", 2, ScoreKind.LOGLOSS)
    # in range, but padded with zeros no wire is written with
    with pytest.raises(ValidationError, match="not a 2-digit logloss wire"):
        parse_decimal_score(f"1.5e-000{MAX_EMAX}", 2, ScoreKind.LOGLOSS)


@pytest.mark.parametrize("phi", [1, 2, 3])
def test_parse_decimal_score_zero_is_an_auc_only(phi):
    # an AUC of 0 is written from a double, and a log loss is never 0
    zero = round_fraction_sig(F(0), phi)
    assert parse_decimal_score(zero, phi, ScoreKind.AUC).wire() == zero
    with pytest.raises(ValidationError, match=f"not a {phi}-digit logloss wire"):
        parse_decimal_score(zero, phi, ScoreKind.LOGLOSS)


def test_decimal_score_equality_is_string_equality():
    a = DecimalScore(digits="5.0e-1", phi=2, kind=ScoreKind.AUC)
    b = DecimalScore(digits="5.0e-1", phi=2, kind=ScoreKind.AUC)
    assert a == b
    assert a != DecimalScore(digits="5.1e-1", phi=2, kind=ScoreKind.AUC)


def test_decimal_score_validation():
    with pytest.raises(ValidationError):
        DecimalScore(digits="", phi=2, kind=ScoreKind.AUC)
    with pytest.raises(ValidationError):
        DecimalScore(digits="5.0e-1", phi=2, kind=ScoreKind.AUC_NOT_DEFINED)
    with pytest.raises(ValidationError):
        DecimalScore(digits="5.0e-1", phi=0, kind=ScoreKind.AUC)


@given(vectors_with_labels(max_size=5), st.integers(1, 5))
def test_logloss_wire_parses_back(case, phi):
    entries, labels = case
    score = logloss_decimal(PredictionVector(tuple(entries)), Labeling(tuple(labels)), phi)
    again = parse_decimal_score(score.wire(), phi, ScoreKind.LOGLOSS)
    assert again == score
