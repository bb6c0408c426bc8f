"""Exact scores, rounding, and serialization against independent oracles."""

import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def test_round_fraction_sig_rejects_negative():
    with pytest.raises(ValidationError):
        round_fraction_sig(F(-1, 2), 2)
    with pytest.raises(ValidationError):
        round_fraction_sig(F(1, 2), 0)


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


def test_parse_rational_rejections():
    for bad in ("abc", "1/0", "-3/4", "0", "0/5", "1/2/3", "", 1, None, ["1/2"]):
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
