"""Fixed-precision channel: capacity bounds, lookup tables, batched recovery."""

from decimal import ROUND_DOWN, ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lossprobe import precision
from lossprobe.core import (
    DecimalScore,
    Labeling,
    PredictionVector,
    ScoreKind,
    auc,
    logloss_decimal,
)
from lossprobe.errors import (
    DecodeError,
    LookupBuildError,
    ValidationError,
)
from lossprobe.exact import BINARY_DECIMAL_MAX_N, binary_decimal_response, decode_binary_from_decimal
from lossprobe.mia import MembershipVector, curator_oracle
from lossprobe.precision import (
    batched_inference,
    build_tuple_lookup,
    curated_batch_vector,
    max_unique_batch,
    min_digits_for_separation,
    plan_batches,
    query_bound,
    tuple_lookup_for,
)

from conftest import (
    fraction_sig_wire,
    mp_binary_batch_precisions,
    mp_logloss_wire,
    naive_auc,
)

F = Fraction


# separation and capacity arithmetic


@pytest.mark.parametrize(
    "delta,expected",
    [
        (0.2, 1),
        (0.002, 3),
        (1, 0),
        (2, 0),
        (F(1, 500), 3),
        (0.001, 3),
        (0.0011, 3),
        ("1/1000", 3),
        (F(1, 10**12), 12),
        ("1e-5000", 5000),
        (F(1, 10**200000), 200000),
        (F(1, 10**200000 + 1), 200001),
        (F(1, 10**200000 - 1), 200000),
    ],
)
def test_min_digits_examples(delta, expected):
    assert min_digits_for_separation(delta) == expected


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_min_digits_defining_inequality(p, q):
    gap = F(p, q)
    k = min_digits_for_separation(gap)
    assert gap * 10**k >= 1
    if k > 0:
        assert gap * 10 ** (k - 1) < 1


def test_min_digits_rejects_bad_input():
    with pytest.raises(ValidationError):
        min_digits_for_separation(0)
    with pytest.raises(ValidationError):
        min_digits_for_separation(-0.5)
    with pytest.raises(ValidationError):
        min_digits_for_separation("abc")


@pytest.mark.parametrize("phi,expected", [(1, 6), (2, 13), (15, 99)])
def test_max_unique_batch_examples(phi, expected):
    assert max_unique_batch(phi) == expected


def test_max_unique_batch_is_the_exact_log():
    for phi in range(1, 2001):
        b = max_unique_batch(phi)
        strings = 10**phi * (10**phi + 1)  # LL choices times AUC choices
        assert 2**b <= strings < 2 ** (b + 1), phi


def test_max_unique_batch_multiplies_out_where_its_bracket_holds_an_integer(monkeypatch):
    # no phi below 10^7 puts an integer in the double bracket, so a wrong
    # constant stands in for one: at phi 1 it brackets 8.0, and neither end's
    # floor, 7 or 8, is the count
    monkeypatch.setattr(precision, "_LOG2_10", 4.0)
    assert max_unique_batch(1) == 6


@pytest.mark.parametrize(
    "n,phi,expected", [(100, 15, 2), (90, 15, 1), (1, 1, 1), (60, 2, 5), (13, 2, 2)]
)
def test_query_bound_examples(n, phi, expected):
    assert query_bound(n, phi) == expected


@given(st.integers(1, 10**6), st.integers(1, 30))
def test_query_bound_is_ceiling(n, phi):
    assert query_bound(n, phi) == -(-n // (6 * phi))


def test_query_bound_rejects_nonpositive():
    with pytest.raises(ValidationError):
        query_bound(0, 2)
    with pytest.raises(ValidationError):
        query_bound(5, 0)


# tuple lookup tables


def test_paper_vector_separates_at_two_digits():
    lookup = tuple_lookup_for([F(1, 5), F(2, 5), F(3, 5)], 2)
    assert len(lookup.table) == 8
    vec = PredictionVector((F(1, 5), F(2, 5), F(3, 5)))
    for mask in range(8):
        bits = tuple((mask >> i) & 1 for i in range(3))
        lab = Labeling(bits)
        ll = logloss_decimal(vec, lab, 2)
        a = auc(vec, lab, 2)
        assert lookup.labeling_for(ll, a).bits == bits


def test_lookup_collision_names_both_labelings():
    with pytest.raises(LookupBuildError) as err:
        tuple_lookup_for([F(1, 2)], 1)
    message = str(err.value)
    assert "0" in message and "1" in message


def test_lookup_miss_raises():
    lookup = tuple_lookup_for([F(1, 5), F(2, 5), F(3, 5)], 2)
    with pytest.raises(DecodeError):
        lookup.labeling_for(
            DecimalScore("9.9e9", 2, ScoreKind.LOGLOSS),
            DecimalScore("5.0e-1", 2, ScoreKind.AUC),
        )


def test_pigeonhole_guard_rejects_before_search():
    # 2^7 labelings cannot fit in 10 * 11 one-digit tuples
    with pytest.raises(ValidationError):
        build_tuple_lookup(7, 1)
    with pytest.raises(ValidationError):
        tuple_lookup_for([F(i + 1, 9) for i in range(7)], 1)


def test_build_rejects_nonpositive_batch():
    with pytest.raises(ValidationError):
        build_tuple_lookup(0, 2)


@pytest.mark.parametrize("b,phi", [(13, 4), (9, 2), (13, 2)])
def test_build_rejects_batches_past_the_curated_vector(b, phi):
    # four digits take the twelve-point three-digit vector; nine and thirteen
    # points pass the two-digit pigeonhole cap but not the eight-point vector
    with pytest.raises(ValidationError) as err:
        build_tuple_lookup(b, phi)
    assert f"{b} points at {phi} significant digits" in str(err.value)


def test_build_deterministic():
    a = build_tuple_lookup(4, 2)
    b = build_tuple_lookup(4, 2)
    assert a.entries == b.entries
    assert a.table == b.table


@pytest.mark.parametrize("phi,size", [(1, 5), (2, 8), (3, 12)])
def test_curated_vectors_and_all_prefixes_separate(phi, size):
    curated = curated_batch_vector(phi)
    assert len(curated) == size
    assert all(0 < x < 1 for x in curated)
    for b in range(1, size + 1):
        lookup = build_tuple_lookup(b, phi)
        assert lookup.entries == curated[:b]
        assert len(lookup.table) == 2**b  # exhaustively injective


def test_curated_vector_serves_every_higher_precision():
    # verified where it is used: every prefix of the three-digit vector
    # separates at four digits too
    for phi in range(4, 9):
        assert curated_batch_vector(phi) == curated_batch_vector(3)
    for b in range(1, 13):
        assert len(build_tuple_lookup(b, 4).table) == 2**b
    with pytest.raises(ValidationError):
        curated_batch_vector(0)


def test_curated_tuples_match_mpmath():
    # independent route: mpmath log loss and pair-counted AUC over every
    # labeling of each curated vector, against the oracle's log-loss wire
    # and the lookup table's own keys
    for phi in (1, 2, 3):
        entries = list(curated_batch_vector(phi))
        b = len(entries)
        vec = PredictionVector(tuple(entries))
        table = tuple_lookup_for(entries, phi).table
        assert len(table) == 2**b
        for mask in range(2**b):
            bits = [(mask >> i) & 1 for i in range(b)]
            ll = mp_logloss_wire(entries, bits, phi)
            assert ll == logloss_decimal(vec, Labeling(tuple(bits)), phi).wire()
            exact_auc = naive_auc(entries, bits)
            key = (ll, "ND" if exact_auc is None else fraction_sig_wire(exact_auc, phi))
            assert table[key] == mask


def _scored_one_by_one(entries, phi):
    """Every labeling scored from scratch, in mask order: the table of
    bitmasks, or the LookupBuildError text naming the first colliding pair."""
    vec = PredictionVector(tuple(entries))
    b = len(entries)
    table, seen = {}, {}
    for mask in range(2**b):
        bits = tuple((mask >> i) & 1 for i in range(b))
        key = (
            logloss_decimal(vec, Labeling(bits), phi).wire(),
            auc(vec, Labeling(bits), phi).wire(),
        )
        if key in table:
            return (
                f"labelings {''.join(map(str, seen[key]))} and "
                f"{''.join(map(str, bits))} both round to {key} "
                f"at {phi} significant digits"
            )
        table[key], seen[key] = mask, bits
    return table


# small denominators tie and collide often; wide decimals rarely do
_tie_prone = st.integers(2, 12).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: F(num, den))
)
_wide = st.integers(3, 9).flatmap(
    lambda k: st.integers(1, 10**k - 1).map(lambda num: F(num, 10**k))
)


def _minus_ln_sum(entries) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return sum((-(Decimal(x.numerator) / x.denominator).ln() for x in entries), Decimal(0))


def _tie_offset(tie: Decimal, offset: Decimal, head: list) -> Fraction:
    """The entry x whose -ln x completes head's -ln sum to b * (tie + offset), b = len(head) + 1.

    Labeling every point 1 then gives an LL of tie + offset, to 60 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        return F((_minus_ln_sum(head) - (len(head) + 1) * (tie + offset)).exp())


@st.composite
def _near_tie(draw, phi: int, b: int) -> list:
    """b entries whose all-ones LL lies 1e-9 to 1e-30 off a half-even tie at phi digits."""
    head = draw(st.lists(_wide, min_size=b - 1, max_size=b - 1))
    mantissa = draw(st.integers(10 ** (phi - 1), 10**phi - 1))
    exponent = draw(st.integers(-3, 1))
    if head:  # a leading digit above the head's mean keeps the last -ln x positive
        exponent = max(exponent, (_minus_ln_sum(head) / b).adjusted() + 1)
    tie = (Decimal(2 * mantissa + 1) / 2).scaleb(exponent - phi + 1)
    offset = Decimal(draw(st.integers(-999, 999)) or 1).scaleb(exponent - draw(st.integers(9, 30)))
    return head + [_tie_offset(tie, offset, head)]


@st.composite
def _batches(draw):
    phi = draw(st.integers(1, 17))
    # from about 13 digits doubles cannot decide, so every labeling is
    # rescored: the batches stay small there
    b = draw(st.integers(1, min(10 if phi < 13 else 3, max_unique_batch(phi))))
    source = draw(st.sampled_from([_tie_prone, _wide, _wide, None]))
    if source is None:
        return draw(_near_tie(phi, b)), phi
    entries = draw(st.lists(source, min_size=b, max_size=b))
    if b > 1 and draw(st.sampled_from([False, False, True])):
        entries[-1] = entries[0]  # a tie: the pair's two swaps must collide
    return entries, phi


@settings(max_examples=80, deadline=None)
@given(_batches())
def test_lookup_table_matches_per_labeling_scoring(case):
    entries, phi = case
    try:
        got = tuple_lookup_for(entries, phi).table
    except LookupBuildError as err:
        got = str(err)
    assert got == _scored_one_by_one(entries, phi)


@pytest.fixture
def rescored(monkeypatch):
    """Labelings the lookup build hands to logloss_decimal, in call order."""
    calls = []
    real = precision.logloss_decimal

    def spy(vec, labels, phi):
        calls.append(labels.bits)
        return real(vec, labels, phi)

    monkeypatch.setattr(precision, "logloss_decimal", spy)
    return calls


@pytest.mark.parametrize("above", ["0", "3e-13"])
def test_lookup_rescores_an_ll_at_a_rounding_boundary(above, rescored):
    # -ln x is 0.25 + above, to within 1e-39.  0.25 is the half-even boundary
    # between the one-digit values 2e-1 and 3e-1, well inside the table's
    # margin, so the table must take the wire logloss_decimal puts out.
    with localcontext() as ctx:
        ctx.prec = 40
        x = F((-Decimal("0.25") - Decimal(above)).exp())
    table = tuple_lookup_for([x], 1).table
    assert rescored == [(1,)]
    wire = logloss_decimal(PredictionVector((x,)), Labeling((1,)), 1).wire()
    assert table[(wire, "ND")] == 1


@pytest.mark.parametrize("foreign", [
    pytest.param(Context(prec=3, rounding=ROUND_HALF_UP), id="ROUND_HALF_UP"),
    pytest.param(Context(prec=3, rounding=ROUND_DOWN), id="ROUND_DOWN"),
    pytest.param(Context(prec=2, rounding=ROUND_DOWN, Emax=10, Emin=-10), id="narrow-exponents"),
])
def test_wires_ignore_the_thread_decimal_context(foreign):
    # a caller's decimal context, its digits, rounding or exponent limits,
    # must not reach a wire: near-tie log losses (the Decimal stage; below
    # Emin at 3.5e-30), binary responses past a double (n = 2048, past Emax),
    # lookup tables, a plan at 40 digits and a binary decode at n = 1024 keep
    # the default context's results
    near_ties = []
    for tie, offset, phi in (("0.25", "1e-17", 1), ("0.25", "-1e-17", 1),
                             ("1.23455", "1e-17", 5), ("3.45645", "-2e-16", 5),
                             ("3.5e-30", "-1e-55", 1), ("3.5e-30", "1e-55", 1)):
        near_ties.append((_tie_offset(Decimal(tie), Decimal(offset), []), phi))
    binary = [Labeling((1, 0) * 1024), Labeling((0,) * 2047 + (1,))]
    vectors = [([x], phi) for x, phi in near_ties] + [(curated_batch_vector(2), 2)]
    hidden = Labeling((1, 0) * 512)

    def wires():
        ll = binary_decimal_response(hidden, 320)[0]
        return (
            [logloss_decimal(PredictionVector((x,)), Labeling((1,)), phi).wire()
             for x, phi in near_ties],
            [binary_decimal_response(labels, phi) for labels in binary for phi in (1, 4, 9)],
            [tuple_lookup_for(entries, phi).table for entries, phi in vectors],
            plan_batches(60, 40),
            (ll, decode_binary_from_decimal(ll, 1024)),
        )

    expected = wires()
    assert expected[0] == ["3e-1", "2e-1", "1.2346e0", "3.4564e0", "3e-30", "4e-30"]
    assert expected[4][1] == hidden
    with localcontext(foreign):
        assert wires() == expected


@pytest.mark.parametrize("phi", [1, 2, 3])
def test_curated_verification_rescores_no_labeling(phi, rescored):
    lookup = tuple_lookup_for(curated_batch_vector(phi), phi)
    assert len(lookup.table) == 2 ** len(lookup.entries)
    assert rescored == []


@pytest.mark.parametrize("phi", [1, 2])
def test_lookup_table_with_wide_denominators(phi):
    # the curated vector moved by 3^-1000: 1585 bits per entry or more, past
    # a double's range, so math.log takes its mantissa-and-exponent route
    wide = 3**1000
    entries = [F(x.numerator * wide + 1, x.denominator * wide) for x in curated_batch_vector(phi)]
    assert tuple_lookup_for(entries, phi).table == _scored_one_by_one(entries, phi)


@pytest.mark.parametrize("phi", [3, 4])
def test_lookup_table_memory_stays_near_its_keys(phi, monkeypatch):
    # a 12-tuple of bits and an own LL string per labeling once kept 1.18 MB
    # alive and peaked at 1.35 MB.  Held now: the dict, a key tuple and a
    # bitmask per labeling, and one str per distinct wire (568 LL wires at
    # three digits, 2579 at four): 0.56 and 0.65 MB kept, 0.67 and 0.79 MB
    # at the peak on CPython 3.11, and no more on 3.10, 3.12 or 3.13
    monkeypatch.setattr(precision, "_LOOKUP_CACHE", {})
    tuple_lookup_for(curated_batch_vector(phi)[:4], phi)  # first-use caches
    tracemalloc.start()
    try:
        lookup = build_tuple_lookup(12, phi)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lookup.table) == 2**12
    assert retained <= 700_000 and peak <= 900_000


# planning


def test_plan_sixty_points_two_digits():
    plan = plan_batches(60, 2)
    assert plan.method == "tuple-table"
    assert plan.batch_size == 8
    assert plan.planned_queries == 8
    assert max_unique_batch(plan.phi) == 13
    assert query_bound(plan.n, plan.phi) == 5
    covered = [i for batch in plan.batches for i in batch.indices]
    assert covered == list(range(60))
    # the short last batch is refilled back to the verified length
    last = plan.batches[-1]
    assert len(last.indices) + len(last.fill) == 8
    assert set(last.fill) <= set(range(60 - 8, 56))


def test_plan_prefers_binary_when_digits_allow():
    plan = plan_batches(100, 15)
    assert plan.method == "binary-decimal"
    assert plan.batch_size == 49
    assert plan.planned_queries == 3
    assert query_bound(plan.n, plan.phi) == 2  # the formula bound is optimistic here
    assert all(batch.fill == () for batch in plan.batches)


def test_plan_single_batch():
    plan = plan_batches(5, 1)
    assert plan.method == "tuple-table"
    assert plan.batch_size == 5
    assert plan.planned_queries == 1
    assert plan.batches[0].fill == ()


def test_plan_rejects_unworkable_precision():
    with pytest.raises(ValidationError):
        plan_batches(10, 0)


def test_plan_partition_property():
    for n, phi in ((1, 2), (9, 1), (26, 2), (40, 3), (10, 4)):
        plan = plan_batches(n, phi)
        covered = [i for batch in plan.batches for i in batch.indices]
        assert covered == list(range(n))
        assert plan.planned_queries == len(plan.batches)
        assert plan.planned_queries == -(-n // plan.batch_size)


def test_plan_binary_batch_matches_a_linear_scan():
    # the binary batch reaches the 4096-point cap at 1234 digits; the curated
    # vector wins up to four
    reference = mp_binary_batch_precisions(BINARY_DECIMAL_MAX_N)
    for phi in range(1, 1301):
        best = 0
        for n, need in enumerate(reference, 1):
            if need > phi:
                break
            best = n
        plan = plan_batches(10, phi)
        if phi <= 4:
            size = len(curated_batch_vector(phi))
            assert (plan.method, plan.batch_size) == ("tuple-table", size)
            assert best < size
        else:
            assert (plan.method, plan.batch_size) == ("binary-decimal", best)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 11))
def test_planned_queries_never_increase_with_phi(n, phi):
    assert plan_batches(n, phi + 1).planned_queries <= plan_batches(n, phi).planned_queries


@given(st.integers(1, 6), st.integers(1, 400))
def test_tuple_table_batches_stay_within_the_curated_vector(phi, n):
    # so build_tuple_lookup's past-the-curated-vector error cannot reach
    # batched_inference
    plan = plan_batches(n, phi)
    if plan.method == "tuple-table":
        size = len(curated_batch_vector(phi))
        assert all(len(batch.fill + batch.indices) <= size for batch in plan.batches)


# end-to-end batched recovery


def _hidden(n, seed):
    return MembershipVector.random(n, seed)


@pytest.mark.parametrize(
    "n,phi,queries",
    [
        (23, 1, 5),
        (19, 2, 3),
        (60, 2, 8),
        (13, 3, 2),
        (1, 2, 1),
        (10, 4, 1),   # a ten-point prefix of the three-digit vector
        (50, 12, 2),  # binary-decimal batches of thirty-two
        (100, 15, 3),
    ],
)
def test_batched_inference_recovers_everything(n, phi, queries):
    hidden = _hidden(n, seed=n * 100 + phi)
    oracle = curator_oracle(hidden)
    recovered, plan = batched_inference(oracle.scoring_view(), n, phi)
    assert recovered.bits == hidden.bits.bits
    assert oracle.queries_used == plan.planned_queries == queries


def test_batched_inference_seed_sweep_sixty_two_digits():
    for seed in range(5):
        hidden = _hidden(60, seed)
        oracle = curator_oracle(hidden)
        recovered, plan = batched_inference(oracle.scoring_view(), 60, 2)
        assert recovered.bits == hidden.bits.bits
        assert oracle.queries_used == 8


def test_batched_inference_verifies_each_prefix_once(monkeypatch):
    verified = []
    real = precision._tuple_table

    def spy(entries, phi):
        verified.append((phi, len(entries)))
        return real(entries, phi)

    monkeypatch.setattr(precision, "_tuple_table", spy)
    saved = dict(precision._LOOKUP_CACHE)
    precision._LOOKUP_CACHE.clear()
    try:
        for phi in (1, 2, 3):
            size = len(curated_batch_vector(phi))
            for n in (size - 2, size + 3):
                for seed in (0, 1):
                    hidden = _hidden(n, seed)
                    recovered, _ = batched_inference(
                        curator_oracle(hidden).scoring_view(), n, phi
                    )
                    assert recovered.bits == hidden.bits.bits
        cached = dict(precision._LOOKUP_CACHE)
    finally:
        precision._LOOKUP_CACHE.clear()
        precision._LOOKUP_CACHE.update(saved)
    assert sorted(verified) == sorted(set(verified)) == sorted(cached)
    assert sorted(cached) == [(1, 3), (1, 5), (2, 6), (2, 8), (3, 10), (3, 12)]
    for (phi, b), lookup in cached.items():
        assert lookup.entries == curated_batch_vector(phi)[:b]


class _TwoFacedOracle:
    """Answers each query against a fresh hidden labeling: a lying curator."""

    def __init__(self, n, flip_index):
        bits = tuple(0 for _ in range(n))
        self._stories = [
            curator_oracle(MembershipVector(Labeling(bits))),
            curator_oracle(MembershipVector(Labeling(
                tuple(1 if i == flip_index else b for i, b in enumerate(bits))
            ))),
        ]
        self._calls = 0

    def _next(self):
        view = self._stories[min(self._calls, 1)].scoring_view()
        self._calls += 1
        return view

    def decimal_scores(self, entries, phi, indices=None):
        return self._next().decimal_scores(entries, phi, indices)

    def decimal_scores_for_binary(self, n, phi, indices=None):
        return self._next().decimal_scores_for_binary(n, phi, indices)


def test_refill_answers_catch_a_lying_curator():
    # second query re-asks indices 1..4; the flipped story disagrees there
    with pytest.raises(DecodeError):
        batched_inference(_TwoFacedOracle(6, flip_index=2), 6, 1)
