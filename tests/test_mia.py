"""Membership-inference simulation: roles, recovery, tamper evidence."""

import tracemalloc
from fractions import Fraction

import pytest

from lossprobe.core import Labeling, PredictionVector, ScoreKind, logloss_decimal
from lossprobe.errors import DecodeError, LossProbeError, ValidationError
from lossprobe.exact import BINARY_MAX_N, build_twin_prime_vector, decode_twin_prime_value
from lossprobe.mia import (
    AttackMode,
    CandidateSet,
    CuratorOracle,
    MembershipVector,
    ScoringView,
    curator_oracle,
    fixed_precision_attack,
    one_query_attack,
    perturb_prime,
    run_demo,
)
from lossprobe.primes import twin_primes

from conftest import naive_factor_over

F = Fraction


# candidate sets and membership vectors


def test_candidate_set_numbered():
    assert len(CandidateSet.numbered(3)) == 3
    assert len(CandidateSet.numbered(11)) == 11


def test_numbered_candidates_hold_no_names():
    tracemalloc.start()
    try:
        candidates = CandidateSet.numbered(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(candidates) == 10**6
    assert peak < 1e6


def test_one_query_twin_attack_copies_nothing_per_point():
    # 1.70 MB traced with candidate names, gcd-copied numerators and a list
    # of the uppers; 1.00 MB without; 1.23 MB with the numerators copied
    n = 7000
    twin_primes(n)
    oracle = curator_oracle(MembershipVector.random(n, seed=3))
    tracemalloc.start()
    try:
        report = one_query_attack(CandidateSet.numbered(n), oracle, AttackMode.EXACT_TWIN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.accuracy == 1
    assert peak < 1.15e6


def test_candidate_set_validation():
    with pytest.raises(ValidationError):
        CandidateSet.numbered(0)


def test_membership_vector_seeded():
    a = MembershipVector.random(20, seed=3)
    b = MembershipVector.random(20, seed=3)
    c = MembershipVector.random(20, seed=4)
    assert a == b
    assert a != c
    assert len(a) == 20


# the curator oracle


def test_oracle_counts_queries():
    oracle = curator_oracle(MembershipVector(Labeling((1, 0, 1))))
    assert oracle.queries_used == 0
    vec = build_twin_prime_vector(3)
    oracle.exact_response(vec.entries)
    assert oracle.queries_used == 1
    oracle.decimal_scores([F(1, 5), F(2, 5), F(3, 5)], 2)
    assert oracle.queries_used == 2


def test_oracle_exact_response_value():
    oracle = curator_oracle(MembershipVector(Labeling((1, 0, 1))))
    score = oracle.exact_response(build_twin_prime_vector(3).entries)
    assert score.value == F(1729, 170)
    assert score.n == 3


class _LyingFraction(Fraction):
    """A Fraction whose numerator property reports another value than it holds."""

    def __new__(cls, numerator, denominator, lie):
        self = super().__new__(cls, numerator, denominator)
        self.lie = lie
        return self

    @property
    def numerator(self):
        return self.lie


@pytest.mark.parametrize(
    "entries,exact,wires",
    [
        (["5/7", "11/13", "17/19"], F(1729, 170), ("7.73e-1", "5.00e-1")),
        ([0.5, 0.25, 0.75], F(32, 9), ("4.23e-1", "1.00e0")),
        ([F(5, 7), "11/13", 0.75], F(182, 15), ("8.32e-1", "0.00e0")),
        # Fraction() reads the lie, so this is scored as 3/7
        ([_LyingFraction(5, 7, 3), F(11, 13), F(17, 19)], F(1729, 102), ("9.43e-1", "5.00e-1")),
        ([1, 0, 1], "prediction 1 outside the open interval (0, 1)", None),
        ([_LyingFraction(5, 7, 9), F(11, 13), F(17, 19)],
         "prediction 9/7 outside the open interval (0, 1)", None),
    ],
)
def test_curator_converts_every_entry_that_is_not_exactly_a_fraction(entries, exact, wires):
    oracle = curator_oracle(MembershipVector(Labeling((1, 0, 1))))
    if wires is None:
        for ask in (oracle.exact_response, lambda e: oracle.decimal_scores(e, 3)):
            with pytest.raises(ValidationError) as caught:
                ask(entries)
            assert str(caught.value) == exact
        return
    score = oracle.exact_response(entries)
    assert (score.value, score.n) == (exact, 3)
    assert tuple(s.wire() for s in oracle.decimal_scores(entries, 3)) == wires


def test_curator_answers_a_twin_query_without_copying_its_entries():
    # a Fraction copy and a cached split per entry once traced 0.39-0.54 MB here
    n = 3000
    entries = build_twin_prime_vector(n).entries
    oracle = curator_oracle(MembershipVector.random(n, seed=7))
    tracemalloc.start()
    try:
        score = oracle.exact_response(entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert score.n == n
    assert peak <= 0.25e6


def test_oracle_subset_queries_line_up_with_indices():
    oracle = curator_oracle(MembershipVector(Labeling((1, 0, 1, 0))))
    entries = [F(1, 5), F(2, 5)]
    # indices (2, 1) selects hidden bits (1, 0)
    ll, auc_score = oracle.decimal_scores(entries, 2, indices=(2, 1))
    direct = logloss_decimal(PredictionVector(tuple(entries)), Labeling((1, 0)), 2)
    assert ll == direct
    assert auc_score.kind is ScoreKind.AUC


def test_oracle_rejects_malformed_subsets():
    oracle = curator_oracle(MembershipVector(Labeling((1, 0, 1, 0))))
    entries = [F(1, 5), F(2, 5)]
    with pytest.raises(ValidationError):
        oracle.decimal_scores(entries, 2, indices=(0, 0))
    with pytest.raises(ValidationError):
        oracle.decimal_scores(entries, 2, indices=(0, 9))
    with pytest.raises(ValidationError):
        oracle.decimal_scores(entries, 2, indices=(0,))
    with pytest.raises(ValidationError):
        oracle.exact_response(entries)  # length mismatch without indices


def test_assess_counts_matching_bits():
    oracle = curator_oracle(MembershipVector(Labeling((1, 0, 1, 0))))
    assert oracle.assess(MembershipVector(Labeling((1, 0, 1, 0)))) == 1
    assert oracle.assess(MembershipVector(Labeling((1, 0, 1, 1)))) == F(3, 4)
    assert oracle.assess(MembershipVector(Labeling((0, 1, 0, 1)))) == 0
    with pytest.raises(ValidationError):
        oracle.assess(MembershipVector(Labeling((1, 0))))


def test_scoring_view_is_the_whole_adversary_surface():
    oracle = curator_oracle(MembershipVector(Labeling((1, 0, 1))))
    view = oracle.scoring_view()
    assert isinstance(view, ScoringView)
    assert set(vars(view)) == {
        "exact_response",
        "decimal_scores",
        "decimal_scores_for_binary",
    }
    # no hidden state is reachable as data on the view or by mangled name
    assert not hasattr(view, "_CuratorOracle__hidden")
    assert not hasattr(view, "hidden")
    assert not any(isinstance(v, MembershipVector) for v in vars(view).values())
    with pytest.raises(AttributeError):
        oracle.__hidden  # noqa: B018  (mangled away on purpose)


# exact one-query attacks


@pytest.mark.parametrize("mode", [AttackMode.EXACT_TWIN, AttackMode.EXACT_BINARY])
def test_one_query_attack_recovers_everything(mode):
    for seed in range(6):
        n = 5 + seed * 5
        hidden = MembershipVector.random(n, seed)
        oracle = curator_oracle(hidden)
        report = one_query_attack(CandidateSet.numbered(n), oracle, mode)
        assert report.queries_used == 1
        assert report.accuracy == 1
        assert report.recovered == hidden
        assert report.mode is mode
        assert report.plan is None


def test_one_query_attack_rejects_fixed_mode():
    oracle = curator_oracle(MembershipVector.random(4, 0))
    with pytest.raises(ValidationError):
        one_query_attack(CandidateSet.numbered(4), oracle, AttackMode.FIXED_PRECISION)


def test_binary_attack_through_the_curator_at_the_size_limit():
    # the curator scores the attacker's entries as a plain vector: this is
    # the path that must stay in shifts, 2^32-bit numerator and all
    n = BINARY_MAX_N
    hidden = MembershipVector.random(n, 32)
    oracle = curator_oracle(hidden)
    report = one_query_attack(CandidateSet.numbered(n), oracle, AttackMode.EXACT_BINARY)
    assert report.queries_used == oracle.queries_used == 1
    assert report.recovered == hidden


def test_binary_mode_stops_at_the_size_limit():
    n = 33  # entry 33 would be a 2^32-bit integer
    oracle = curator_oracle(MembershipVector.random(n, 0))
    with pytest.raises(ValidationError):
        one_query_attack(CandidateSet.numbered(n), oracle, AttackMode.EXACT_BINARY)


# fixed-precision attacks


def test_fixed_precision_attack_report():
    hidden = MembershipVector.random(30, seed=9)
    oracle = curator_oracle(hidden)
    report = fixed_precision_attack(CandidateSet.numbered(30), oracle, phi=2)
    assert report.mode is AttackMode.FIXED_PRECISION
    assert report.accuracy == 1
    assert report.recovered == hidden
    assert report.plan.phi == 2
    assert report.queries_used == report.plan.planned_queries == 4


def test_attack_report_is_immutable():
    report = run_demo(4, AttackMode.EXACT_TWIN, seed=1)
    with pytest.raises(AttributeError):
        report.accuracy = F(0)


# tamper evidence


def test_perturb_prime_validation():
    base = curator_oracle(MembershipVector.random(3, 2)).exact_response(
        build_twin_prime_vector(3).entries
    )
    with pytest.raises(ValidationError):
        perturb_prime(base, 7, 2)
    with pytest.raises(ValidationError):
        perturb_prime(base, 1, 1)


@pytest.mark.parametrize("composite", [4, 9, 35, 7 * 13])
def test_perturb_prime_rejects_a_composite(composite):
    # the tampering model shifts one prime's exponent; a composite shifts several
    base = curator_oracle(MembershipVector(Labeling((1, 0, 1)))).exact_response(
        build_twin_prime_vector(3).entries
    )
    with pytest.raises(ValidationError, match="not a prime"):
        perturb_prime(base, composite, 1)


def test_perturb_prime_changes_the_value():
    base = curator_oracle(MembershipVector(Labeling((1, 0, 1)))).exact_response(
        build_twin_prime_vector(3).entries
    )
    up = perturb_prime(base, 7, 1)
    down = perturb_prime(base, 7, -1)
    assert up.value == base.value * 7
    assert down.value == base.value / 7
    assert up.n == base.n == 3


def test_every_single_prime_perturbation_is_detected():
    lowers = twin_primes(14)
    relevant = [2, *lowers, *(p + 2 for p in lowers)]
    for seed in range(12):
        n = 3 + seed
        hidden = MembershipVector.random(n, seed)
        oracle = curator_oracle(hidden)
        honest = oracle.exact_response(build_twin_prime_vector(n).entries)
        exponents, leftover = naive_factor_over(
            honest.value.numerator * honest.value.denominator, relevant
        )
        assert leftover == 1
        for p in exponents:
            for delta in (-1, 1):
                tampered = perturb_prime(honest, p, delta)
                with pytest.raises(DecodeError):
                    decode_twin_prime_value(tampered.value)


# any curator: the harness reads three members and nothing else


class DuckCurator:
    """queries_used, scoring_view() and assess(), with no CuratorOracle base.

    A lying one answers exact queries with prime 11's exponent raised by one.
    """

    def __init__(self, hidden: MembershipVector, lying: bool = False):
        self.honest, self.lying = curator_oracle(hidden), lying

    @property
    def queries_used(self):
        return self.honest.queries_used

    def scoring_view(self):
        real = self.honest.scoring_view()
        if not self.lying:
            return real

        def lie(entries, indices=None):
            return perturb_prime(real.exact_response(entries, indices), 11, 1)

        return ScoringView(lie, real.decimal_scores, real.decimal_scores_for_binary)

    def assess(self, claimed):
        return self.honest.assess(claimed)


def test_a_duck_typed_curator_runs_both_attacks():
    hidden = MembershipVector.random(64, seed=8)
    curator = DuckCurator(hidden)
    assert not isinstance(curator, CuratorOracle)
    exact = one_query_attack(CandidateSet.numbered(64), curator)
    assert (exact.mode, exact.queries_used, exact.accuracy) == (AttackMode.EXACT_TWIN, 1, 1)
    assert exact.recovered == hidden
    fixed = fixed_precision_attack(CandidateSet.numbered(64), curator, phi=2)
    assert fixed.accuracy == 1 and fixed.recovered == hidden
    assert fixed.queries_used == fixed.plan.planned_queries == 8


def test_a_duck_typed_curator_that_lies_is_refused():
    bits = Labeling((1, 0, 0, 1, 1, 0, 1, 0) * 8)
    with pytest.raises(LossProbeError):
        one_query_attack(CandidateSet.numbered(64), DuckCurator(MembershipVector(bits), lying=True))


# the packaged demo


def test_run_demo_deterministic():
    a = run_demo(12, AttackMode.EXACT_TWIN, seed=5)
    b = run_demo(12, AttackMode.EXACT_TWIN, seed=5)
    assert a == b
    assert a.accuracy == 1
    assert a.queries_used == 1


def test_run_demo_modes():
    twin = run_demo(10, AttackMode.EXACT_TWIN, seed=1)
    binary = run_demo(10, AttackMode.EXACT_BINARY, seed=1)
    fixed = run_demo(10, AttackMode.FIXED_PRECISION, seed=1, phi=3)
    assert twin.recovered == binary.recovered == fixed.recovered
    assert twin.queries_used == binary.queries_used == 1
    assert fixed.plan.phi == 3
    assert fixed.accuracy == 1


def test_run_demo_defaults_to_two_digits_for_fixed():
    report = run_demo(9, AttackMode.FIXED_PRECISION, seed=4)
    assert report.plan.phi == 2
    assert report.accuracy == 1


def test_run_demo_rejects_phi_for_exact_modes():
    with pytest.raises(ValidationError):
        run_demo(5, AttackMode.EXACT_TWIN, seed=0, phi=2)
    with pytest.raises(ValidationError):
        run_demo(5, AttackMode.EXACT_BINARY, seed=0, phi=2)


def test_attack_mode_wire_names():
    assert AttackMode.EXACT_TWIN.value == "twin"
    assert AttackMode.EXACT_BINARY.value == "binary"
    assert AttackMode.FIXED_PRECISION.value == "fixed"
