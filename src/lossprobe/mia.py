"""Membership inference against a truthful scoring curator.

The simulated world has two sides.  The curator holds the hidden
membership bits and answers scoring queries about them, exactly or
rounded to phi significant digits.  The adversary sees nothing but those
answers: no model, no per-point predictions, no ground truth.  The
attacks below submit one crafted prediction vector per batch, or name the
construction they would send, and decode the hidden bits from the
returned scores.

Separation is a convention.  Attacks are written against a ScoringView,
a facade holding only the curator's answer methods, and touch nothing
else.  The methods are bound, so `__self__` still leads back to the
curator and its membership bits; the facade keeps honest code honest, it
does not stop attribute poking.  Accuracy is always computed back on the
curator's side.

Every curator scores through one function, `respond`: the in-process
CuratorOracle and the `score` and `oracle-serve` commands alike.  A
served curator differs only in transport; it overrides the one method
that answers a query.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable, Protocol, Sequence

from .core import (
    DecimalScore,
    ExactScore,
    Labeling,
    PredictionVector,
    _Frozen,
    auc,
    exact_score,
    logloss_decimal,
)
from .errors import ValidationError
from .exact import _CONSTRUCTIONS
from .precision import AttackPlan, batched_inference
from .primes import is_prime


class AttackMode(Enum):
    EXACT_TWIN = "twin"
    EXACT_BINARY = "binary"
    FIXED_PRECISION = "fixed"


class CandidateSet:
    """The datapoints under attack, in a fixed session order, held as their count.

    Point i is the curator's index i; the attacks read nothing but len().
    """

    __slots__ = ("_n",)

    def __len__(self) -> int:
        return self._n

    @classmethod
    def numbered(cls, n: int) -> "CandidateSet":
        if n < 1:
            raise ValidationError("need at least one candidate")
        candidates = cls.__new__(cls)
        candidates._n = n
        return candidates


class MembershipVector(_Frozen):
    """One bit per candidate: 1 means the point was in the training set."""

    bits: Labeling

    def __init__(self, bits: Labeling) -> None:
        self.__dict__["bits"] = bits

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def random(cls, n: int, seed: int) -> "MembershipVector":
        rng = random.Random(seed)
        return cls(Labeling(tuple(rng.randint(0, 1) for _ in range(n))))


class AttackReport(_Frozen):
    """Outcome of one attack run, assessed on the curator side."""

    mode: AttackMode
    queries_used: int
    recovered: MembershipVector
    accuracy: Fraction
    plan: AttackPlan | None  # the executed schedule, phi included; None when exact

    def __init__(
        self, mode: AttackMode, queries_used: int, recovered: MembershipVector,
        accuracy: Fraction, plan: AttackPlan | None = None,
    ) -> None:
        self.__dict__.update(
            mode=mode, queries_used=queries_used, recovered=recovered,
            accuracy=accuracy, plan=plan,
        )


class ScoringView:
    """The only thing an adversary gets: the curator's answer methods."""

    def __init__(self, exact_response, decimal_scores, decimal_scores_for_binary):
        self.exact_response = exact_response
        self.decimal_scores = decimal_scores
        self.decimal_scores_for_binary = decimal_scores_for_binary


class Curator(Protocol):
    """What the attack harness needs from a curator, local or remote."""

    @property
    def queries_used(self) -> int: ...

    def scoring_view(self) -> ScoringView: ...

    def assess(self, claimed: MembershipVector) -> Fraction: ...


def _sub_labels(hidden: Labeling, count: int, indices: Sequence[int] | None) -> Labeling:
    """The hidden labels that a query of count predictions at indices is scored on.

    The one index check for every curator, local or served, made before
    any prediction vector is built.
    """
    bits = hidden.bits
    # type(), not isinstance: True (JSON true) must not pass as index 1
    if indices is not None and (
        not isinstance(indices, (list, tuple)) or any(type(i) is not int for i in indices)
    ):
        raise ValidationError("indices must be a list of integers")
    if count != (len(bits) if indices is None else len(indices)):
        raise ValidationError("length")
    if indices is None:
        return hidden
    if len(set(indices)) != len(indices):
        raise ValidationError("queried indices must be distinct")
    for i in indices:
        if not 0 <= i < len(bits):
            raise ValidationError(f"index {i} outside the candidate set")
    return Labeling(tuple(bits[i] for i in indices))


def respond(
    query: PredictionVector | str, labels: Labeling, phi: int | None
) -> ExactScore | tuple[DecimalScore, DecimalScore]:
    """The curator's answer to one query: the exact score when phi is None,
    else (LL, AUC) rounded to phi significant digits.

    query is a built prediction vector or the name of a construction at
    len(labels) points.  A name is answered from the construction's closed
    form, exact or rounded, with no vector built; a name with no rounded
    closed form is built and scored as entries.  A vector is scored by the
    general exact_score, gcd and all.
    """
    if not isinstance(query, PredictionVector):
        construction = _CONSTRUCTIONS.get(query) if isinstance(query, str) else None
        if construction is None:
            raise ValidationError(f"cannot build entries for kind {query!r}")
        if phi is None:
            return construction.exact(labels)
        if construction.rounded is not None:
            return construction.rounded(labels, phi)
        query = construction.build(len(labels))
    if phi is None:
        return exact_score(query, labels)
    return logloss_decimal(query, labels, phi), auc(query, labels, phi)


class CuratorOracle:
    """Holds the hidden membership bits and reports scores truthfully.

    Queries may target the whole candidate set or, via indices, any
    subset; the predictions then line up with the chosen positions.  A
    query is entries or the name of a construction.  The three answer
    methods are adapters onto _answer.
    """

    def __init__(self, hidden: MembershipVector):
        self.__hidden = hidden
        self._queries = 0

    @property
    def queries_used(self) -> int:
        return self._queries

    def _answer(
        self,
        query: Sequence[Fraction] | str,
        n: int,
        indices: Sequence[int] | None,
        phi: int | None,
    ) -> ExactScore | tuple[DecimalScore, DecimalScore]:
        """Answer a query of n entries, or a construction named at n points."""
        labels = _sub_labels(self.__hidden.bits, n, indices)
        self._queries += 1
        if not isinstance(query, str):
            # a Fraction is scored as sent, not copied; any other type, a
            # subclass included, goes through Fraction() and is validated
            query = PredictionVector(
                tuple(x if type(x) is Fraction else Fraction(x) for x in query)
            )
        return respond(query, labels, phi)

    def exact_response(
        self, entries: Sequence[Fraction] | str, indices: Sequence[int] | None = None
    ) -> ExactScore:
        """The exact score of entries, or of a construction named in their place.

        A name ("twin", "binary") stands for that construction over the
        points at indices, or over every candidate when none are given, and
        is answered in closed form.
        """
        if isinstance(entries, str):
            # indices that are no list are refused in _answer, before any count
            n = len(indices) if isinstance(indices, (list, tuple)) else len(self.__hidden)
        else:
            n = len(entries)
        return self._answer(entries, n, indices, None)

    def decimal_scores(
        self,
        entries: Sequence[Fraction],
        phi: int,
        indices: Sequence[int] | None = None,
    ) -> tuple[DecimalScore, DecimalScore]:
        return self._answer(entries, len(entries), indices, phi)

    def decimal_scores_for_binary(
        self, n: int, phi: int, indices: Sequence[int] | None = None
    ) -> tuple[DecimalScore, DecimalScore]:
        return self._answer("binary", n, indices, phi)

    def assess(self, claimed: MembershipVector) -> Fraction:
        """Curator-side accuracy of a claimed membership vector."""
        truth = self.__hidden.bits.bits
        if len(claimed) != len(truth):
            raise ValidationError("claimed vector has the wrong length")
        hits = sum(a == b for a, b in zip(claimed.bits.bits, truth))
        return Fraction(hits, len(truth))

    def scoring_view(self) -> ScoringView:
        return ScoringView(
            self.exact_response, self.decimal_scores, self.decimal_scores_for_binary
        )


def curator_oracle(hidden: MembershipVector) -> CuratorOracle:
    """The oracle of the simulation: truthful scores over hidden bits."""
    return CuratorOracle(hidden)


def _recover_exact(view: ScoringView, n: int, mode: AttackMode) -> tuple[Labeling, None]:
    """Adversary side of the exact modes: one query by construction name, then decode.

    The curator scores the named construction over all its candidates, so
    a score for other than n of them is refused before any decode.
    """
    construction = _CONSTRUCTIONS.get(mode.value)
    if construction is None:
        raise ValidationError(f"{mode} is not an exact mode")
    score = view.exact_response(mode.value)
    if score.n != n:
        raise ValidationError(f"the curator scored {score.n} candidates, not {n}")
    return construction.decode(score), None


def _graded(oracle: Curator, mode: AttackMode, recover: Callable) -> AttackReport:
    """Run recover(view) -> (labeling, plan) on the oracle's view; grade it curator-side."""
    before = oracle.queries_used
    bits, plan = recover(oracle.scoring_view())
    recovered = MembershipVector(bits)
    return AttackReport(
        mode=mode, queries_used=oracle.queries_used - before, recovered=recovered,
        accuracy=oracle.assess(recovered), plan=plan,
    )


def one_query_attack(
    candidates: CandidateSet,
    oracle: Curator,
    mode: AttackMode = AttackMode.EXACT_TWIN,
) -> AttackReport:
    """Full membership recovery from a single exact-score response.

    Decoder errors propagate: they mean the oracle is dishonest or the
    session is misconfigured, and there is no labeling to report.
    """
    return _graded(oracle, mode, partial(_recover_exact, n=len(candidates), mode=mode))


def fixed_precision_attack(
    candidates: CandidateSet, oracle: Curator, phi: int
) -> AttackReport:
    """Membership recovery from rounded (LL, AUC) answers, batch by batch."""
    recover = partial(batched_inference, n=len(candidates), phi=phi)
    return _graded(oracle, AttackMode.FIXED_PRECISION, recover)


def perturb_prime(score: ExactScore, prime: int, delta: int) -> ExactScore:
    """Shift one prime's exponent in the score's factorization by delta.

    Models a tampering curator.  The decoders treat any single-prime
    perturbation of a twin-prime score as ill-formed rather than decoding
    it to a wrong labeling, which is what makes honesty observable.
    """
    if delta not in (-1, 1):
        raise ValidationError("tampering model shifts an exponent by one")
    if not is_prime(prime):
        raise ValidationError(f"{prime} is not a prime")
    return ExactScore(value=score.value * Fraction(prime) ** delta, n=score.n)


def _attack(oracle: Curator, n: int, mode: AttackMode, phi: int | None) -> AttackReport:
    """The attack of the given mode against any curator, local or served."""
    candidates = CandidateSet.numbered(n)
    if mode is AttackMode.FIXED_PRECISION:
        return fixed_precision_attack(candidates, oracle, 2 if phi is None else phi)
    if phi is not None:
        raise ValidationError("significant digits only apply to fixed-precision mode")
    return one_query_attack(candidates, oracle, mode)


def run_demo(
    n: int, mode: AttackMode, seed: int, phi: int | None = None
) -> AttackReport:
    """Self-contained attack demonstration with a seeded hidden vector."""
    return _attack(curator_oracle(MembershipVector.random(n, seed)), n, mode, phi)
