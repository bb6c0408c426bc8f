"""Working with oracles that round: separation bounds, batch sizing, lookups.

An oracle reporting phi significant digits still leaks labels, just fewer
per query.  A batch of b points has 2^b candidate labelings, and the pair
of rounded scores (AUC, LL) must tell them apart.  max_unique_batch()
counts the pairs whose LL has one fixed exponent, 10^phi * (10^phi + 1);
that is no bound, since the LL wire carries its own exponent (the curated
one-digit vector's 32 labelings give 11 LL wires over four exponents).
Whether a concrete prediction vector separates all 2^b labelings is
checked here by exhaustive enumeration, and the curated vectors below are
the largest ones such a search has found.

Batches are scored in isolation: a query carries the indices of the batch
and predictions for those points only, so the reported scores depend on
nothing outside the batch.  The classic alternative, padding the query to
full length with 1/2 so every out-of-batch point contributes exactly ln 2
to the unnormalized loss, keeps the log loss invertible but pollutes AUC
with unknown out-of-batch labels, which is why the lookup attack does not
use it.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import (
    DecimalScore,
    Labeling,
    PredictionVector,
    _Frozen,
    _auc_value,
    _bracket_wire,
    _rounded_auc,
    logloss_decimal,
)
from .errors import LookupBuildError, DecodeError, ValidationError
from .exact import (
    _largest_binary_batch, _mask_labeling, binary_decimal_response, decode_binary_from_decimal,
)

if TYPE_CHECKING:  # mia imports this module
    from .mia import ScoringView


def _as_fraction(value) -> Fraction:
    try:
        if isinstance(value, float):
            # floats are taken at face value: 0.002 means 2/1000, not its
            # nearest binary neighbour
            return Fraction(str(value))
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"not a number: {value!r}") from exc


def min_digits_for_separation(delta) -> int:
    """Significant digits needed to tell apart values at least delta apart.

    ceil(log10(1/delta)), computed in exact integer arithmetic so boundary
    cases like delta = 0.001 do not wobble with float log rounding.
    """
    gap = _as_fraction(delta)
    if gap <= 0:
        raise ValidationError("separation must be positive")
    p, q = gap.numerator, gap.denominator
    if p >= q:
        return 0
    # a lower bound from bit lengths (0.30102999 < log10 2), short of the answer
    # by at most two: str(q) would trip the interpreter's digit cap for
    # separations like 1e-5000, and each step below costs a power of ten
    k = max(0, (q.bit_length() - p.bit_length() - 1) * 30102999 // 10**8)
    while p * 10**k < q:
        k += 1
    return k


_LOG2_10 = math.log2(10)


def max_unique_batch(phi: int) -> int:
    """floor(log2(10^phi * (10^phi + 1))): the (AUC, LL) pairs for one LL exponent.

    A count, not a bound: the LL wire carries its own exponent, so a batch
    can separate more labelings, and no lookup refuses a batch past it.

    The log is 2 phi log2 10 + log2(1 + 10^-phi), never an integer (the
    count has a factor 5).  Doubles bracket it, and only a bracket that
    holds an integer has the count multiplied out: 10^phi has phi digits.
    """
    if phi < 1:
        raise ValidationError("need at least one significant digit")
    # the constant (libm's log2), 2 phi as a double and their product are
    # each within 2^-52 of their size, so x is within 2^-50 x of the first
    # term, and margin also covers rounding the ends; the second term lies
    # in (0, 1.5 * 10^-phi), and 10^-300 bounds it past phi 300
    x = 2 * phi * _LOG2_10
    margin = x * 2.0**-48
    low, high = math.floor(x - margin), math.floor(x + margin + 1.5 * 10.0 ** -min(phi, 300))
    if low == high:
        return low
    states = 10**phi * (10**phi + 1)
    return states.bit_length() - 1


def query_bound(n: int, phi: int) -> int:
    """ceil(n / (6 * phi)) queries to recover n labels at phi digits.

    The 6*phi in the denominator is an optimistic per-query capacity
    figure (log2 10 rounded down to 3 bits per score, two scores), not a
    guarantee: the curated vectors reach 5, 8 and 12 points at phi 1-3,
    short of 6, 12 and 18.  The `plan` command prints this bound beside
    plan_batches' schedule, which can need more queries.
    """
    if n < 1:
        raise ValidationError("need at least one label")
    if phi < 1:
        raise ValidationError("need at least one significant digit")
    return -(-n // (6 * phi))


# Batch prediction vectors found by an offline annealing search over
# numerators, re-verified exactly, and frozen here.  Every prefix of every
# vector separates all labelings of that prefix (checked in the test
# suite), so slicing the front yields a working smaller batch.  Each is the
# largest prefix-closed vector found at its precision, not a proven
# maximum.  Larger injective vectors can exist without that property: at
# two digits a nine-point vector separates all 512 labelings, but every
# eight of its points collide, so no ordering of it is prefix-closed, and a
# scan over logits in [-45, 45] found no ninth point extending the vector
# below.  Whether 10 or more points are reachable at two digits is open.
_CURATED_NUMERATORS: Mapping[int, tuple[tuple[int, int], ...]] = {
    1: tuple((a, 10**7) for a in (16, 21, 74, 2117, 248959)),
    2: tuple(
        (a, 10**6)
        for a in (1, 58, 3512, 60729, 66818, 79784, 425597, 219830)
    ),
    3: tuple(
        (a, 10**7)
        for a in (
            59, 389, 400, 434, 1795, 2282,
            3187, 4620, 55822, 144813, 3050190, 9875102,
        )
    ),
}


def curated_batch_vector(phi: int) -> tuple[Fraction, ...]:
    """The frozen vector of the highest precision at or below phi.

    A vector that separates at phi' digits need not separate at more, so
    build_tuple_lookup verifies each prefix at the precision it serves.
    """
    if phi < 1:
        raise ValidationError("need at least one significant digit")
    pairs = _CURATED_NUMERATORS[min(phi, max(_CURATED_NUMERATORS))]
    return tuple(Fraction(a, d) for a, d in pairs)


class TupleLookup(_Frozen):
    """Inverse table from (LL wire, AUC wire) pairs back to labelings.

    Each value is the labeling's bitmask, bit i labelling point i, and
    equal wires in the keys are one shared str: at three digits the 4096
    labelings of the curated vector have 568 distinct LL wires.
    """

    entries: tuple[Fraction, ...]
    phi: int
    table: Mapping[tuple[str, str], int]

    def __init__(self, entries: tuple[Fraction, ...], phi: int, table: Mapping) -> None:
        self.__dict__.update(entries=entries, phi=phi, table=table)

    def labeling_for(self, ll: DecimalScore, auc_score: DecimalScore) -> Labeling:
        ll_wire, auc_wire = ll.wire(), auc_score.wire()
        mask = self.table.get((ll_wire, auc_wire))
        if mask is None:
            raise DecodeError(
                f"tuple ({ll_wire}, {auc_wire}) matches no labeling of this batch"
            )
        return _mask_labeling(mask, len(self.entries))


# enumeration guard: verifying a b-point batch scores all 2^b labelings
LOOKUP_MAX_BATCH = 16


def _guard_batch_size(b: int) -> None:
    # rejecting up front keeps an unaffordable 2^b enumeration from starting
    if b < 1:
        raise ValidationError("batch must hold at least one point")
    if b > LOOKUP_MAX_BATCH:
        raise ValidationError(
            f"batch of {b} exceeds the enumeration guard of {LOOKUP_MAX_BATCH}"
        )


def _tuple_table(entries: tuple[Fraction, ...], phi: int) -> dict[tuple[str, str], int]:
    """Map rounded tuples to labeling bitmasks, from 3b double logarithms for all 2^b.

    Labeling ``mask`` (bit i labels point i) adds one per-point step to the
    log-loss sum and the doubled midrank sum of the mask without its lowest
    bit; both sums run in arrays of machine numbers.  AUC is exact, and
    _rounded_auc writes it through core._bracket_wire.
    Each LL is bracketed by the error bound below and rounded by the same
    rule, the one the curator writes every wire by; a bracket
    whose ends round apart is rescored by logloss_decimal, so keys are what
    an oracle puts on the wire.  Equal wires are kept as one str.  Raises
    LookupBuildError naming the first two labelings, in mask order, that
    round to the same tuple.
    """
    vec = PredictionVector(entries)
    b = len(vec)
    logs = [
        (math.log(x.denominator), math.log(x.denominator - x.numerator), math.log(x.numerator))
        for x in entries
    ]
    # A labeling's sum of -ln(part / q) is at most sum ln q.  Each log is
    # within 2^-51 of its size (see logloss_decimal), and each of the 2b
    # differences, the b - 1 additions of the first sum, the at most b steps
    # to any other, the division by b and each bracket end rounds within
    # 2^-53 of a value no larger than sum ln q.  So an end misses its mark
    # by under 2^-49 * width, width the sum of all 3b logs: half the margin.
    zero = [lq - l0 for lq, l0, _ in logs]
    deltas = [l0 - l1 for _, l0, l1 in logs]  # one step minus zero step
    margin = sum(map(sum, logs)) * 2.0**-48
    sums, ranks = array("d", [sum(zero)]), array("l", [0])
    # doubled midrank: 2 * (points below) + (points tied, itself included) + 1
    rank2 = [2 * sum(y < x for y in entries) + entries.count(x) + 1 for x in entries]
    wires: dict[str, str] = {}

    @cache
    def auc_wire(r2: int, pos: int) -> str:  # auc_exact's value, rounded
        wire = _rounded_auc(_auc_value(r2, pos, b), phi).wire()
        return wires.setdefault(wire, wire)

    table: dict[tuple[str, str], int] = {}
    for mask in range(1 << b):
        if mask:
            rest, low = mask & (mask - 1), (mask & -mask).bit_length() - 1
            sums.append(sums[rest] + deltas[low])
            ranks.append(ranks[rest] + rank2[low])
        ll = sums[mask] / b
        wire = _bracket_wire(ll - margin, ll + margin, phi)
        if wire is None:
            wire = logloss_decimal(vec, _mask_labeling(mask, b), phi).wire()
        key = (wires.setdefault(wire, wire), auc_wire(ranks[mask], mask.bit_count()))
        other = table.get(key)
        if other is not None:
            raise LookupBuildError(
                f"labelings {_mask_labeling(other, b).to_string()} and "
                f"{_mask_labeling(mask, b).to_string()} both round to {key} "
                f"at {phi} significant digits"
            )
        table[key] = mask
    return table


def tuple_lookup_for(entries: Sequence[Fraction], phi: int) -> TupleLookup:
    """Verify one specific prediction vector and build its inverse table.

    Raises LookupBuildError naming both labelings when two of them round
    to the same (LL, AUC) tuple at phi digits.
    """
    vec = tuple(Fraction(e) for e in entries)
    _guard_batch_size(len(vec))
    return TupleLookup(entries=vec, phi=phi, table=_tuple_table(vec, phi))


_LOOKUP_CACHE: dict[tuple[int, int], TupleLookup] = {}


def build_tuple_lookup(b: int, phi: int) -> TupleLookup:
    """The verified lookup for the first b points of the curated vector.

    These prefixes are the only tuple-table batches plan_batches asks for.
    Each is verified by exhaustive enumeration of its 2^b labelings on
    first use and cached per (phi, b).  Raises ValidationError when the
    enumeration guard rules b out or no curated vector reaches b points at
    phi digits.
    """
    _guard_batch_size(b)
    key = (phi, b)
    found = _LOOKUP_CACHE.get(key)
    if found is None:
        curated = curated_batch_vector(phi)
        if len(curated) < b:
            raise ValidationError(
                f"no curated vector reaches {b} points at {phi} significant digits"
            )
        found = _LOOKUP_CACHE[key] = tuple_lookup_for(curated[:b], phi)
    return found


class BatchSpec(_Frozen):
    """One planned oracle query: which indices, padded by which recovered ones."""

    indices: tuple[int, ...]
    fill: tuple[int, ...]  # already-recovered indices used as padding

    def __init__(self, indices: tuple[int, ...], fill: tuple[int, ...] = ()) -> None:
        self.__dict__.update(indices=indices, fill=fill)


class AttackPlan(_Frozen):
    """Query schedule for recovering n labels from a phi-digit oracle.

    `plan` prints max_unique_batch(phi) and query_bound(n, phi) beside it.
    """

    n: int
    phi: int
    method: str  # "tuple-table" or "binary-decimal"
    batch_size: int
    batches: tuple[BatchSpec, ...]

    def __init__(
        self, n: int, phi: int, method: str, batch_size: int, batches: tuple[BatchSpec, ...],
    ) -> None:
        self.__dict__.update(
            n=n, phi=phi, method=method, batch_size=batch_size, batches=batches,
        )

    @property
    def planned_queries(self) -> int:
        return len(self.batches)


def plan_batches(n: int, phi: int) -> AttackPlan:
    """Choose batch size and method for a phi-digit oracle over n points.

    Picks the larger of the curated tuple-table batch and the biggest
    binary-construction batch the decoder separates at this precision;
    neither shrinks as phi grows.  The realized schedule can need more
    queries than query_bound's optimistic formula promises.
    """
    if n < 1:
        raise ValidationError("need at least one label")
    b_table = len(curated_batch_vector(phi))
    b_binary = _largest_binary_batch(phi)
    if b_table >= b_binary:
        method, size = "tuple-table", b_table
    else:
        method, size = "binary-decimal", b_binary
    batches = []
    for start in range(0, n, size):
        chunk = tuple(range(start, min(start + size, n)))
        fill: tuple[int, ...] = ()
        if method == "tuple-table" and len(chunk) < size and start > 0:
            # keep the verified batch length by re-asking already
            # recovered indices; their answers double as a lie detector
            fill = tuple(range(start - (size - len(chunk)), start))
        batches.append(BatchSpec(indices=chunk, fill=fill))
    return AttackPlan(
        n=n,
        phi=phi,
        method=method,
        batch_size=size,
        batches=tuple(batches),
    )


def batched_inference(
    oracle: ScoringView, n: int, phi: int
) -> tuple[Labeling, AttackPlan]:
    """Recover all n hidden labels from a phi-digit scoring oracle.

    Executes plan_batches: each query scores one batch of indices, and the
    rounded (LL, AUC) pair is inverted through the curated tuple lookup or
    by the binary decimal decoder, whose labeling must rescore to both.
    Returns the labeling and the executed plan (one query per batch, exactly).
    """
    plan = plan_batches(n, phi)
    recovered: list[int | None] = [None] * n
    for batch in plan.batches:
        ask = batch.fill + batch.indices
        if plan.method == "tuple-table":
            lookup = build_tuple_lookup(len(ask), phi)
            ll, auc_score = oracle.decimal_scores(lookup.entries, phi, indices=ask)
            labeling = lookup.labeling_for(ll, auc_score)
        else:
            ll, auc_score = oracle.decimal_scores_for_binary(len(ask), phi, indices=ask)
            labeling = decode_binary_from_decimal(ll, len(ask))
            if binary_decimal_response(labeling, phi) != (ll, auc_score):
                raise DecodeError(f"AUC {auc_score.wire()} contradicts the LL's labeling")
        for pos, bit in zip(ask, labeling.bits):
            if recovered[pos] is not None and recovered[pos] != bit:
                raise DecodeError(
                    f"oracle answers disagree on index {pos}; "
                    "the curator is not reporting honestly"
                )
            recovered[pos] = bit
    assert all(bit is not None for bit in recovered)
    return Labeling(tuple(recovered)), plan
