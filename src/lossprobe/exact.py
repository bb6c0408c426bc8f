"""Adversarial constructions whose exact scores decode back to the labels.

Three encodings, all driven by unique factorization:

* twin-prime: entry i is p_i/(p_i + 2) over twin pairs starting at (5, 7).
  The score's numerator is prod (p_i + 2), which reveals n; the reduced
  denominator is 2^m times the p_i of the 1-labeled points.
* binary-representation: entry i is a_i/(1 + a_i) with a_i = 2^(2^(i-1)).
  The reduced denominator is exactly 2^N where N's little-endian bits are
  the labels, so one exponent carries the whole labeling.
* multi-class: row i is (1, p_i, p_i^2, ...) / alpha_i over plain primes;
  the score divides prod alpha_i by prod p_i^(label_i - 1).

Decoders refuse anything that does not factor exactly as constructed:
a tampered score raises DecodeError rather than decoding to wrong labels.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
from itertools import accumulate, compress
from typing import Callable, NamedTuple, Sequence

from .core import (
    ClassLabeling,
    DecimalScore,
    ExactScore,
    Labeling,
    PredictionMatrix,
    PredictionVector,
    ScoreKind,
    _auc_value,
    _context,
    _ln2,
    _rounded_auc,
    _rounded_ll,
    _split_pow2,
    _wide_str,
    coprime_fraction,
)
from .errors import DecodeError, PrecisionError, ValidationError
from .primes import _LEAF, exponents_over, first_primes, remainders, tree_product, twin_primes

from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction


# Size guards: they keep demo-scale inputs from exploding.
TWIN_MAX_N = 100_000
MULTICLASS_MAX_CELLS = 10_000
# entry n of the binary construction is a 2^(n-1)-bit integer, so the
# vector itself stops being materializable long before the score does
BINARY_MAX_N = 32
# the decimal route never touches the huge integers, only ln C(n)
BINARY_DECIMAL_MAX_N = 4096


def _check_size(n: int, cap: int, what: str) -> None:
    """The one size guard: ValidationError before any work unless 1 <= n <= cap.

    what names the capped size, as in "binary construction capped at n".
    """
    if n < 1:
        raise ValidationError("need at least one datapoint")
    if n > cap:
        raise ValidationError(f"{what} = {cap}")


def build_twin_prime_vector(n: int) -> PredictionVector:
    """Entries p_i/(p_i + 2) over the first n lower twins (5/7, 11/13, ...).

    p and p + 2 are odd and 2 apart, so coprime: each entry is built as
    it stands, and no gcd runs.  The table holds 4-byte ints, so each
    numerator is a new int read off it.
    """
    _check_size(n, TWIN_MAX_N, "twin-prime construction capped at n")
    return PredictionVector(tuple(coprime_fraction(p, p + 2) for p in twin_primes(n)))


def _min_upper_bits(k: int) -> float:
    """A lower bound on log2 of the product of the first k upper twins.

    Every lower twin from 5 on is 5 mod 6, so the i-th is at least 6i - 1
    and its upper at least 6i + 1; prod (6i + 1) = 6^k Gamma(k + 7/6) / Gamma(7/6).
    """
    return k * math.log2(6) + (math.lgamma(k + 7 / 6) - math.lgamma(7 / 6)) / math.log(2)


def _upper_product(lowers: Sequence[int], n: int) -> int:
    """prod (p + 2) over lowers[:n], read in place: no list of the uppers.

    The uppers are multiplied in runs of _LEAF, as tree_product multiplies
    its values, and the runs through its product tree.
    """
    return tree_product(
        [math.prod(p + 2 for p in lowers[i : min(i + _LEAF, n)]) for i in range(0, n, _LEAF)]
    )


def _twin_exact(labels: Labeling) -> ExactScore:
    """The twin construction's exact score against labels, in closed form.

    prod (p_i + 2) / (2^zeros prod_{l_i = 1} p_i): 2, the uppers and the
    lowers from 5 on are pairwise distinct primes (p, p + 2 and p + 4 are
    all prime only for p = 3), so the parts are coprime and no gcd runs.
    """
    n = len(labels)
    _check_size(n, TWIN_MAX_N, "twin-prime construction capped at n")
    lowers = twin_primes(n)
    selected = tree_product(list(compress(lowers, labels.bits)))
    zeros = labels.bits.count(0)
    return ExactScore(
        value=coprime_fraction(_upper_product(lowers, n), selected << zeros), n=n
    )


def _numerator_fault(numerator: int, lowers: Sequence[int]) -> DecodeError:
    """Why numerator is no prefix product of the uppers: the first upper missing or repeated.

    Reports what peeling the uppers off one at a time would meet, from one
    remainder tree over their squares.  Either some upper of the table
    fails to divide numerator, or the table is at least as long as the
    numerator's bit length allows, so if all of it divides once the rest is
    smaller than the next upper, unless the table stopped at the guard.
    """
    squares = remainders(numerator, [(p + 2) ** 2 for p in lowers])
    i = next((i for i, (p, r) in enumerate(zip(lowers, squares)) if r % (p + 2) or not r), None)
    if i is not None and not squares[i]:
        return DecodeError(f"numerator contains {lowers[i] + 2} twice")
    if i is None and len(lowers) == TWIN_MAX_N:
        return DecodeError("numerator demands more twin primes than the guard allows")
    rest = numerator // _upper_product(lowers, len(lowers) if i is None else i)
    return DecodeError(f"numerator has an unexpected factor (stuck at {_wide_str(rest)})")


def _twin_labeling(value: Fraction, lowers: Sequence[int]) -> Labeling:
    """Read the labels off a denominator that must be 2^m * prod(lowers labeled 1).

    value's numerator is already the product of the uppers, so a denominator
    wider than it by more than one bit per point, past 2^n prod (p_i + 2),
    is refused unread.  Each lower's exponent in the odd part, capped at 1,
    is its bit; nothing else may be left, no lower may pass the cap, and m
    must be the number of zero bits.
    """
    width = value.denominator.bit_length()
    if width > value.numerator.bit_length() + len(lowers):
        raise DecodeError(f"denominator of {width} bits is wider than {len(lowers)} points allow")
    m, odd = _split_pow2(value.denominator)
    bits, rest, twice = exponents_over(odd, lowers, 1)
    if rest != 1:
        raise DecodeError(f"denominator has a foreign factor {_wide_str(rest)}")
    if twice:
        raise DecodeError(f"denominator contains {twice[0]} twice")
    zeros = bits.count(0)
    if m != zeros:
        raise DecodeError(f"power of two {m} disagrees with the {zeros} zero-labeled points")
    return Labeling(tuple(bits))


# uppers a bare twin numerator must be divisible by before a longer table is
# built; a power of two, so small decodes share its table
_PREFIX = 64
# the table doubles only while the doubled prefix has at most 2^-_PREFIX_SHARE
# of the numerator's bits: the divisions then cost a few percent of the full
# scan a late fault needs anyway
_PREFIX_SHARE = 6


def decode_twin_prime_value(value: Fraction) -> Labeling:
    """Recover the labeling from a bare twin-prime score value; n is inferred.

    The table starts at _PREFIX uppers and doubles while they all divide the
    numerator and the doubled prefix, by _min_upper_bits, stays short beside
    it; then it jumps to a size from the numerator's bit length rounded up
    to a power of two.  So a junk numerator is refused off the first prefix
    that does not divide.  n is where the prefix sums of log2(p_i + 2) over
    that table meet log2 of the numerator, and the numerator must equal the
    product of the first n upper twins; if not, its first missing or
    repeated upper lies among the first n + 1.
    """
    numerator = value.numerator
    if numerator <= 1:
        raise DecodeError("numerator of 1 encodes no datapoints")
    size = bisect_left(
        range(1, TWIN_MAX_N + 1), numerator.bit_length(), key=_min_upper_bits
    )
    # a power-of-two size lets values of nearby sizes share a cached table
    size = min(1 << max(size - 1, 0).bit_length(), TWIN_MAX_N)
    k, done = min(size, _PREFIX), 0
    lowers = twin_primes(k)
    # uppers are distinct primes, so a prefix divides once those past the last prefix do
    while k < size and numerator % _upper_product(lowers[done:], k - done) == 0:
        done, k = k, min(2 * k, size)
        if _min_upper_bits(k) > numerator.bit_length() >> _PREFIX_SHARE:
            k = size
        lowers = twin_primes(k)
    # consecutive sums differ by log2 7 or more, so half a bit absorbs float error
    bound = math.log2(numerator) + 0.5
    sums = accumulate(math.log2(p + 2) for p in lowers)
    n = next((i for i, s in enumerate(sums) if s > bound), len(lowers))
    if numerator != _upper_product(lowers, n):
        raise _numerator_fault(numerator, lowers[: n + 1])
    return _twin_labeling(value, lowers[:n])


def decode_twin_prime(score: ExactScore) -> Labeling:
    """Recover the labeling from a twin-prime exact score over twin_primes(score.n)."""
    n = score.n
    numerator = score.value.numerator
    # too few bits for n uppers rules n out before any table is built
    if n <= TWIN_MAX_N and _min_upper_bits(n) < numerator.bit_length():
        lowers = twin_primes(n)
        if numerator == _upper_product(lowers, n):
            return _twin_labeling(score.value, lowers)
    # not n uppers: decoding with n inferred names the fault or the n encoded
    labeling = decode_twin_prime_value(score.value)
    raise DecodeError(
        f"score claims n = {score.n} but the factorization encodes {len(labeling)}"
    )


def build_binary_vector(n: int) -> PredictionVector:
    """Entries a_i/(1 + a_i) with a_i = 2^(2^(i-1)): 2/3, 4/5, 16/17, ..."""
    _check_size(n, BINARY_MAX_N, "binary construction capped at n")
    entries = []
    for i in range(1, n + 1):
        a = 1 << (1 << (i - 1))
        entries.append(coprime_fraction(a, a + 1))
    return PredictionVector(tuple(entries))


def decode_binary(score: ExactScore) -> Labeling:
    """Read the labeling out of the reduced denominator's exponent of two."""
    n = score.n
    _check_size(n, BINARY_MAX_N, "binary construction capped at n")
    numerator, denominator = score.value.numerator, score.value.denominator
    expected_bits = 1 << n
    if numerator.bit_length() != expected_bits:
        raise DecodeError("numerator is not the binary-construction product for this n")
    # exact all-ones check: prod (1 + a_i) == 2^(2^n) - 1
    if numerator.bit_count() != expected_bits:
        raise DecodeError("numerator is not the binary-construction product")
    if denominator.bit_count() != 1:
        raise DecodeError("denominator is not a power of two")
    exponent = denominator.bit_length() - 1
    if exponent >= expected_bits:
        raise DecodeError(f"denominator exponent {exponent} needs more than {n} points")
    return _mask_labeling(exponent, n)


# A labeling and its bitmask N = sum l_i 2^(i-1) meet in N's binary digits,
# l_n first: one conversion each way instead of a shift per point.
_BITS_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\0\1")


def _bitmask(labels: Labeling) -> int:
    return int(bytes(labels.bits[::-1]).translate(_BITS_TO_DIGITS), 2)


def _mask_labeling(mask: int, n: int) -> Labeling:
    return Labeling(tuple(format(mask, f"0{n}b").encode()[::-1].translate(_DIGITS_TO_BITS)))


def _binary_exact(labels: Labeling) -> ExactScore:
    """The binary construction's exact score against labels, in closed form.

    The entries' denominators telescope to 2^(2^n) - 1 and the selected
    numerators multiply to 2^N, N the labeling's bitmask: an odd numerator
    over a power of two, coprime, with no vector and no gcd.
    """
    n = len(labels)
    _check_size(n, BINARY_MAX_N, "binary construction capped at n")
    return ExactScore(value=coprime_fraction((1 << (1 << n)) - 1, 1 << _bitmask(labels)), n=n)


def _binary_log(n: int, exponent: int, digits: int) -> Decimal:
    """ln((2^(2^n) - 1) / 2^exponent), n LL of the binary construction, to digits.

    The entries' denominators telescope, prod (1 + 2^(2^(i-1))) = 2^(2^n) - 1,
    so the value is (2^n - exponent) ln 2 + ln(1 - 2^-2^n).  The first term
    is at least ln 2 and the second at least ln(3/4), so nothing cancels and
    the working precision does not grow with n; past 4 * digits + 40 bits
    the second term is below every digit kept.
    """
    with localcontext(_context(digits + 10)):
        width = 1 << n
        value = (width - exponent) * _ln2(digits + 10)
        if width <= 4 * digits + 40:
            value += (1 - Decimal(2) ** -width).ln()
        return value


def decode_binary_from_decimal(ll: DecimalScore, n: int) -> Labeling:
    """Recover the labeling from a rounded log-loss of the binary construction.

    With M = 2^n - N, n LL = M ln 2 + ln(1 - 2^-2^n): nothing cancels near
    the all-ones end, so at 2 phi + 10 digits the wire's bin, widened by
    half a unit of its last digit, inverts to an interval of M far finer
    than one step.  Each exponent in it is rescored exactly, and exactly one
    must round to the wire.  An interval of more than four exponents, or
    more than one match, raises PrecisionError; no match raises DecodeError.
    """
    if ll.kind is not ScoreKind.LOGLOSS:
        raise ValidationError("need a log-loss score")
    _check_size(n, BINARY_DECIMAL_MAX_N, "binary decimal route capped at n")
    phi, wire, width = ll.phi, Decimal(ll.digits), 1 << n
    sig = 2 * phi + 10  # _binary_ll's first precision, so ln 2 is computed once
    first, last = 1, 0
    if 0 < wire < width:  # every LL of n points is below 2^n
        with localcontext(_context(sig + 10)):
            half = Decimal((0, (5,), wire.adjusted() - phi))  # half a unit of the last digit
            tail = _binary_log(n, width, sig)  # exponent 2^n leaves ln(1 - 2^-2^n)
            lo, hi = ((n * x - tail) / _ln2(sig + 10) for x in (wire - half, wire + half))
            slack = (hi + 1).scaleb(-sig)  # far above the few ulps of error
            first = max(first, int((lo - slack).to_integral_value(ROUND_CEILING)))
            last = min(width, int((hi + slack).to_integral_value(ROUND_FLOOR)))
    if last - first >= 4:
        raise PrecisionError(f"{phi} digits leave {last - first + 1} exponents at {ll.digits}")
    matches = [
        exponent for exponent in range(width - last, width - first + 1)
        if Decimal(_binary_ll(n, exponent, phi).digits) == wire
    ]
    if not matches:
        raise DecodeError(f"no exponent of {n} points rounds to {ll.digits}")
    if len(matches) > 1:
        raise PrecisionError(
            f"{phi} digits: exponents {', '.join(map(str, matches))} all round to {ll.digits}"
        )
    return _mask_labeling(matches[0], n)


def _binary_ll(n: int, exponent: int, phi: int) -> DecimalScore:
    """The binary construction's LL at bitmask exponent, rounded to phi digits."""
    # below n = 1024 a double holds 2^n: (2^n - N) ln 2 is a product of two
    # correctly rounded doubles, within 2^-51; log1p is within an ulp of the
    # ln(1 - 2^-2^n) a double holds, and the rest (< 2^-1074) is in the margin
    terms = None
    if n < 1024:
        width = 1 << n
        terms = ((width - exponent) * math.log(2), math.log1p(-(2.0**-width)))
    return _rounded_ll(partial(_binary_log, n, exponent), n, phi, terms)


def _largest_binary_batch(phi: int) -> int:
    """The most points decode_binary_from_decimal separates at phi digits.

    Adjacent exponents' LLs are ln 2 / b apart; b points fit when that
    exceeds one unit in the phi-th digit of the top LL, C(b)/b.  That unit
    is 10^(top.adjusted() + 1 - phi), and ln 2 / b is never a power of ten,
    so the leading-digit places decide: no Decimal is built at the unit's
    exponent, which scaleb refuses past about 2 * 10^6 digits.  The gap
    shrinks and the top LL grows with b, so the batches that fit form a prefix.
    """
    def too_big(b: int) -> bool:
        ctx = _context(30)
        top = ctx.divide(_binary_log(b, 0, 20), b)
        return ctx.divide(_ln2(30), b).adjusted() <= top.adjusted() - phi

    return bisect_left(range(1, BINARY_DECIMAL_MAX_N + 1), True, key=too_big)


def binary_decimal_response(labels: Labeling, phi: int) -> tuple[DecimalScore, DecimalScore]:
    """(LL, AUC) of the binary construction against labels, in closed form.

    LL = (C(n) - N ln 2) / n with N the labeling's bitmask, and AUC follows
    from rank sums since the entries are strictly increasing.  Nothing here
    grows with 2^(2^n), so a curator can answer far past the sizes where
    the construction's entries stop fitting in memory.  Agrees digit for
    digit with scoring the materialized vector.
    """
    if phi < 1:
        raise ValidationError("need at least one significant digit")
    n = len(labels)
    _check_size(n, BINARY_DECIMAL_MAX_N, "binary decimal route capped at n")
    # point i has rank i, so the doubled rank sum adds 2i over the positives
    rank2 = sum(compress(range(2, 2 * n + 1, 2), labels.bits))
    auc_value = _auc_value(rank2, sum(labels.bits), n)
    return _binary_ll(n, _bitmask(labels), phi), _rounded_auc(auc_value, phi)


class _Construction(NamedTuple):
    """A served construction: its builder, its exact decoder, its exact
    answer in closed form and, where a closed form exists, its rounded
    (LL, AUC) answer."""

    build: Callable[[int], PredictionVector]
    decode: Callable[[ExactScore], Labeling]
    exact: Callable[[Labeling], ExactScore]
    rounded: Callable[[Labeling, int], tuple[DecimalScore, DecimalScore]] | None


# the one name -> construction table behind named queries, attacks and the CLI
_CONSTRUCTIONS = {
    "twin": _Construction(build_twin_prime_vector, decode_twin_prime, _twin_exact, None),
    "binary": _Construction(
        build_binary_vector, decode_binary, _binary_exact, binary_decimal_response
    ),
}


def build_multiclass_matrix(n: int, k: int) -> PredictionMatrix:
    """Row i is (1, p_i, ..., p_i^(k-1)) / alpha_i over the plain primes 2, 3, 5, ...

    alpha_i = 1 + p_i + ... + p_i^(k-1) normalizes each row to sum 1.
    """
    if k < 2:
        raise ValidationError("need at least two classes")
    # with k >= 2, n * k < 1 exactly when n < 1
    _check_size(n * k, MULTICLASS_MAX_CELLS, "multi-class construction capped at n * k")
    rows = []
    for p in first_primes(n):
        alpha = (p**k - 1) // (p - 1)
        rows.append(tuple(Fraction(p**j, alpha) for j in range(k)))
    return PredictionMatrix(tuple(rows))


def decode_multiclass(score: ExactScore, k: int) -> ClassLabeling:
    """Recover class labels from a multi-class exact score over score.n points.

    The score equals prod(alpha_i) / M with M = prod p_i^(label_i - 1);
    M is isolated exactly and each label read off p_i's exponent, capped at
    k - 1.  Anything else left in M, or an exponent past k - 1, raises.
    """
    n = score.n
    if k < 2:
        raise ValidationError("need at least two classes")
    _check_size(n * k, MULTICLASS_MAX_CELLS, "multi-class construction capped at n * k")
    primes = first_primes(n)
    alpha_product = 1
    for p in primes:
        alpha_product *= (p**k - 1) // (p - 1)
    m = Fraction(alpha_product) / score.value
    if m.denominator != 1:
        raise DecodeError("score does not divide the alpha product")
    exps, rest, over = exponents_over(m.numerator, primes, k - 1)
    if rest != 1:
        raise DecodeError(f"label product has a foreign factor {_wide_str(rest)}")
    if over:
        raise DecodeError(f"exponent of {over[0]} exceeds the class count")
    return ClassLabeling(tuple(e + 1 for e in exps), k)
