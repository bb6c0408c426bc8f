"""Core scoring types and operations.

The central object is the exact score: for predictions x in (0, 1)^n and
binary labels l, the per-point log-loss contributions sum to

    n * LL(x, l) = -sum_i [ l_i ln x_i + (1 - l_i) ln (1 - x_i) ],

so exp(n * LL) is the reciprocal of prod_i (x_i if l_i = 1 else 1 - x_i),
a ratio of integers.  Working with that reduced rational removes every
logarithm from the pipeline: no irrational number is ever materialized,
and scores can be compared, serialized, and factored exactly.  Serialized,
a score is decimal "p/q" text of any width: wide parts convert in halves,
and the interpreter's int/str digit limit is never read or set.

Rounded scores (``DecimalScore``) model a bounded-precision reporting
channel: a value is collapsed to a fixed number of significant digits
with half-even rounding and printed in normalized scientific notation.
Equality of rounded scores is string equality.
"""

from __future__ import annotations

import math
import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, ROUND_HALF_EVEN, localcontext
from decimal import DivisionByZero, InvalidOperation, Overflow
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import groupby
from operator import itemgetter
from typing import Callable

from .errors import ValidationError
from .primes import tree_product


def coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """Build a Fraction from parts already known to be coprime and positive.

    Skips the constructor's gcd pass, which matters when the parts are
    hundreds of megabytes (binary-representation scores).  Falls back to
    the public constructor if the private fast paths ever disappear.
    """
    try:
        return Fraction(numerator, denominator, _normalize=False)
    except TypeError:
        pass
    fast = getattr(Fraction, "_from_coprime_ints", None)
    if fast is not None:
        return fast(numerator, denominator)
    return Fraction(numerator, denominator)


def _split_pow2(value: int) -> tuple[int, int]:
    """value as (t, odd) with value = odd << t."""
    if value <= 0:
        raise ValidationError("positive integer required")
    if value & 1:
        return 0, value
    # a power of two is read off its length: value & -value would copy it
    if value.bit_count() == 1:
        return value.bit_length() - 1, 1
    t = (value & -value).bit_length() - 1
    return t, value >> t


# True and 1.0 equal 1, so a label's type is read first (and a type always hashes)
_BITS, _INT_ONLY = frozenset((0, 1)), frozenset((int,))


class _Frozen:
    """An immutable record, as dataclass(frozen=True) makes one, without its import.

    A subclass annotates its fields in order, and its own __init__ writes
    them into the instance __dict__.  ==, hash, repr and the AttributeError
    on assignment or deletion are a frozen dataclass's.
    """

    __match_args__: tuple[str, ...] = ()  # the fields, in order

    def __init_subclass__(cls) -> None:  # those inherited, then the class's own
        cls.__match_args__ += tuple(cls.__annotations__)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Labeling(_Frozen):
    """Binary labels, one per datapoint, index 1 leftmost."""

    bits: tuple[int, ...]

    def __init__(self, bits: tuple[int, ...]) -> None:
        if len(bits) < 1:
            raise ValidationError("a labeling needs at least one bit")
        if not (_INT_ONLY.issuperset(map(type, bits)) and _BITS.issuperset(bits)):
            raise ValidationError("labeling bits must be 0 or 1")
        self.__dict__["bits"] = bits

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def from_string(cls, text: str) -> "Labeling":
        if not text or any(c not in "01" for c in text):
            raise ValidationError(f"not a bitstring: {text!r}")
        return cls(tuple(int(c) for c in text))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)


class ClassLabeling(_Frozen):
    """Multi-class labels in 1..k, one per datapoint."""

    classes: tuple[int, ...]
    k: int

    def __init__(self, classes: tuple[int, ...], k: int) -> None:
        if type(k) is not int or k < 2:
            raise ValidationError("need at least two classes")
        if len(classes) < 1:
            raise ValidationError("a labeling needs at least one entry")
        if any(type(c) is not int or not 1 <= c <= k for c in classes):
            raise ValidationError("class labels must lie in 1..k")
        self.__dict__.update(classes=classes, k=k)

    def __len__(self) -> int:
        return len(self.classes)

    @classmethod
    def from_string(cls, text: str, k: int) -> "ClassLabeling":
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValidationError(f"not a class list: {text!r}") from None
        return cls(values, k)

    def to_string(self) -> str:
        return ",".join(str(c) for c in self.classes)


class PredictionVector(_Frozen):
    """Per-point probabilities of the positive class, each strictly in (0, 1).

    Endpoints are rejected up front: a probability of exactly 0 or 1 makes
    the log-loss infinite for one labeling, and keeping the open interval
    keeps every score finite and every reciprocal well defined.
    """

    entries: tuple[Fraction, ...]

    def __init__(self, entries: tuple[Fraction, ...]) -> None:
        if len(entries) < 1:
            raise ValidationError("a prediction vector needs at least one entry")
        for x in entries:
            if not isinstance(x, Fraction):
                raise ValidationError("entries must be Fractions")
            # integer parts, not Fraction comparisons: those multiply the
            # parts by 0 and 1, copies of huge integers for the binary entries
            if not 0 < x.numerator < x.denominator:
                raise ValidationError(
                    f"prediction {_wide_str(x)} outside the open interval (0, 1)"
                )
        self.__dict__["entries"] = entries

    def __len__(self) -> int:
        return len(self.entries)

    # The product of the denominators, the same for every labeling, is kept
    # as (shift, odd part).  Two rules keep power-of-two heavy constructions
    # (the binary one) in shift territory: a power of two splits by its
    # length alone (_split_pow2), and an odd part 2^k + 1 is folded into the
    # product by a shift and an add, so 2^(2^n) - 1 is never multiplied out.
    @cached_property
    def _denominator_product(self) -> tuple[int, int]:
        shift = 0
        odds = []
        folds = []
        for x in self.entries:
            s, o = _split_pow2(x.denominator)
            shift += s
            if o.bit_count() == 2:
                folds.append(o)
            elif o > 1:
                odds.append(o)
        # 2^k + 1 at least as wide as the fold so far goes in by a shift and
        # an add; each such fold doubles the width, so together they take time
        # linear in the result.  Narrower ones (a run of thirds) join the tree.
        folded = 1
        for o in sorted(folds):
            k = o.bit_length() - 1
            if k < folded.bit_length():
                odds.append(o)
            else:
                folded += folded << k
        rest = tree_product(odds)
        # even times 1, a product copies the 512 MB fold of binary n = 32
        return shift, folded * rest if rest > 1 else folded


class PredictionMatrix(_Frozen):
    """Row-stochastic class probabilities: rows[i][c] in (0, 1), each row sums to 1."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: tuple[tuple[Fraction, ...], ...]) -> None:
        if len(rows) < 1:
            raise ValidationError("a prediction matrix needs at least one row")
        k = len(rows[0])
        if k < 2:
            raise ValidationError("need at least two classes per row")
        for row in rows:
            if len(row) != k:
                raise ValidationError("ragged prediction matrix")
            for x in row:
                if not isinstance(x, Fraction) or not 0 < x.numerator < x.denominator:
                    raise ValidationError("matrix entries must be Fractions in (0, 1)")
            if sum(row) != 1:
                raise ValidationError("each row must sum to exactly 1")
        self.__dict__["rows"] = rows

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0])


class ExactScore(_Frozen):
    """exp(n * LL) as a reduced rational, with the dataset size it belongs to."""

    value: Fraction
    n: int

    def __init__(self, value: Fraction, n: int) -> None:
        # type(), not isinstance: a JSON true must not pass as n = 1
        if type(n) is not int or n < 1:
            raise ValidationError("score needs a positive dataset size")
        # the numerator alone: Fraction <= 0 multiplies (copies) both parts,
        # half a gigabyte each for a binary n = 32 score; denominators are > 0
        if value.numerator <= 0:
            raise ValidationError("exact scores are positive by construction")
        self.__dict__.update(value=value, n=n)


class ScoreKind(Enum):
    LOGLOSS = "logloss"
    AUC = "auc"
    AUC_NOT_DEFINED = "auc_not_defined"


class DecimalScore(_Frozen):
    """A value rounded half-even to exactly phi significant digits.

    ``digits`` is the normalized scientific form, e.g. ``"6.93e-1"``;
    it is empty exactly when the kind is AUC_NOT_DEFINED.  Two rounded
    scores are equal iff their strings are equal.
    """

    digits: str
    phi: int
    kind: ScoreKind

    def __init__(self, digits: str, phi: int, kind: ScoreKind) -> None:
        if phi < 1:
            raise ValidationError("need at least one significant digit")
        if kind is ScoreKind.AUC_NOT_DEFINED:
            if digits:
                raise ValidationError("an undefined AUC carries no digits")
        elif not digits:
            raise ValidationError("a defined score needs digits")
        self.__dict__.update(digits=digits, phi=phi, kind=kind)

    def wire(self) -> str:
        return "ND" if self.kind is ScoreKind.AUC_NOT_DEFINED else self.digits


def round_fraction_sig(value: Fraction, phi: int) -> str:
    """Round a nonnegative rational to phi significant digits, half-even, exactly.

    Decimal division is correctly rounded: the exact quotient of the two
    parts is rounded once, to the context's precision by its rounding, at
    any width (no str() of a part, so no digit cap), and _bracket_wire
    writes it.  Decimal(0) would format with a shifted exponent, so zero
    is written from a double.
    """
    if phi < 1:
        raise ValidationError("need at least one significant digit")
    num, den = value.numerator, value.denominator
    if num < 0:
        raise ValidationError("negative values are not produced by these scores")
    if num == 0:
        return _bracket_wire(0.0, 0.0, phi)
    quotient = _context(phi).divide(Decimal(num), Decimal(den))
    return _bracket_wire(quotient, quotient, phi)


@lru_cache
def _context(prec: int) -> Context:
    """prec digits, half-even, over every exponent decimal can hold; one per prec.

    Every Decimal stage runs in one: the caller's thread context, which a bare
    localcontext() copies, could round a tiny log loss to zero or overflow.
    """
    traps = [InvalidOperation, DivisionByZero, Overflow]  # not the process's DefaultContext's
    return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=traps)


def _bracket_wire(lo: float | Decimal, hi: float | Decimal, phi: int) -> str | None:
    """The phi-digit wire of every value in [lo, hi], or None when its ends round apart.

    format() rounds a double or a Decimal half-even at its exact value (a
    Decimal by _context's rounding), and rounding is monotone, so ends that
    round alike pin everything between.  This is the one rule that writes
    every wire, log loss or AUC, served or looked up; an AUC comes here
    already rounded, as a bracket of one point.
    """
    spec = f".{phi - 1}e"
    with localcontext(_context(phi)):
        low = format(lo, spec)
        if low != format(hi, spec):
            return None
    mantissa, _, exponent = low.partition("e")
    return f"{mantissa}e{int(exponent)}"  # e-01 and e+0 as e-1 and e0


@lru_cache
def _ln2(prec: int) -> Decimal:
    """ln 2 correctly rounded to prec digits; Decimal.ln is superlinear in prec."""
    return _context(prec).ln(Decimal(2))


def _ln_positive_int(m: int, prec: int) -> Decimal:
    """ln(m) for m >= 1, in the context _ln_fraction enters for prec digits.

    Very wide integers are cut down to a top slice first: with
    m = head * 2^shift * (1 + delta), delta < 2^(1 - kept_bits), so keeping
    a few bits more than prec / log10(2) leaves the truncation far below
    the working ulp.  Decimal(m) on a multi-hundred-megabyte int would
    otherwise do a quadratic base conversion.
    """
    kept = 4 * prec + 32
    if m.bit_length() <= kept:
        return Decimal(m).ln()
    shift = m.bit_length() - kept
    return Decimal(m >> shift).ln() + shift * _ln2(prec)


def _ln_fraction(value: Fraction, sig_digits: int) -> Decimal:
    """ln(value) to at least sig_digits significant digits, deterministically.

    Doubles the working precision whenever cancellation between ln(p) and
    ln(q) eats into the guard digits (p/q near 1).
    """
    p, q = value.numerator, value.denominator
    magnitude = len(str(p.bit_length() + q.bit_length()))
    prec = sig_digits + 10 + magnitude
    while True:
        with localcontext(_context(prec)):
            lp = _ln_positive_int(p, prec)
            lq = _ln_positive_int(q, prec)
            result = lp - lq
        biggest = max(lp.adjusted(), lq.adjusted(), 0)
        lost = biggest - result.adjusted()
        if prec - lost >= sig_digits + 5:
            return result
        prec = prec * 2 + max(lost, 0)


def exact_score(x: PredictionVector, labels: Labeling) -> ExactScore:
    """The reciprocal of prod_i (x_i if l_i else 1 - x_i), reduced.

    Equal to exp(n * LL(x, labels)); exact for any valid inputs.  The
    numerator/denominator products are accumulated with their powers of
    two split out, so constructions built from powers of two reduce via
    shifts instead of big-integer gcds, and the odd parts are multiplied
    through a product tree rather than one long chain.  Only the side each
    label selects is split, x_i's numerator or its complement's, and
    nothing per entry is kept past the call; a power of two (the binary
    construction's numerators) splits by its length alone.
    """
    if len(x) != len(labels):
        raise ValidationError(
            f"vector has {len(x)} entries but labeling has {len(labels)}"
        )
    sel_shift = 0
    sel_odds = []
    for entry, bit in zip(x.entries, labels.bits):
        num = entry.numerator
        shift, odd = _split_pow2(num if bit else entry.denominator - num)
        sel_shift += shift
        if odd > 1:
            sel_odds.append(odd)
    sel_odd = tree_product(sel_odds)
    den_shift, den_odd = x._denominator_product
    common = min(sel_shift, den_shift)
    sel_shift -= common
    den_shift -= common
    if sel_odd > 1 and den_odd > 1:
        g = math.gcd(sel_odd, den_odd)
        if g > 1:
            sel_odd //= g
            den_odd //= g
    # x << 0 copies; guard so cached huge products are shared, not duplicated
    num = den_odd if den_shift == 0 else den_odd << den_shift
    den = sel_odd if sel_shift == 0 else sel_odd << sel_shift
    return ExactScore(value=coprime_fraction(num, den), n=len(x))


def exact_score_multiclass(v: PredictionMatrix, labels: ClassLabeling) -> ExactScore:
    """Reciprocal of prod_i v[i][l_i], the multi-class exact score."""
    if len(v) != len(labels):
        raise ValidationError(
            f"matrix has {len(v)} rows but labeling has {len(labels)}"
        )
    if v.k != labels.k:
        raise ValidationError(f"matrix has {v.k} classes but labeling says {labels.k}")
    product = Fraction(1)
    for row, c in zip(v.rows, labels.classes):
        product *= row[c - 1]
    return ExactScore(value=1 / product, n=len(v))


def _rounded_ll(
    ln_at: Callable[[int], Decimal], n: int, phi: int, terms: tuple[float, float] | None = None
) -> DecimalScore:
    """n * LL rounded half-even to phi significant digits, from ln_at(sig).

    terms, if given, are two doubles, each within 2^-50 of its own size of
    one of two terms summing to n * LL; if their bracket has one wire, that
    is the answer.  Otherwise ln_at(sig) returns n * LL to at least sig
    significant digits.  LL is bracketed by that error bound; when the two
    ends of the bracket round apart, sig doubles.  _bracket_wire decides
    every bracket.  Every score here is ln of a rational other than 1, over
    n, so LL is transcendental and never sits exactly on a tie: the loop
    ends, and the rounding is exact.
    """
    if terms is not None:
        a, b = terms
        # a + b is within 2^-50 (1 + 2^-49)(|a| + |b|) of n * LL, and the sum and
        # the division round within 2^-53 (|a| + |b|) / n each, so |ll - LL| is
        # under 2^-49 (|a| + |b|) / n; the margin's other half covers rounding
        # ll -+ margin, each within 2^-53 (|ll| + margin)
        ll = (a + b) / n
        margin = (abs(a) + abs(b)) / n * 2.0**-48
        wire = _bracket_wire(ll - margin, ll + margin, phi)
        if wire is not None:
            return DecimalScore(wire, phi, ScoreKind.LOGLOSS)
    sig = 2 * phi + 10
    while True:
        ln_value = ln_at(sig)
        ll = _context(max(sig, ln_value.adjusted() + sig)).divide(ln_value, n)
        # sig good digits from ln_at and from the division; MAX_PREC adds exactly
        exact = _context(MAX_PREC)
        margin = exact.scaleb(ll, 2 - sig)
        wire = _bracket_wire(exact.subtract(ll, margin), exact.add(ll, margin), phi)
        if wire is not None:
            return DecimalScore(wire, phi, ScoreKind.LOGLOSS)
        sig *= 2


def logloss_decimal(x: PredictionVector, labels: Labeling, phi: int) -> DecimalScore:
    """LL(x, labels) rounded half-even to phi significant digits.

    Computed as ln(exact score) / n and rounded exactly by _rounded_ll.
    """
    if phi < 1:
        raise ValidationError("need at least one significant digit")
    score = exact_score(x, labels)
    # math.log(m) is within 2^-51 ln m for an int m >= 2 (exact at 1): m rounds to a
    # double, or a mantissa and a power of two, within 2^-53, and libm's log to an ulp
    terms = (math.log(score.value.numerator), -math.log(score.value.denominator))
    return _rounded_ll(partial(_ln_fraction, score.value), score.n, phi, terms)


def _auc_value(rank2: int, pos: int, n: int) -> Fraction | None:
    """Mann-Whitney AUC from the positives' doubled rank sum; None when a class is empty."""
    return Fraction(rank2 - pos * (pos + 1), 2 * pos * (n - pos)) if 0 < pos < n else None


def _rounded_auc(value: Fraction | None, phi: int) -> DecimalScore:
    """An AUC rounded to phi significant digits; AUC_NOT_DEFINED for None."""
    if value is None:
        return DecimalScore(digits="", phi=phi, kind=ScoreKind.AUC_NOT_DEFINED)
    return DecimalScore(digits=round_fraction_sig(value, phi), phi=phi, kind=ScoreKind.AUC)


def auc_exact(x: PredictionVector, labels: Labeling) -> Fraction | None:
    """Mann-Whitney AUC as an exact rational; None when a class is empty.

    Ties get half credit, through doubled integer midranks of the entries.
    """
    if len(x) != len(labels):
        raise ValidationError(
            f"vector has {len(x)} entries but labeling has {len(labels)}"
        )
    rank2 = seen = 0
    # float(x) <= float(y) whenever x < y, so the Fractions compare only on a float tie
    keyed = sorted((float(e), e, bit) for e, bit in zip(x.entries, labels.bits))
    for _, run in groupby(keyed, key=itemgetter(0, 1)):
        bits = [bit for _, _, bit in run]
        # doubled midrank of the tied ranks seen + 1 .. seen + len(bits)
        rank2 += (2 * seen + len(bits) + 1) * sum(bits)
        seen += len(bits)
    return _auc_value(rank2, sum(labels.bits), len(labels))


def auc(x: PredictionVector, labels: Labeling, phi: int) -> DecimalScore:
    """Exact AUC rounded to phi significant digits; AUC_NOT_DEFINED if one-class."""
    return _rounded_auc(auc_exact(x, labels), phi)


# 2000 bits is 603 digits: leaves stay under 640, the lowest limit an interpreter accepts
_LEAF_BITS, _LEAF_DIGITS = 2000, 600
_pow10 = lru_cache(maxsize=32)(partial(pow, 10))
_pow2 = lru_cache(maxsize=32)(partial(_context(MAX_PREC).power, 2))  # exact Decimals


def _int_text(value: int) -> str:
    """str(value) at any width; past the leaves a Decimal prints it in linear time."""
    return str(value if value.bit_length() <= _LEAF_BITS else _exact_decimal(value))


def _exact_decimal(value: int) -> Decimal:
    """value as hi * 2^h + lo in exact Decimal arithmetic, which libmpdec multiplies fast."""
    if value.bit_length() <= _LEAF_BITS:
        return Decimal(value)
    h, exact = value.bit_length() // 2, _context(MAX_PREC)
    hi, lo = _exact_decimal(value >> h), _exact_decimal(value & ((1 << h) - 1))
    return exact.add(exact.multiply(hi, _pow2(h)), lo)


def _text_int(digits: str) -> int:
    """int(digits) for ASCII digits of any length: halves joined by a power of ten."""
    if len(digits) <= _LEAF_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _text_int(digits[:-k]) * _pow10(k) + _text_int(digits[-k:])


# a part wider than this is quoted by its leading digits and its size,
# which keeps a message readable
_QUOTE_BITS = 1 << 15


def _wide_str(value: int | Fraction) -> str:
    """value for a message that quotes a score's parts, at any width.

    Each part of up to _QUOTE_BITS bits (about 9860 digits) is written in
    full, as str() writes it; a wider part as its first 20 digits, then
    its digit and bit counts.
    """
    value = Fraction(value)
    parts = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
    return "/".join(map(_quote_int, parts))


def _quote_int(value: int) -> str:
    bits = value.bit_length()
    if bits <= _QUOTE_BITS:
        return _int_text(value)
    # value has more than (bits - 1) log10(2) digits, and 0.30103 overshoots
    # log10(2) by under 5e-9, so one division leaves 20 or more of them
    shift = bits * 30103 // 100000 - 21
    head = str(value // 10**shift)
    return f"{head[:20]}... ({shift + len(head)} digits, {bits} bits)"


def parse_rational(text: str) -> Fraction:
    """Parse ASCII 'p/q' (or a bare integer p) into a positive reduced Fraction."""
    if not isinstance(text, str):
        raise ValidationError(f"not a rational: {text!r}")
    p_text, slash, q_text = text.partition("/")
    # int() would also take signs, spaces, underscores and non-ASCII digits;
    # a denominator must keep a digit other than 0
    if not (text.isascii() and p_text.isdigit() and (q_text.strip("0").isdigit() or not slash)):
        raise ValidationError(f"not a rational: {text!r}")
    p, q = _text_int(p_text), _text_int(q_text) if slash else 1
    if not p:
        raise ValidationError(f"expected a positive rational, got {text!r}")
    return Fraction(p, q)


def format_rational(value: Fraction) -> str:
    """value as ASCII 'p/q' in decimal, at any width; parse_rational reads it back."""
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


_WIRE_SCORE = re.compile(r"\d(?:\.\d+)?e(-?\d+)\Z")


def parse_decimal_score(text: str, phi: int, kind: ScoreKind) -> DecimalScore:
    """Rebuild a DecimalScore from its wire form, the one form .wire() writes."""
    if text == "ND":
        if kind is not ScoreKind.LOGLOSS:
            return DecimalScore(digits="", phi=phi, kind=ScoreKind.AUC_NOT_DEFINED)
        raise ValidationError("a log loss is always defined")
    m = _WIRE_SCORE.match(text)
    if m is None:
        raise ValidationError(f"not a rounded score: {text!r}")
    # no context holds an exponent past MAX_EMAX; far past it Decimal() raises
    exponent = m.group(1).lstrip("-").lstrip("0")
    if len(exponent) > len(str(MAX_EMAX)) or int(exponent or 0) > MAX_EMAX:
        raise ValidationError(f"score {text!r} has an exponent past {MAX_EMAX}")
    value = Decimal(text)
    # 4.1e-01 or 0.4e0 is no wire, so no lookup keyed on wires could match it;
    # and a log loss is never zero
    if _bracket_wire(value, value, phi) != text or not value and kind is ScoreKind.LOGLOSS:
        raise ValidationError(f"score {text!r} is not a {phi}-digit {kind.value} wire")
    return DecimalScore(digits=text, phi=phi, kind=kind)
