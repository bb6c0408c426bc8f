"""Shared fixtures and independent reference oracles.

The oracles here deliberately avoid the package's own arithmetic paths:
exact scores come from a plain Fraction product, log losses from mpmath
floating point, AUC from literal pair counting.  Tests compare the
package's integer pipelines against these.
"""

import math
import os
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from functools import cache
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import strategies as st

# pytest puts src/ on sys.path (pyproject's pythonpath); the `python -m
# lossprobe` children that CLI tests start need it too (`--transport
# subprocess` forks its server, which inherits the path it already has)
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def naive_exact_score(entries, labels) -> Fraction:
    """1 / prod(x_i if l_i else 1 - x_i), straight from the definition."""
    prod = Fraction(1)
    for x, b in zip(entries, labels):
        prod *= x if b else 1 - x
    return 1 / prod


def naive_exact_score_multiclass(rows, classes) -> Fraction:
    prod = Fraction(1)
    for row, c in zip(rows, classes):
        prod *= row[c - 1]
    return 1 / prod


def naive_factor_over(value: int, primes) -> tuple[dict[int, int], int]:
    """Exponents and leftover by trial division, one prime at a time."""
    exponents: dict[int, int] = {}
    for p in sorted(set(primes)):
        while value % p == 0:
            value //= p
            exponents[p] = exponents.get(p, 0) + 1
    return exponents, value


def _prime_by_trial_division(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))


@cache
def trial_division_primes(limit: int) -> tuple[int, ...]:
    """The primes up to limit, by trial division alone."""
    return tuple(filter(_prime_by_trial_division, range(limit + 1)))


@cache
def trial_division_twins(count: int) -> tuple[int, ...]:
    """The first count lower twins p >= 5 (p and p + 2 prime), by trial division alone."""
    prime = _prime_by_trial_division
    lowers: list[int] = []
    k = 5
    while len(lowers) < count:
        if prime(k) and prime(k + 2):
            lowers.append(k)
        k += 2
    return tuple(lowers)


def naive_auc(entries, labels) -> Fraction | None:
    """Pairwise comparison count with half credit for ties."""
    pos = [e for e, b in zip(entries, labels) if b]
    neg = [e for e, b in zip(entries, labels) if not b]
    if not pos or not neg:
        return None
    s = Fraction(0)
    for p in pos:
        for q in neg:
            if p > q:
                s += 1
            elif p == q:
                s += Fraction(1, 2)
    return Fraction(s, len(pos) * len(neg))


def sig_wire(value: Decimal, phi: int) -> str:
    """Reference half-even rounding to phi significant digits, sci form."""
    ctx = Context(prec=phi, rounding=ROUND_HALF_EVEN)
    rounded = ctx.plus(value)
    sign, digits, exp = rounded.as_tuple()
    assert not sign
    text = "".join(str(d) for d in digits)
    if text == "0":
        text, exponent = "0" * phi, 0
    else:
        text = text.ljust(phi, "0")
        exponent = exp + len(digits) - 1
    mantissa = text[0] if len(text) == 1 else f"{text[0]}.{text[1:]}"
    return f"{mantissa}e{exponent}"


def fraction_sig_wire(value: Fraction, phi: int) -> str:
    """Reference rounding for exact rationals.

    Division is exact when the denominator is 2-5-smooth; otherwise no
    decimal representation terminates, so no rounding tie exists and 80
    digits of quotient decide every case.
    """
    if value == 0:
        return sig_wire(Decimal(0), phi)
    ctx = Context(prec=80)
    return sig_wire(
        ctx.divide(Decimal(value.numerator), Decimal(value.denominator)), phi
    )


def mp_logloss_wire(entries, labels, phi: int, dps: int = 50) -> str:
    """Log loss via mpmath, rounded to the package's wire form.

    The value is read to dps - 10 digits.  When the digits past phi read
    5000... or 4999... up to the last one, the side of the half-even tie is
    not settled (60-digit entries can put the log loss 1e-61 off a tie), so
    dps doubles and the sum is taken again.  -ln x is never a decimal tie
    for rational 0 < x < 1, so this ends.
    """
    while True:
        with mp.workdps(dps):
            total = mp.mpf(0)
            for x, b in zip(entries, labels):
                # complement taken exactly; in floating point 1 - x underflows
                # to zero for the binary construction's near-one entries
                frac = x if b else 1 - x
                total -= mp.log(mp.mpf(frac.numerator) / mp.mpf(frac.denominator))
            ll = total / len(entries)
            read = dps - 10
            value = Decimal(mp.nstr(ll, read))
        digits = value.as_tuple().digits
        tail = (digits + (0,) * read)[phi : read - 1]
        if ll == 0 or tail not in ((5,) + (0,) * (len(tail) - 1), (4,) + (9,) * (len(tail) - 1)):
            return sig_wire(value, phi)
        assert dps < 5000, "log loss indistinguishable from a rounding tie"
        dps *= 2


def binary_entries(n: int) -> list[Fraction]:
    """alpha/(1+alpha) with alpha = 2^(2^(i-1)), built independently."""
    return [Fraction(2 ** (2**i), 1 + 2 ** (2**i)) for i in range(n)]


@cache
def mp_binary_log_sums(n: int, dps: int) -> tuple:
    """Prefix sums of ln(1 + 2^(2^(i-1))) for i = 1..n, one mpmath log per point.

    Never forms the telescoped product 2^(2^n) - 1, so it checks the
    package's closed form for C(n) rather than restating it.
    """
    with mp.workdps(dps):
        sums, total = [], mp.mpf(0)
        for i in range(n):
            total += mp.log(1 + mp.mpf(2) ** (2**i))
            sums.append(total)
    return tuple(sums)


def mp_binary_batch_precisions(n_max: int) -> list[int]:
    """For b = 1..n_max, the fewest digits that fit b binary points, from per-point sums.

    b fits when adjacent exponents' LLs, ln 2 / b apart, exceed one unit in
    the phi-th digit of the top LL, C(b)/b: phi > floor(log10(C(b)/b)) + 1 -
    log10(ln 2 / b), and the right side is never an integer.
    """
    with mp.workdps(40):
        return [
            int(mp.floor(mp.log10(c / b))) + 2 + int(mp.floor(-mp.log10(mp.log(2) / b)))
            for b, c in enumerate(mp_binary_log_sums(n_max, 40), 1)
        ]


def mp_binary_logloss_wire(bits, phi: int) -> str:
    """The binary construction's log loss, C(n) - N ln 2 over n, rounded to the wire.

    N's bits are the labels, read little-endian.  The subtraction can
    cancel every integer digit of C(n), so the sums carry those digits and
    60 more, which leaves phi + 20 correct digits after it.
    """
    assert phi <= 30
    n = len(bits)
    exponent = sum(bit << i for i, bit in enumerate(bits))
    dps = len(str(1 << n)) + 60
    with mp.workdps(dps):
        ll = (mp_binary_log_sums(n, dps)[-1] - exponent * mp.log(2)) / n
        text = mp.nstr(ll, phi + 20)
    return sig_wire(Decimal(text), phi)


# strategies shared across modules

proper_fractions = st.integers(2, 60).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))
)

labelings = st.lists(st.integers(0, 1), min_size=1, max_size=12)


@st.composite
def vectors_with_labels(draw, max_size: int = 10):
    n = draw(st.integers(1, max_size))
    entries = draw(st.lists(proper_fractions, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return entries, labels


@st.composite
def tampered_wires(draw, wire: str, phi: int) -> str:
    """A phi-digit wire as sent, its last digit moved by one, one digit
    changed, its exponent moved by one, or one drawn at random; an ND wire
    is only ever sent or replaced by a random one."""
    how = draw(st.sampled_from(["sent", "last digit", "one digit", "exponent", "random"]))
    if how == "sent":
        return wire
    if how == "random" or wire == "ND":
        mantissa = Decimal(draw(st.integers(1, 10**phi - 1)))
        return sig_wire(mantissa.scaleb(draw(st.integers(-6, 3))), phi)
    value = Decimal(wire)
    place = value.adjusted() + 1 - phi  # the exponent of the last digit
    if how == "last digit":
        value += Decimal(draw(st.sampled_from([-1, 1]))).scaleb(place)
    elif how == "one digit":
        digits = list(wire.split("e")[0].replace(".", ""))
        digits[draw(st.integers(0, phi - 1))] = str(draw(st.integers(0, 9)))
        value = Decimal(int("".join(digits))).scaleb(place)
    else:
        value = value.scaleb(draw(st.sampled_from([-1, 1])))
    return sig_wire(abs(value), phi)  # a zero wire moved down by one


@pytest.fixture(scope="session")
def twin_pairs_100():
    # frozen head of the twin-prime sequence used by the spot checks
    return [(5, 7), (11, 13), (17, 19), (29, 31), (41, 43), (59, 61), (71, 73)]


# one line per acceptance criterion, echoed after the test summary

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
