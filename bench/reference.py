"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports lossprobe: exact scores are naive Fraction products,
AUC is counted pair by pair, log-losses come from the decimal module (and,
for spot checks, from mpmath), and rounding to significant digits is done
from scratch.  A wrong answer from the program therefore cannot also be the
expected answer.
"""

from __future__ import annotations

import sys
from decimal import Decimal, localcontext
from fractions import Fraction

# exact scores of the binary construction carry tens of thousands of digits
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

# guard digits above the requested precision; a true log-loss is
# transcendental, so it never sits this close to a rounding boundary
GUARD = 40


def twin_lowers(count: int) -> list[int]:
    """The first `count` lower twin primes p >= 5 (p and p + 2 both prime)."""
    limit = 1024
    while True:
        flags = bytearray([1]) * (limit + 3)
        flags[0] = flags[1] = 0
        for p in range(2, int((limit + 2) ** 0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        lowers = [p for p in range(5, limit + 1) if flags[p] and flags[p + 2]]
        if len(lowers) >= count:
            return lowers[:count]
        limit *= 2


def binary_entry(i: int) -> Fraction:
    """Entry i (1-based) of the power-tower construction: a/(a+1), a = 2^(2^(i-1))."""
    a = 1 << (1 << (i - 1))
    return Fraction(a, a + 1)


def exact_escore(entries: list[Fraction], labels: list[int]) -> Fraction:
    """1 / prod(x if label else 1 - x), multiplied out term by term."""
    product = Fraction(1)
    for x, bit in zip(entries, labels, strict=True):
        product *= x if bit else 1 - x
    return 1 / product


def auc_by_pairs(keys: list, labels: list[int]) -> Fraction | None:
    """Share of (positive, negative) pairs ordered correctly, ties counting half.

    Pairs are counted group by group over the sorted keys, so each positive
    is credited with every negative below it, and half of every negative
    tied with it.  None when one class is empty.
    """
    pos = sum(labels)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        return None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    wins2 = 0  # twice the credited pairs, to keep ties integral
    negs_below = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and keys[order[j]] == keys[order[i]]:
            j += 1
        group_pos = sum(labels[k] for k in order[i:j])
        group_neg = (j - i) - group_pos
        wins2 += 2 * group_pos * negs_below + group_pos * group_neg
        negs_below += group_neg
        i = j
    return Fraction(wins2, 2 * pos * neg)


def round_sig(value: Fraction, phi: int) -> str:
    """value >= 0 rounded half-even to phi significant digits, as 'd.ddde-x'."""
    if value == 0:
        digits, e = "0" * phi, 0
    else:
        e = 0
        while value >= 10 ** (e + 1):
            e += 1
        while value < Fraction(10) ** e:
            e -= 1
        scaled = value * Fraction(10) ** (phi - 1 - e)
        q, r = divmod(scaled.numerator, scaled.denominator)
        if 2 * r > scaled.denominator or (2 * r == scaled.denominator and q % 2):
            q += 1
        if q == 10**phi:
            q //= 10
            e += 1
        digits = str(q)
    mantissa = digits if phi == 1 else f"{digits[0]}.{digits[1:]}"
    return f"{mantissa}e{e}"


def _ln(x: Fraction) -> Decimal:
    return Decimal(x.numerator).ln() - Decimal(x.denominator).ln()


def logloss_line(entries: list[Fraction], labels: list[int], phi: int) -> str:
    """Rounded mean log-loss of listed entries, from decimal logs."""
    with localcontext() as ctx:
        ctx.prec = phi + GUARD
        total = sum(-_ln(x if bit else 1 - x) for x, bit in zip(entries, labels))
        return round_sig(Fraction(total / len(labels)), phi)


def binary_logloss_line(labels: list[int], phi: int) -> str:
    """Rounded mean log-loss of the named power-tower vector of len(labels).

    Point i contributes ln((a+1)/a) = ln(1 + 2^-k) when labeled 1 and
    ln(a + 1) = k ln 2 + ln(1 + 2^-k) when labeled 0, with k = 2^(i-1);
    terms below the working precision are dropped.
    """
    n = len(labels)
    zero_weight = sum(1 << i for i, bit in enumerate(labels) if not bit)
    int_digits = len(str((1 << n) // n)) + 1
    with localcontext() as ctx:
        ctx.prec = int_digits + phi + GUARD
        total = zero_weight * Decimal(2).ln()
        for i in range(n):
            k = 1 << i
            if k > 4 * ctx.prec:
                break
            total += (1 + Decimal(2) ** -k).ln()
        return round_sig(Fraction(total / n), phi)


def mpmath_logloss_line(entries: list[Fraction], labels: list[int], phi: int) -> str:
    """The same rounded log-loss, from mpmath logs (spot checks only)."""
    import mpmath

    # -ln of a b-bit ratio is below b, so the sum's integer part has at most
    # this many more digits than its fraction needs
    biggest = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in entries)
    with mpmath.workdps(phi + GUARD + len(str(biggest * len(entries)))):
        total = mpmath.fsum(
            -mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
            if bit
            else -mpmath.log(mpmath.mpf(x.denominator - x.numerator) / x.denominator)
            for x, bit in zip(entries, labels)
        )
        text = mpmath.nstr(total / len(labels), phi + GUARD, min_fixed=1, max_fixed=0)
    return round_sig(Fraction(Decimal(text)), phi)


def decimal_line(ll: str, auc_value: Fraction | None, phi: int) -> str:
    auc_text = "ND" if auc_value is None else round_sig(auc_value, phi)
    return f"LL {ll} AUC {auc_text}"


def exact_line(entries: list[Fraction], labels: list[int]) -> str:
    value = exact_escore(entries, labels)
    return f"ESCORE {value.numerator}/{value.denominator}"
