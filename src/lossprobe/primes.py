"""Prime machinery: twin-prime tables, primality checks, product and remainder trees.

The label-recovery constructions lean on two prime sequences: the lower
members of twin prime pairs starting at (5, 7), and the plain primes
2, 3, 5, ... used by the multi-class encoding.  Both, and sieve_primes,
read one segmented sieve of Eratosthenes that keeps one byte flag per odd
number only and flags one segment at a time, so a scan's memory is
bounded by one segment whatever the table size.  The sieve runs up to a
limit or without end: a table scan stops at its n-th item, so it needs no
estimate of where that item lies.  A twin pair is two adjacent set flags.
Every twin entry is re-checked with an independent deterministic
twelve-base Miller-Rabin test, so a sieve bug cannot silently corrupt an
encoding.

Both tables are read-only views of 4-byte ints over an array's bytes:
an entry reads as an int, a slice is a view of the same bytes, and a
write raises TypeError.  So a table costs four bytes an entry, where a
tuple of ints costs about 36, and the cached table cannot be edited
under the decoders that share it.

The exact decoders read labels through one exponent reader,
exponents_over: each listed prime's exponent capped at a given top, what
is left once every listed prime is divided out, and which primes passed
the cap.  The twin decoder caps at 1, the multi-class decoder at k - 1.
Its remainder tree, like every product here, starts from runs of _LEAF
values multiplied in one C-level chain.
"""

from __future__ import annotations

import math
import re
from array import array
from functools import lru_cache
from itertools import compress, islice
from typing import Iterator, Sequence

from .errors import ValidationError

# Deterministic witness set: correct for every n < _MR_BOUND (beyond 64-bit), per
# Sorenson & Webster; 399,165,290,221 * 798,330,580,441 = _MR_BOUND fools all twelve.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below _MR_BOUND; ValidationError at or above it."""
    if n >= _MR_BOUND:
        raise ValidationError(f"is_prime is deterministic only below {_MR_BOUND}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    m = n - 1
    r = (m & -m).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = m >> r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def _strike(flags: bytearray, origin: int, p: int) -> None:
    """Clear the flag of every odd multiple of p from p * p on, in flags whose
    byte i stands for the odd number origin + 2i.

    An odd multiple of p is p apart from the next in flag index; the ones
    below p * p have a smaller prime factor, which strikes them.
    """
    k = max(p, -(-origin // p)) | 1  # the least odd k >= p with k * p >= origin
    first = (k * p - origin) // 2
    # a bytearray: any other right-hand side is copied into one first
    flags[first::p] = bytearray(len(range(first, len(flags), p)))


_TWIN_GAP = re.compile(b"\x01\x01")  # the flags of p and p + 2, odd numbers side by side

# odd numbers flagged at a time by every scan: its memory, whatever the table size
_SEGMENT = 1 << 16


def _segments(limit: int | None = None) -> Iterator[tuple[int, bytearray]]:
    """(origin, flags) for the odd numbers from 5 on, up to limit if one is
    given: byte i of flags is 1 exactly when origin + 2i is prime.

    A segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977): the
    odd numbers are flagged _SEGMENT at a time, so one segment is all a
    scan holds, and no even number gets a flag.  Each segment is struck by
    the odd primes up to the square root of its last number, taken from a
    sieve_primes call whose reach doubles once a segment passes it; each
    such call sieves to about the square root of its caller's reach, so the
    recursion ends.  A consumer that stops early stops the scan.
    """
    reach, base = 1, []
    origin = 5
    while limit is None or origin <= limit:
        size = _SEGMENT if limit is None else min(_SEGMENT, (limit - origin) // 2 + 1)
        end = origin + 2 * size - 2
        if math.isqrt(end) > reach:
            reach = max(2 * reach, math.isqrt(end))
            base = sieve_primes(reach)[1:]  # 2 strikes no odd number
        flags = bytearray([1]) * size
        for p in base:
            if p * p > end:
                break
            _strike(flags, origin, p)
        yield origin, flags
        del flags  # freed before the next segment is flagged
        origin = end + 2


def _primes(limit: int | None = None) -> Iterator[int]:
    """The primes up to limit, or every prime, ascending."""
    yield from (p for p in (2, 3) if limit is None or p <= limit)
    for origin, flags in _segments(limit):
        yield from compress(range(origin, origin + 2 * len(flags), 2), flags)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by Eratosthenes."""
    return list(_primes(limit))


@lru_cache(maxsize=8)
def first_primes(n: int) -> memoryview:
    """The first n plain primes, ascending, as a read-only table of 4-byte ints."""
    if n < 1:
        raise ValidationError("need at least one prime")
    return memoryview(array("I", islice(_primes(), n))).toreadonly()


def _twin_lowers() -> Iterator[int]:
    """The lower members p >= 5 of the twin pairs, ascending, without end.

    A pair is two adjacent set flags of a segment.  The last flag of a
    segment is carried into the next, so a pair that straddles the boundary
    is found too.
    """
    carry = 0
    for origin, flags in _segments():
        if carry and flags[0]:
            yield origin - 2
        # from 5 no match overlaps the next: p, p + 2, p + 4 prime needs p = 3;
        # no match, which holds flags, outlives the generator expression
        yield from (origin + 2 * m.start() for m in _TWIN_GAP.finditer(flags))
        carry = flags[-1]
        del flags  # dropped here too, or the scan holds two segments


@lru_cache(maxsize=8)
def twin_primes(n: int) -> memoryview:
    """The first n twin-pair lower members p >= 5 with p + 2 prime, ascending,
    as a read-only table of 4-byte ints.

    The scan fills the table's array directly, so no int object is kept
    per entry.
    """
    if n < 1:
        raise ValidationError("twin-prime table size must be >= 1")
    lowers = array("I", islice(_twin_lowers(), n))
    for p in lowers:
        # independent route: the sieve result must survive Miller-Rabin
        if not (is_prime(p) and is_prime(p + 2)):
            raise ValidationError(f"sieve produced a non-twin entry {p}")
    return memoryview(lowers).toreadonly()


def _product_tree(values: Sequence[int]) -> list[Sequence[int]]:
    """Levels of pairwise products, leaves first and the root last.

    Each level halves the one below it (an odd one out is carried up as
    is), so the root is the product of all values at the cost of a few
    balanced big-integer multiplications instead of one long chain.
    """
    levels = [values]
    while len(levels[-1]) > 1:
        below = levels[-1]
        level = [below[i] * below[i + 1] for i in range(0, len(below) - 1, 2)]
        if len(below) % 2:
            level.append(below[-1])
        levels.append(level)
    return levels


# a run of this many word-sized factors multiplies faster in one C-level
# chain than through tree bookkeeping; exact_score calls this per labeling
_LEAF = 32


def _runs(values: Sequence[int]) -> list[int]:
    """The products of values' consecutive runs of _LEAF, the last run maybe shorter."""
    return [math.prod(values[i : i + _LEAF]) for i in range(0, len(values), _LEAF)]


def tree_product(values: Sequence[int]) -> int:
    """Product of the values through a product tree over runs of _LEAF; 1 when empty."""
    if len(values) <= _LEAF:
        return math.prod(values)
    return _product_tree(_runs(values))[-1][0]


def remainders(value: int, moduli: Sequence[int]) -> list[int]:
    """value mod m for every m, through a remainder tree over runs of _LEAF moduli.

    value is reduced modulo the root once, then each node's remainder is
    reduced modulo its children, so no full-width division is repeated per
    modulus (Bernstein, "Fast multiplication and its applications").  The
    tree's leaves are the products of the runs tree_product multiplies
    first, and each modulus is reduced from its run's remainder, so no
    tree level holds a node per modulus.
    """
    if not moduli:
        return []
    levels = _product_tree(_runs(moduli))
    rems = [value % levels[-1][0]]
    for level in reversed(levels[:-1]):
        rems = [rems[i // 2] % m for i, m in enumerate(level)]
    return [rems[i // _LEAF] % m for i, m in enumerate(moduli)]


def exponents_over(
    value: int, primes: Sequence[int], top: int
) -> tuple[list[int], int, list[int]]:
    """Each listed prime's exponent in value capped at top, what is left, and who passed top.

    primes must be distinct primes.  One remainder tree over the p^top gives
    each exponent: top where p^top divides value, else the valuation of the
    small remainder; at top 1 the moduli are primes itself, read in place.
    One division by the product of the p^e gives rest.
    Only when rest is not 1 are the further powers of the primes at top
    stripped, so rest then holds no listed prime, and over lists, in the
    given order, the primes whose exponent exceeds top.
    """
    if value < 1:
        raise ValidationError("can only factor a positive integer")
    exps = []
    moduli = primes if top == 1 else [p**top for p in primes]
    for p, r in zip(primes, remainders(value, moduli)):
        e = 0 if r else top
        while r and r % p == 0:  # r < p^top, so this stops below top
            r //= p
            e += 1
        exps.append(e)
    rest = value // tree_product([p if e == 1 else p**e for p, e in zip(primes, exps) if e])
    over: list[int] = []
    if rest != 1:
        capped = [p for p, e in zip(primes, exps) if e == top]
        over = [p for p, r in zip(capped, remainders(rest, capped)) if not r]
        repeated = over
        while repeated:
            rest //= tree_product(repeated)
            repeated = [p for p, r in zip(repeated, remainders(rest, repeated)) if not r]
    return exps, rest, over
