"""Prime machinery: twin-prime tables, primality checks, product and remainder trees.

The label-recovery constructions lean on two prime sequences: the lower
members of twin prime pairs starting at (5, 7), and the plain primes
2, 3, 5, ... used by the multi-class encoding.  Tables are built with a
sieve and every entry is re-checked with an independent deterministic
Miller-Rabin test, so a sieve bug cannot silently corrupt an encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

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
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


@lru_cache(maxsize=8)
def first_primes(n: int) -> tuple[int, ...]:
    """The first n plain primes, ascending."""
    if n < 1:
        raise ValidationError("need at least one prime")
    limit = max(16, int(n * 16))
    while True:
        ps = sieve_primes(limit)
        if len(ps) >= n:
            return tuple(ps[:n])
        limit *= 2


@dataclass(frozen=True)
class TwinPrimeTable:
    """First n lower twin-pair members >= 5, ascending (excludes the (3, 5) pair)."""

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for p in self.primes:
            if p < 5 or p <= prev:
                raise ValidationError("twin table must be ascending and start at 5")
            prev = p


@lru_cache(maxsize=8)
def twin_primes(n: int) -> TwinPrimeTable:
    """Table of the first n twin-pair lower members p >= 5 with p + 2 prime."""
    if n < 1:
        raise ValidationError("twin-prime table size must be >= 1")
    # Hardy-Littlewood style guess for the sieve window, grown on shortfall.
    limit = 512
    while True:
        ps = sieve_primes(limit + 2)
        flags = set(ps)
        lowers = [p for p in ps if p >= 5 and p + 2 in flags]
        if len(lowers) >= n:
            table = TwinPrimeTable(tuple(lowers[:n]))
            for p in table.primes:
                # independent route: the sieve result must survive Miller-Rabin
                if not (is_prime(p) and is_prime(p + 2)):
                    raise ValidationError(f"sieve produced a non-twin entry {p}")
            return table
        limit *= 2


def _product_tree(values: Sequence[int]) -> list[list[int]]:
    """Levels of pairwise products, leaves first and the root last.

    Each level halves the one below it (an odd one out is carried up as
    is), so the root is the product of all values at the cost of a few
    balanced big-integer multiplications instead of one long chain.
    """
    levels = [list(values)]
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


def tree_product(values: Sequence[int]) -> int:
    """Product of the values through a product tree over runs of _LEAF; 1 when empty."""
    if len(values) <= _LEAF:
        return math.prod(values)
    leaves = [math.prod(values[i : i + _LEAF]) for i in range(0, len(values), _LEAF)]
    return _product_tree(leaves)[-1][0]


def remainders(value: int, moduli: Sequence[int]) -> list[int]:
    """value mod m for every m, through a remainder tree over their product tree.

    value is reduced modulo the root once, then each node's remainder is
    reduced modulo its children, so no full-width division is repeated per
    modulus (Bernstein, "Fast multiplication and its applications").
    """
    if not moduli:
        return []
    levels = _product_tree(moduli)
    rems = [value % levels[-1][0]]
    for level in reversed(levels[:-1]):
        rems = [rems[i // 2] % m for i, m in enumerate(level)]
    return rems


@dataclass(frozen=True)
class Factorization:
    """Exponents of the allowed primes plus whatever refused to divide."""

    exponents: Mapping[int, int]
    leftover: int


def factor_over(value: int, primes: Iterable[int]) -> Factorization:
    """Factor value over the given primes only; leftover keeps the rest.

    A remainder tree finds the primes that divide value; exponents are
    divided out for those alone, smallest prime first.  Exponents are
    recorded only when positive, so the reconstruction identity
    ``leftover * prod(p**e) == value`` holds exactly.
    """
    if value < 1:
        raise ValidationError("can only factor a positive integer")
    candidates = sorted(set(primes))
    if candidates and candidates[0] < 2:
        raise ValidationError("prime factors must be >= 2")
    exps: dict[int, int] = {}
    rest = value
    for p, r in zip(candidates, remainders(value, candidates)):
        if r:
            continue
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            exps[p] = e
    return Factorization(exponents=exps, leftover=rest)
