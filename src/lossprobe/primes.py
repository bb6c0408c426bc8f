"""Prime machinery: twin-prime tables, primality checks, factoring helpers.

The label-recovery constructions lean on two prime sequences: the lower
members of twin prime pairs starting at (5, 7), and the plain primes
2, 3, 5, ... used by the multi-class encoding.  Tables are built with a
sieve and every entry is re-checked with an independent deterministic
Miller-Rabin test, so a sieve bug cannot silently corrupt an encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import ValidationError

# Deterministic witness set: correct for every n < 3,317,044,064,679,887,385,961,981
# (comfortably beyond 64-bit), per Sorenson & Webster.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n within the fixed-witness range."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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

    def __len__(self) -> int:
        return len(self.primes)


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


@dataclass(frozen=True)
class Factorization:
    """Exponents of the allowed primes plus whatever refused to divide."""

    exponents: Mapping[int, int]
    leftover: int


def factor_over(value: int, primes: Iterable[int]) -> Factorization:
    """Factor value over the given primes only; leftover keeps the rest.

    Exponents are recorded only when positive, so the reconstruction
    identity ``leftover * prod(p**e) == value`` holds exactly.
    """
    if value < 1:
        raise ValidationError("can only factor a positive integer")
    exps: dict[int, int] = {}
    rest = value
    for p in sorted(set(primes)):
        if p < 2:
            raise ValidationError("prime factors must be >= 2")
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            exps[p] = e
    return Factorization(exponents=exps, leftover=rest)
