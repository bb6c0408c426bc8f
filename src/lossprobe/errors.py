"""Exception hierarchy for lossprobe.

Every error raised on purpose by this package derives from
:class:`LossProbeError`, so callers can catch one type at API boundaries.
The CLI maps these to exit code 1; anything else is a bug.
"""

from __future__ import annotations


class LossProbeError(Exception):
    """Base class for all lossprobe errors."""


class ValidationError(LossProbeError, ValueError):
    """An input violates a documented precondition (domain, shape, guard)."""


class DecodeError(LossProbeError):
    """A score does not decode to a labeling under the declared construction.

    Raised instead of returning a guess: a malformed or tampered score must
    never produce a silently wrong labeling.
    """


class PrecisionError(LossProbeError):
    """A rounded score does not carry enough digits to decode reliably."""


class LookupBuildError(LossProbeError):
    """Two labelings of a batch vector round to the same (LL, AUC) tuple."""


class OracleProtocolError(LossProbeError):
    """The scoring oracle answered outside its wire or interface contract."""
