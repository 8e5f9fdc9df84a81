"""The size rule and the modulus test, without numpy.

``check_entries`` is the one place that refuses an array: count·base^exponent
entries at or above ``DEFAULT_TABLE_LIMIT`` raise ``SizeLimit``.
``is_prime`` tests a modulus by trial division. The divisor rule over Z_d,
which the solve and the census read, lives in ``counting.divisor_rule``.
"""

from __future__ import annotations

import math


class NonPrimeModulus(ValueError):
    """A field-only routine was called with a composite modulus."""


def is_prime(d: int) -> bool:
    """Whether d is prime, by trial division up to isqrt(d)."""
    return d >= 2 and all(d % p for p in range(2, math.isqrt(d) + 1))


DEFAULT_TABLE_LIMIT = 2**24


class SizeLimit(ValueError):
    """An array would meet or exceed the table limit on its entries."""


def check_entries(what: str, count: int, base: int, exponent: int) -> None:
    """Raise SizeLimit when count·base^exponent >= DEFAULT_TABLE_LIMIT.

    The package's one size rule: every array a verb builds holds a closed
    form of entries in (d, n, mode), decided here before any work. The power
    is never built, so a huge exponent costs at most about 24 steps. A count
    of 0 is never refused, and base 1 only when the count alone reaches the
    limit.
    """
    limit = DEFAULT_TABLE_LIMIT
    if count < 1:
        return
    if base == 1:
        too_large = count >= limit
    else:  # count·x >= limit iff x >= ceil(limit / count), for integers x
        too_large = power_at_least(base, exponent, -(-limit // count))
    if too_large:
        times = f"{_shown(count)} x " if count > 1 else ""
        raise SizeLimit(
            f"{what} of {times}{_shown(base)}^{_shown(exponent)} entries"
            f" would reach the limit {limit}"
        )


def _shown(value: int) -> str:
    """``value`` in decimal up to 256 bits, else its bit length: a count such
    as 2n from a 4300-digit ``--n`` has no decimal under Python's int -> str
    limit, and a long one would flood stderr."""
    bits = value.bit_length()
    return str(value) if bits <= 256 else f"<a {bits}-bit number>"


def power_at_least(base: int, exponent: int, bound: int) -> bool:
    """Whether base**exponent >= bound, for base >= 2 and exponent >= 0.

    Multiplies with an early exit, so a huge exponent costs at most about
    log2(bound) steps and the power itself is never built.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    value = 1
    for _ in range(exponent):
        if value >= bound:
            return True
        value *= base
    return value >= bound

