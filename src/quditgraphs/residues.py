"""Exact integer arithmetic over Z_d, without numpy.

``kernel_size`` counts the kernel of a Kronecker power D^{⊗n} of a diagonal
D over Z_d from D's diagonal alone, so the census needs neither a
right-hand side nor a solve; the solver of such powers, ``KroneckerSolver``,
works on Python lists and lives in ``newton``.
``is_prime`` tests a modulus by trial division.

``check_entries`` is the one place that refuses an array: count·base^exponent
entries at or above ``DEFAULT_TABLE_LIMIT`` raise ``SizeLimit``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence


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


def kernel_size(diagonal: Sequence[int], d: int, n: int) -> int:
    """Size of the kernel of D^{⊗n} over Z_d for D = diag(diagonal).

    That is the product of gcd(prod_v D[j_v], d) over the k^n tuples j of
    diagonal positions. The tuples are never listed: n convolution steps
    count them by that gcd alone, since gcd(ab, d) = gcd(gcd(a, d)·gcd(b, d), d),
    so each step costs at most (#divisors of d)^2.
    """
    base = Counter(math.gcd(x, d) for x in diagonal)
    tally = Counter({1: 1})
    for _ in range(n):
        step: Counter = Counter()
        for g, count in tally.items():
            for h, multiplicity in base.items():
                step[math.gcd(g * h, d)] += count * multiplicity
        tally = step
    return math.prod(g**count for g, count in tally.items())
