"""The census: how many canonical phase tables the edge weights reach.

This module needs neither numpy nor ``graphs``, so ``census`` starts and
finishes without either: the variables are (support, exponents) pairs from
``edge_tuples``, which ``graphs.enumerate_*`` wrap as edges and a solve
reads as columns of W^{⊗n}; a census needs only their number, k^n - 1.
The ``matrix`` verb's block, ``coefficient_lanes``, is built from the rows
of W here, and imports ``lanes`` only past its refusals.

The canonical system at (d, n, mode) is W^{⊗n} x = f with the digit-power
matrix W[i][s] = i^s mod d (0^0 = 1), s in 0..k-1 for k = d
(multihypergraph) or k = 2 (hypergraph); see ``correspondence``. Writing
x^s in falling factorials, x^s = sum_t S(s, t)·t!·C(x, t) with Stirling
numbers S of the second kind, gives over Z for the unreduced powers i^s,
and hence mod d,

    W = P · D · S^T,   D = the d x k diagonal diag(0!, 1!, ..., (k-1)!),

with Pascal's d x d matrix P[i][t] = C(i, t) and the k x k S^T, both
unitriangular. So both outer factors are unimodular, and as s! divides
(s+1)!, D is the Smith form of W (Singmaster 1974; Kempner 1921).

``smith_factor`` builds the inverses U = P^{-1}, its k rows that meet D,
and V = (S^T)^{-1} by recurrences mod d, so U·W·V = D. It is the
package's only factor of W: ``newton.solve_phases`` hands it to
``newton.KroneckerSolver``, and ``census`` reads its diagonal alone
(``_factorial_diagonal``).

The Smith form gives the package's one rule, on the Newton coefficients
c = U^{⊗n} f of a table f; ``divisor_rule`` is its only home. With
g_j = gcd(prod_v j_v!, d) for j in [k]^n, f is reachable iff g_j divides
c_j at each such j and c_j = 0 wherever a digit is >= k; the solve tests
the second half as W^{⊗n} x = f, the same once the division holds. The
kernel of W^{⊗n} over Z_d then has K = prod_j g_j elements, every
reachable table has exactly K weight solutions, and R = d^{#vars} / K
tables are reachable, so counting them needs no table and no
factorisation. The census refuses only through ``check_entries``, on a count
worked out from (d, n) alone.

W is fixed by (d, mode) and the columns by (d, n, mode), so that name fixes
the whole system, and the fingerprint that ``solve`` and ``census`` print
hashes the name alone (``_fingerprint``), by the interpreter's own SHA-256
rather than OpenSSL's: neither verb builds W or a column list for it.

The package's one size rule lives here too: ``check_entries`` refuses an
array of count·base^exponent entries at or above ``DEFAULT_TABLE_LIMIT``
with ``SizeLimit``. ``is_prime`` tests a modulus by trial division.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, combinations, product, repeat
from typing import Iterator, NamedTuple, Sequence


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


HYPERGRAPH = "hypergraph"
MULTIHYPERGRAPH = "multihypergraph"
MODES = (HYPERGRAPH, MULTIHYPERGRAPH)


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _exponent_count(d: int, mode: str) -> int:
    """k: the exponents s of W are 0..k-1."""
    return 2 if mode == HYPERGRAPH else d


def _digit_power_rows(d: int, mode: str) -> list[list[int]]:
    """W[i][s] = i^s mod d with 0^0 = 1, for i in 0..d-1 and s in 0..k-1,
    each row a running product. Entries are taken from ``residue``, so the
    d·k of them share d int objects and cost a pointer each."""
    k, residue = _exponent_count(d, mode), list(range(d))
    return [
        list(accumulate(repeat(i, k - 1), lambda power, _: residue[power * i % d], initial=1))
        for i in range(d)
    ]


def coefficient_lanes(d: int, size: int) -> tuple[int, bytes]:
    """The side and the lanes of the size-fold Kronecker power of the
    (d-1)x(d-1) digit-power matrix V[i][s] = i^s mod d (i, s in 1..d-1),
    row after row. At d = 2 the block is [[1]] for every size. A bad or
    oversized block is refused before ``lanes`` is imported, so the
    ``matrix`` verb compiles it only for a block it builds."""
    if d < 2 or size < 1:
        raise ValueError("need d >= 2 and size >= 1")
    check_entries("block", 1, d - 1, 2 * size)
    from .lanes import power_rows

    base = _digit_power_rows(d, MULTIHYPERGRAPH)[1:]
    for row in base:  # in place: at d = 4096 a copy would hold d^2 more pointers
        del row[0]
    power = 1 if d == 2 else size
    side = (d - 1) ** power
    return side, power_rows(base, product(range(d - 1), repeat=power), d)


def _factorial_diagonal(d: int, mode: str) -> list[int]:
    """The diagonal of ``smith_factor``: s! mod d for s in 0..k-1. The census
    needs nothing else, so it reads this alone and stays O(k)."""
    diagonal, value = [], 1
    for s in range(_exponent_count(d, mode)):
        value = value * max(s, 1) % d
        diagonal.append(value)
    return diagonal


def divisor_rule(diagonal: Sequence[int], d: int, n: int) -> tuple[list[int], list[int]]:
    """The rule of the module docstring on D^{⊗n}, D = diag(diagonal): for
    each of the k^n tuples j of diagonal positions, in flat order (base k,
    j_0 most significant), g_j = gcd(D_j, d) for D_j = prod_v D[j_v], and
    the inverse of D_j / g_j modulo d / g_j, which is 0 where g_j = d. So
    D_j·y = c has g_j solutions y mod d if g_j divides c, one of them
    (c / g_j)·inverse_j, and none otherwise. Each residue D_j mod d is
    worked out once."""
    entries = [1]
    for _ in range(n):
        entries = [a * b % d for a in entries for b in diagonal]
    gcds, inverses = {}, {}
    for a in set(entries):
        g = gcds[a] = math.gcd(a, d)
        inverses[a] = pow(a // g, -1, d // g)
    return [gcds[a] for a in entries], [inverses[a] for a in entries]


def kernel_size(gcd: list[int]) -> int:
    """K = prod_j g_j, the solutions of every reachable table, from the g_j
    of ``divisor_rule``: one power per distinct divisor."""
    return math.prod(g ** gcd.count(g) for g in set(gcd))


def _signed_triangle(steps: Sequence[int], d: int, width: int) -> list[list[int]]:
    """T with T[0] = e_0 and T[r+1][c] = T[r][c-1] - steps[r]·T[r][c] (mod d),
    T[r][-1] = 0: lower unitriangular, one row per step plus one, each row
    padded with zeros to ``width`` columns. Entries share one int object per
    residue, as in ``_digit_power_rows``."""
    rows, residue = [[1]], list(range(d))
    for step in steps:
        row = rows[-1]
        rows.append([residue[(left - step * here) % d] for left, here in zip([0] + row, row + [0])])
    for row in rows:
        row.extend([0] * (width - len(row)))
    return rows


def smith_factor(d: int, mode: str) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """The first k rows of U, the diagonal s! and V, with U·W·V = diag(s!)
    (mod d); see the module docstring. Built by recurrences mod d in O(k·d)
    steps, nothing factored:

    * U[i][t] = (-1)^(i-t)·C(i, t), k x d, from Pascal's rule;
    * V[s][t] = s(t, s), k x k, the signed Stirling numbers of the first kind
      from s(t+1, s) = s(t, s-1) - t·s(t, s), so V is upper unitriangular.

    Raises SizeLimit before building anything when U's k·d entries, the most
    of any part (W has as many), would reach the table limit.
    """
    k = _exponent_count(d, mode)
    check_entries("base factor U", k, d, 1)
    pascal = _signed_triangle([1] * (k - 1), d, d)
    stirling = _signed_triangle(range(k - 1), d, k)
    return pascal, _factorial_diagonal(d, mode), [list(column) for column in zip(*stirling)]


def edge_tuples(
    n: int, k: int, max_arity: int | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(vertices, exponents) of every edge on n vertices with exponents in
    1..k-1, ordered by support size, vertex tuple, then exponent tuple: the
    one definition of the variable order. ``max_arity`` keeps only supports
    up to that size. ``graphs.enumerate_*`` wrap these pairs as edges."""
    for size in range(1, (n if max_arity is None else min(n, max_arity)) + 1):
        for support in combinations(range(n), size):
            for exponents in product(range(1, k), repeat=size):
                yield support, exponents


def _columns(d: int, n: int, mode: str) -> list[int]:
    """The column in W^{⊗n} of each of the mode's edges, in ``edge_tuples``
    order: the flat index, base k and vertex 0 most significant, of the
    edge's exponent vector (0 off the support)."""
    k = _exponent_count(d, mode)
    place = [k ** (n - 1 - v) for v in range(n)]
    return [
        sum(s * place[v] for v, s in zip(support, exponents))
        for support, exponents in edge_tuples(n, k)
    ]


def _fingerprint(d: int, n: int, mode: str) -> str:
    """Hash of the canonical system at (d, n, mode), which its name fixes:
    no table, no W and no column enters it. ``version`` tags the scheme, so
    a system hashed another way cannot share its value. The interpreter's own
    SHA-256 module hashes it; OpenSSL's is the fallback for a build without."""
    try:  # here, not at the top: only solve and census hash anything
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 on
        except ImportError:
            from hashlib import sha256

    name = {"d": d, "mode": mode, "n": n, "version": 2}
    blob = json.dumps(name, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:16]


class CensusReport(NamedTuple):
    """Classification of all canonical tables at fixed (d, n) by solution count."""

    d: int
    n: int
    mode: str
    total_states: int
    reachable: int
    histogram: tuple[tuple[int, int], ...]  # (solution_count, #tables), sorted
    solution_sum: int
    weight_assignments: int
    matrix_fingerprint: str

    def histogram_dict(self) -> dict[int, int]:
        return dict(self.histogram)

    def to_dict(self) -> dict:
        """The fields in order, the histogram as a dict keyed by text."""
        return {**self._asdict(), "histogram": {str(k): v for k, v in self.histogram}}


def census(d: int, n: int, mode: str) -> CensusReport:
    """Classify every canonical phase table at (d, n) by its solution count.

    No table is solved and nothing is factored: the histogram is
    {0: total - R, K: R} for the K and R of the module docstring, with K
    from ``divisor_rule`` on the closed-form Smith diagonal s! of W.

    Raises SizeLimit, before any power of d is built, when bits(d)·d^(2n)
    reaches the table limit. That count covers what a census builds: the
    k^n < 2900 divisors g_j, and the printed integers of about
    (d^n - 1)·log2 d bits each, whose conversion to decimal takes time
    quadratic in their length.
    """
    _check_mode(mode)
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    check_entries("census", d.bit_length(), d, 2 * n)
    total = d ** (d**n - 1)
    kernel = kernel_size(divisor_rule(_factorial_diagonal(d, mode), d, n)[0])
    weight_assignments = d ** (_exponent_count(d, mode) ** n - 1)
    reachable = weight_assignments // kernel
    histogram = {0: total - reachable, kernel: reachable}
    return CensusReport(
        d=d,
        n=n,
        mode=mode,
        total_states=total,
        reachable=reachable,
        histogram=tuple(sorted((k, v) for k, v in histogram.items() if v)),
        solution_sum=reachable * kernel,
        weight_assignments=weight_assignments,
        matrix_fingerprint=_fingerprint(d, n, mode),
    )
