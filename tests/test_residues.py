import math
import random
from itertools import product
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from quditgraphs import residues
from quditgraphs.correspondence import KroneckerSolver
from quditgraphs.counting import divisor_rule
from quditgraphs.residues import (
    NonPrimeModulus,
    SizeLimit,
    check_entries,
    is_prime,
    power_at_least,
)

from helpers import brute_force_solutions, random_matrix_rows
from oracles import (
    PrimeSolver,
    SmithSolver,
    identity,
    mul_vector,
    smith_factor_of,
    smith_normal_form,
)


def inverse(a, d):
    """The x with a·x = 1 (mod d) found by the Kronecker solver on the 1x1
    base [a], whose factor is 1·[a]·1, or None when there is none."""
    solution = KroneckerSolver([[1]], [a], [[1]], d=d, power=1).solve([1], [0])
    return solution.particular[0] if solution.consistent else None


class TestModInverse:
    """Units of Z_d, through the per-residue inverse table of KroneckerSolver."""

    def test_identity_element(self):
        assert inverse(1, 4) == 1

    def test_non_unit_has_no_inverse(self):
        assert inverse(2, 4) is None

    def test_five_mod_six(self):
        # exhaustive scan oracle
        expected = next(b for b in range(6) if 5 * b % 6 == 1)
        assert inverse(5, 6) == expected

    def test_exists_iff_coprime(self):
        for d in range(2, 51):
            for a in range(d):
                inv = inverse(a, d)
                if math.gcd(a, d) == 1:
                    assert inv is not None and a * inv % d == 1
                else:
                    assert inv is None


class TestResidueArithmetic:
    """Arithmetic of Z_d as the dense oracles carry it."""

    def test_ops(self):
        five = [[5]]
        assert mul_vector([[1, 1]], 7, (5, 4)) == (2,)
        assert mul_vector([[1, -1]], 7, (5, 4)) == (1,)
        assert mul_vector(five, 7, (4,)) == (6,)
        assert mul_vector(five, 7, mul_vector(five, 7, (5,))) == (pow(5, 3, 7),)


class TestIsPrime:
    def test_agrees_with_sympy(self):
        assert all(is_prime(d) == sympy.isprime(d) for d in range(5000))


class TestSolvePrime:
    def test_identity_matrix(self):
        mat = identity(4, 5)
        sol = PrimeSolver(mat, 5).solve((1, 4, 2, 0))
        assert sol.consistent and sol.count == 1
        assert sol.particular == (1, 4, 2, 0)

    def test_worked_8x8_over_gf3(self):
        # d=3, n=2 decorated-edge system; entries i0^s0 * i1^s1 built here
        # independently of the library's system builder.
        variables = [
            ((0,), (1,)), ((0,), (2,)), ((1,), (1,)), ((1,), (2,)),
            ((0, 1), (1, 1)), ((0, 1), (1, 2)), ((0, 1), (2, 1)), ((0, 1), (2, 2)),
        ]
        tuples = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        rows = []
        for i0, i1 in tuples:
            row = []
            for verts, exps in variables:
                digits = (i0, i1)
                entry = 1
                for v, s in zip(verts, exps):
                    entry = entry * pow(digits[v], s, 3) % 3
                row.append(entry)
            rows.append(row)
        rhs = [1, 0, 1, 1, 0, 0, 1, 0]  # table (0,1,0,1,1,0,0,1,0) minus its zero entry
        sol = PrimeSolver(rows, 3).solve(rhs)
        assert sol.consistent and sol.count == 1
        assert sol.particular == (2, 2, 2, 2, 0, 1, 0, 1)

    def test_random_counts_match_brute_force(self):
        rng = random.Random(20240501)
        for _ in range(8):
            rows = random_matrix_rows(rng, 4, 4, 5)
            rhs = [rng.randrange(5) for _ in range(4)]
            sol = PrimeSolver(rows, 5).solve(rhs)
            expected = brute_force_solutions(rows, rhs, 5)
            assert sol.count == len(expected)
            if expected:
                assert sol.solutions() == sorted(expected)

    def test_composite_modulus_rejected(self):
        with pytest.raises(NonPrimeModulus):
            PrimeSolver(identity(2, 6), 6)


class TestSolveResidue:
    def test_unsolvable_3x3_mod4(self):
        mat = [[1, 1, 1], [2, 0, 0], [3, 1, 3]]
        sol = SmithSolver(mat, 4).solve((1, 1, 2))
        assert not sol.consistent and sol.count == 0

    def test_four_solution_3x3_mod4(self):
        rows = [[1, 1, 1], [2, 0, 0], [3, 1, 3]]
        sol = SmithSolver(rows, 4).solve((1, 2, 1))
        expected = brute_force_solutions(rows, (1, 2, 1), 4)
        assert sol.consistent
        assert sol.count == len(expected) == 4
        assert sol.solutions() == sorted(expected)
        assert sorted(expected) == [(1, 1, 3), (1, 3, 1), (3, 1, 1), (3, 3, 3)]

    def test_zero_matrix_everything_solves(self):
        mat = [[0, 0, 0], [0, 0, 0]]
        sol = SmithSolver(mat, 6).solve((0, 0))
        assert sol.consistent and sol.count == 6**3
        assert not SmithSolver(mat, 6).solve((1, 0)).consistent

    def test_counts_match_brute_force(self):
        rng = random.Random(911)
        for d in (2, 3, 4, 6):
            for _ in range(6):
                m, n = rng.randint(1, 4), rng.randint(1, 4)
                rows = random_matrix_rows(rng, m, n, d)
                rhs = [rng.randrange(d) for _ in range(m)]
                sol = SmithSolver(rows, d).solve(rhs)
                expected = brute_force_solutions(rows, rhs, d)
                assert sol.count == len(expected)
                assert sol.solutions() == sorted(expected)

    def test_counts_match_brute_force_six_unknowns(self):
        rng = random.Random(616)
        for d in (2, 3, 4, 6):
            for _ in range(2):
                rows = random_matrix_rows(rng, 3, 6, d)
                rhs = [rng.randrange(d) for _ in range(3)]
                sol = SmithSolver(rows, d).solve(rhs)
                assert sol.count == len(brute_force_solutions(rows, rhs, d))

    def test_agrees_with_prime_solver(self):
        rng = random.Random(7777)
        for d in (2, 3, 5, 7):
            for _ in range(5):
                m, n = rng.randint(1, 8), rng.randint(1, 8)
                rows = random_matrix_rows(rng, m, n, d)
                rhs = [rng.randrange(d) for _ in range(m)]
                a, b = PrimeSolver(rows, d).solve(rhs), SmithSolver(rows, d).solve(rhs)
                assert a.consistent == b.consistent
                assert a.count == b.count
                if a.consistent and a.count <= 4096:
                    assert a.solutions() == b.solutions()

    @given(
        st.sampled_from([2, 3, 4, 5, 6]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_enumerated_solution_satisfies_system(self, d, m, n, rnd):
        rows = [[rnd.randrange(d) for _ in range(n)] for _ in range(m)]
        rhs = [rnd.randrange(d) for _ in range(m)]
        sol = SmithSolver(rows, d).solve(rhs)
        for x in sol.solutions(cap=1000):
            assert all(
                sum(a * v for a, v in zip(row, x)) % d == b
                for row, b in zip(rows, rhs)
            )


class TestSmithNormalForm:
    @staticmethod
    def _check(rows):
        d, u, v = smith_normal_form(rows)
        m, n = len(rows), len(rows[0])
        a = sympy.Matrix(rows)
        um, vm, dm = sympy.Matrix(u), sympy.Matrix(v), sympy.Matrix(d)
        assert um * a * vm == dm
        assert abs(um.det()) == 1
        assert abs(vm.det()) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
        # invariant factors agree with an independent implementation
        ours = [x for x in diag if x]
        ref = sympy_snf(a)
        ref_diag = [int(ref[i, i]) for i in range(min(ref.shape)) if ref[i, i]]
        assert ours == [abs(x) for x in ref_diag]

    def test_fixed_matrices(self):
        self._check([[1, 1, 1], [2, 0, 0], [3, 1, 3]])
        self._check([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        self._check([[0, 0], [0, 0]])
        self._check([[3]])

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, m, n, rnd):
        rows = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        self._check(rows)


class TestRankAndNullspace:
    def test_obstructed_8x3_system(self):
        # d=3, n=2 plain-hyperedge system against the table (0,1,0,1,1,0,0,1,0)
        tuples = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        rows = [[i0 % 3, i1 % 3, i0 * i1 % 3] for i0, i1 in tuples]
        rhs = [1, 0, 1, 1, 0, 0, 1, 0]
        solver = PrimeSolver(rows, 3)
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        assert solver.rank == 3
        assert PrimeSolver(augmented, 3).rank == 4
        assert not solver.solve(rhs).consistent

    def test_empty_system_is_consistent(self):
        empty = np.zeros((0, 3), dtype=np.int64)
        solution = SmithSolver(empty, 6).solve(())
        assert solution.consistent and solution.count == 6**3
        assert all(PrimeSolver(empty, p).rank == 0 for p in (2, 3))

    def test_composite_agrees_with_solver(self):
        # Consistent mod d iff consistent modulo every prime-power factor (CRT).
        rng = random.Random(5150)
        for _ in range(20):
            d = rng.choice([4, 6, 9, 12])
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = random_matrix_rows(rng, m, n, d)
            rhs = [rng.randrange(d) for _ in range(m)]
            per_factor = [
                SmithSolver(rows, p**e).solve([b % p**e for b in rhs])
                for p, e in sympy.factorint(d).items()
            ]
            whole = SmithSolver(rows, d).solve(rhs)
            assert whole.consistent == all(s.consistent for s in per_factor)

    def test_invertible_matrix_has_empty_left_nullspace(self):
        assert PrimeSolver([[1, 2], [3, 4]], 5).left_nullspace() == []

    def test_repeated_row(self):
        assert PrimeSolver([[1, 2, 0], [1, 2, 0]], 7).left_nullspace() == [(1, 6)]

    def test_left_nullspace_annihilates_rows(self):
        rng = random.Random(31337)
        for q in (2, 3, 5):
            for _ in range(10):
                m, n = rng.randint(1, 6), rng.randint(1, 4)
                rows = random_matrix_rows(rng, m, n, q)
                basis = PrimeSolver(rows, q).left_nullspace()
                assert len(basis) == m - PrimeSolver(rows, q).rank
                for y in basis:
                    for j in range(n):
                        assert sum(y[i] * rows[i][j] for i in range(m)) % q == 0


def kron_power(base, d, power):
    """The explicit Kronecker power, by numpy, reduced mod d."""
    factor = np.array(base, dtype=np.int64) % d
    out = factor
    for _ in range(power - 1):
        out = np.kron(out, factor) % d
    return out.tolist()


class TestKroneckerSolver:
    @given(
        st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_smith_solver_on_the_explicit_power(self, d, rows, cols, power, rnd):
        # Random bases, zero and repeated columns included: not only digit powers.
        cols = min(cols, rows)
        if rows**power > 64:
            power = 1
        base = random_matrix_rows(rnd, rows, cols, d)
        full = kron_power(base, d, power)
        reference = SmithSolver(full, d)
        solver = KroneckerSolver(*smith_factor_of(base, d), d=d, power=power)
        for _ in range(3):
            if rnd.random() < 0.5:
                rhs = [rnd.randrange(d) for _ in range(len(full))]
            else:
                rhs = mul_vector(full, d, [rnd.randrange(d) for _ in range(len(full[0]))])
            ours, expected = solver.solve(rhs, range(cols**power)), reference.solve(rhs)
            assert ours.consistent == expected.consistent
            assert ours.count == expected.count
            if ours.consistent and ours.count <= 256:
                solutions = ours.solutions()
                assert solutions == expected.solutions()
                assert all(mul_vector(full, d, x) == tuple(rhs) for x in solutions)

    @given(
        st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_unknowns_pick_and_order_the_full_solve(self, d, rows, cols, power, rnd):
        # Any order of all k^n unknowns gives the full answer, reordered.
        cols = min(cols, rows)
        if rows**power > 64:
            power = 1
        base = random_matrix_rows(rnd, rows, cols, d)
        full = kron_power(base, d, power)
        solver = KroneckerSolver(*smith_factor_of(base, d), d=d, power=power)
        perm = rnd.sample(range(cols**power), cols**power)

        def permuted(vector):
            return tuple(vector[j] for j in perm)

        for _ in range(3):
            if rnd.random() < 0.5:
                rhs = [rnd.randrange(d) for _ in range(len(full))]
            else:
                rhs = mul_vector(full, d, [rnd.randrange(d) for _ in range(len(full[0]))])
            whole, ours = solver.solve(rhs, range(cols**power)), solver.solve(rhs, perm)
            assert ours.consistent == whole.consistent
            assert ours.count == whole.count
            if not whole.consistent:
                assert ours.particular is None and ours.generators == ()
                continue
            assert ours.particular == permuted(whole.particular)
            assert ours.generators == tuple(
                (permuted(direction), order) for direction, order in whole.generators
            )
            if whole.count <= 256:
                assert ours.solutions() == sorted(map(permuted, whole.solutions()))

    def test_counts_match_brute_force(self):
        rng = random.Random(4242)
        for d in (2, 4, 6):
            for _ in range(4):
                base = random_matrix_rows(rng, 3, 2, d)
                full = kron_power(base, d, 2)
                rhs = [rng.randrange(d) for _ in range(len(full))]
                if rng.random() < 0.5:
                    rhs = mul_vector(full, d, [rng.randrange(d) for _ in range(len(full[0]))])
                expected = brute_force_solutions(full, rhs, d)
                solver = KroneckerSolver(*smith_factor_of(base, d), d=d, power=2)
                assert solver.solve(rhs, range(4)).solutions() == sorted(expected)

    def test_rejects_wide_base_and_bad_rhs(self):
        unit = [[1, 0], [0, 1]]
        with pytest.raises(ValueError):
            KroneckerSolver([[1]], [1, 1], unit, d=5, power=2)
        with pytest.raises(ValueError):
            KroneckerSolver(unit, [1, 1], unit, d=5, power=2).solve([0, 0, 0], range(4))
        with pytest.raises(ValueError):
            KroneckerSolver(unit, [1, 1], unit, d=5, power=2).solve([[0, 0, 0, 0]], range(4))
        with pytest.raises(ValueError, match="d >= 2"):
            KroneckerSolver(unit, [1, 1], unit, d=1, power=2)


DIVISOR_CASES = dict(
    d=st.integers(2, 60),
    diagonal=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    n=st.integers(1, 4),
)


class TestDivisorRule:
    """``counting.divisor_rule`` against brute force over every tuple j."""

    @given(**DIVISOR_CASES)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_gcd_of_every_tuple(self, d, diagonal, n):
        gcd, inverse = divisor_rule(diagonal, d, n)
        products = [math.prod(entries) for entries in product(diagonal, repeat=n)]
        assert gcd == [math.gcd(p, d) for p in products]
        assert len(inverse) == len(gcd) == len(diagonal) ** n

    @given(**DIVISOR_CASES)
    @settings(max_examples=150, deadline=None)
    def test_inverts_each_quotient(self, d, diagonal, n):
        # (D_j / g_j)·inverse_j = 1 (mod d / g_j) wherever g_j < d.
        gcd, inverse = divisor_rule(diagonal, d, n)
        products = [math.prod(entries) for entries in product(diagonal, repeat=n)]
        for p, g, inv in zip(products, gcd, inverse):
            if g < d:
                assert p // g * inv % (d // g) == 1, (p, g, inv)

    def test_units_give_a_trivial_kernel(self):
        gcd, _ = divisor_rule([1, 5, 7], 12, 9)
        assert len(gcd) == 3**9 and set(gcd) == {1}

    def test_zero_entries_are_fully_free(self):
        # gcd(0, d) = d: one zero on the diagonal of a 2 x 2 base, power 3,
        # leaves 2^3 - 1 = 7 tuples with a zero factor.
        gcd, inverse = divisor_rule([1, 0], 6, 3)
        assert gcd == [1] + [6] * 7 and inverse == [1] + [0] * 7
        assert math.prod(gcd) == 6**7


class TestPowerAtLeast:
    def test_matches_the_built_power(self):
        for base in range(2, 7):
            for exponent in range(0, 12):
                for bound in (-3, 0, 1, 2, 7, 64, 1000, 4096, 10**6):
                    assert power_at_least(base, exponent, bound) == (base**exponent >= bound)

    def test_huge_exponent_is_immediate(self):
        assert power_at_least(1000, 10**100, 2**24)
        assert not power_at_least(2, 23, 2**24)
        assert power_at_least(2, 24, 2**24)

    def test_base_below_two_rejected(self):
        with pytest.raises(ValueError):
            power_at_least(1, 10**9, 5)


class TestCheckEntries:
    """The one size rule: count·base^exponent entries at or above the table
    limit are refused, and the power is never built."""

    @given(
        st.integers(0, 40), st.integers(1, 7), st.integers(0, 12), st.integers(1, 10**6)
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_built_product(self, count, base, exponent, limit):
        with mock.patch.object(residues, "DEFAULT_TABLE_LIMIT", limit):
            try:
                check_entries("table", count, base, exponent)
                refused = False
            except SizeLimit:
                refused = True
        assert refused == (count * base**exponent >= limit)

    def test_message_names_the_count_only_above_one(self):
        message = r"^table of 2\^24 entries would reach the limit 16777216$"
        with pytest.raises(SizeLimit, match=message):
            check_entries("table", 1, 2, 24)
        with pytest.raises(SizeLimit, match=r"^generators of 3 x 2\^23 entries"):
            check_entries("generators", 3, 2, 23)

    def test_huge_exponent_is_immediate(self):
        with pytest.raises(SizeLimit, match="4\\^60000000 entries"):
            check_entries("block", 1, 4, 60_000_000)
        check_entries("block", 0, 4, 60_000_000)
        check_entries("block", 2**24 - 1, 1, 60_000_000)
        with pytest.raises(SizeLimit):
            check_entries("block", 2**24, 1, 60_000_000)

    def test_exponent_past_the_int_to_str_limit_is_named_by_bits(self):
        exponent = 2 * int("9" * 4300)  # 4301 digits: str() of it would raise
        message = rf"^census of 2 x 2\^<a {exponent.bit_length()}-bit number> entries"
        with pytest.raises(SizeLimit, match=message):
            check_entries("census", 2, 2, exponent)
