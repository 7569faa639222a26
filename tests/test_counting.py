"""Tests for the exact counting formulas.

Expected values come from three independent sources: small cases counted by
the brute-force enumerators (frozen here as literals), the classic n^(n-1)
count of rooted labelled trees at b=2, and internal identities that two
separately implemented formulas must satisfy on a grid.
"""

import os
import sys
import time
from fractions import Fraction
from functools import partial
from math import comb, factorial, prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperforest import (
    ForestShape,
    InvariantViolation,
    ParameterRangeError,
    code_space_size,
    count_forests,
    count_hypercycles,
    count_rooted_hypertrees,
    cycle_sum_identity,
    hypercycle_class_count,
)
from hyperforest import counting, errors
from hyperforest.counting import _as_count, _factorial_quotient
from conftest import range_message, refusal_of


class TestCountForests:
    @pytest.mark.parametrize(
        "b,s,k,expected",
        [
            (3, 2, 0, 75),
            (2, 2, 0, 9),
            (2, 3, 1, 500),
            (3, 1, 0, 3),
            (2, 1, 0, 2),
            (4, 2, 1, 4480),
        ],
    )
    def test_frozen_values(self, b, s, k, expected):
        assert count_forests(b, s, k) == expected

    @pytest.mark.parametrize("b,k", [(2, 0), (2, 5), (3, 2), (6, 0)])
    def test_no_edges_means_one_forest(self, b, k):
        assert count_forests(b, 0, k) == 1

    def test_integral_and_positive_on_grid(self):
        for b in range(2, 7):
            for s in range(0, 13):
                for k in range(0, 7):
                    value = count_forests(b, s, k)
                    assert isinstance(value, int)
                    assert value >= 1

    def test_matches_single_tree_count_at_k_zero(self):
        for b in range(2, 7):
            for s in range(1, 13):
                assert count_forests(b, s, 0) == count_rooted_hypertrees(b, s)

    @pytest.mark.parametrize(
        "b,s,k", [(1, 2, 0), (2, -1, 0), (2, 2, -1), (1, -1, -1), (2, -1, -1)]
    )
    def test_rejects_bad_parameters(self, b, s, k):
        with pytest.raises(ParameterRangeError) as info:
            count_forests(b, s, k)
        assert str(info.value) == range_message(b, s, k)

    def test_rational_form_agrees(self):
        # the formula evaluated with Fraction is the reference the prime
        # exponent counts must match; s = 0 and s = 1 lie on the grid
        for b in range(2, 8):
            for s in range(0, 61):
                for k in range(0, 81):
                    assert count_forests(b, s, k) == forest_fraction(b, s, k), (b, s, k)

    @pytest.mark.parametrize("b,s,k", [(3, 6000, 0), (3, 16000, 2)])
    def test_equals_code_space_size_at_large_shapes(self, b, s, k):
        assert count_forests(b, s, k) == code_space_size(ForestShape(b=b, s=s, k=k))


def forest_fraction(b, s, k):
    n = s * (b - 1) + k + 1
    return (
        Fraction(factorial(n), factorial(k))
        * Fraction(n) ** (s - 1)
        / (factorial(s) * factorial(b - 1) ** s)
    )


def hypertree_fraction(b, s):
    n = s * (b - 1) + 1
    return Fraction(factorial(n - 1) * n**s, factorial(s) * factorial(b - 1) ** s)


def prime_exponents(n, power, factorials):
    """{p: exponent of p in n**power * prod(m! ** weight)}, by trial division
    of n and of every factor 1..m."""
    exponents = {}
    for value, times in [(n, power)] + [(i, w) for m, w in factorials for i in range(2, m + 1)]:
        p = 2
        while value > 1:
            while value % p == 0:
                value //= p
                exponents[p] = exponents.get(p, 0) + times
            p += 1
    return exponents


@st.composite
def factorial_quotients(draw):
    n = draw(st.integers(2, 120))
    power = draw(st.one_of(st.integers(0, 10**4), st.sampled_from([1 << t for t in range(14)])))
    factorials = draw(st.lists(st.tuples(st.integers(0, n), st.integers(-3, 3)), max_size=6))
    # a factorial taken once and divided out once: its primes' exponents go to zero
    cancelled = draw(st.lists(st.integers(0, n), max_size=2))
    return n, power, factorials + [(m, w) for m in cancelled for w in (1, -1)]


class TestFactorialQuotient:
    def test_equals_the_plain_product_of_prime_powers(self):
        # a draw with a negative exponent is refused; the refusals run in
        # one capped process after the draws, since past a missed negative
        # exponent the power product's bit loop never ends (-1 >> 1 is -1)
        refused = {}

        @settings(max_examples=200, deadline=None)
        @given(factorial_quotients())
        @example((2, 0, [(2, 1), (2, -1)]))  # every exponent zero
        @example((97, 10**4, [(97, 1)]))  # power 10^4
        @example((97, 1 << 13, [(3, 1)]))  # single-bit exponents: 1, 1 and 2^13
        # count_forests(2, 3, 0)'s list: 0! and 1!^-3, factorials with no prime
        @example((4, 2, [(4, 1), (0, -1), (3, -1), (1, -3)]))
        @example((3, 0, [(1, 1), (2, -1)]))  # 1/2: the prime 2 has exponent -1
        def check(quotient):
            n, power, factorials = quotient
            exponents = prime_exponents(n, power, factorials)
            negative = min(((p, e) for p, e in exponents.items() if e < 0), default=None)
            if negative:
                call = f"counting._factorial_quotient({n}, {power}, {factorials}, 'q')"
                refused[call] = "q is not an integer: prime {} has exponent {}\n".format(*negative)
            else:
                assert _factorial_quotient(n, power, factorials, "q") == prod(
                    p**e for p, e in exponents.items()
                )

        check()
        assert refused
        assert refusal_of(list(refused), "InvariantViolation") == (
            0, "".join(refused.values()), ""
        )

    # the refusals run in a capped process: past a missed negative exponent
    # the power product's bit loop never ends, as -1 >> 1 is -1
    def test_non_integral_quotient_is_an_invariant_violation(self):
        # 3^0 * 1! / 2! = 1/2: the prime 2 has exponent -1
        call = "counting._factorial_quotient(3, 0, [(1, 1), (2, -1)], 'half')"
        assert refusal_of(call, "InvariantViolation") == (
            0, "half is not an integer: prime 2 has exponent -1\n", ""
        )

    @pytest.mark.parametrize(
        "n,power,factorials,text",
        [
            # 1/4! = 1/(2^3 * 3): both primes go negative, the smaller is named
            (5, 0, [(4, -1)], "q is not an integer: prime 2 has exponent -3"),
            # 2!^2 * 4 / 3! * 1!^5 = 8/3: only the larger prime goes negative
            (4, 1, [(2, 2), (3, -1), (1, 5)], "q is not an integer: prime 3 has exponent -1"),
        ],
    )
    def test_refusal_names_the_smallest_negative_prime(self, n, power, factorials, text):
        call = f"counting._factorial_quotient({n}, {power}, {factorials}, 'q')"
        assert refusal_of(call, "InvariantViolation") == (0, text + "\n", "")


class TestAsCount:
    def test_exact_quotient(self):
        assert _as_count(12, 4, "q") == 3

    @pytest.mark.parametrize(
        "numerator,denominator,text",
        [
            (6, 4, "q is not an integer: 3/2"),
            (-7, 2, "q is not an integer: -7/2"),
            (-4, 2, "q is negative: -2"),
        ],
    )
    def test_failures_show_the_reduced_fraction(self, numerator, denominator, text):
        with pytest.raises(InvariantViolation) as info:
            _as_count(numerator, denominator, "q")
        assert str(info.value) == text


class TestCountRootedHypertrees:
    def test_two_vertex_edges_give_cayley_counts(self):
        # rooted labelled trees on n vertices: n^(n-1)
        for n in list(range(2, 13)) + [97, 1000, 4096]:
            assert count_rooted_hypertrees(2, n - 1) == n ** (n - 1)

    def test_rational_form_agrees(self):
        for b in range(2, 8):
            for s in range(1, 61):
                assert count_rooted_hypertrees(b, s) == hypertree_fraction(b, s), (b, s)

    def test_equals_code_space_size_at_k_zero(self):
        shape = ForestShape(b=3, s=6000, k=0)
        assert count_rooted_hypertrees(3, 6000) == code_space_size(shape)

    @pytest.mark.parametrize(
        "b,s,expected",
        [(3, 1, 3), (3, 2, 75), (4, 1, 4), (4, 2, 490)],
    )
    def test_frozen_values(self, b, s, expected):
        assert count_rooted_hypertrees(b, s) == expected

    def test_rejects_zero_edges(self):
        with pytest.raises(ParameterRangeError) as info:
            count_rooted_hypertrees(2, 0)
        assert str(info.value) == range_message(2, 0, min_s=1)

    @pytest.mark.parametrize("b,s", [(1, 1), (0, 0), (2, -1)])
    def test_rejects_bad_parameters(self, b, s):
        with pytest.raises(ParameterRangeError) as info:
            count_rooted_hypertrees(b, s)
        assert str(info.value) == range_message(b, s, min_s=1)


class TestCountHypercycles:
    @pytest.mark.parametrize(
        "b,s,expected",
        [(3, 2, 12), (2, 3, 9), (2, 2, 1), (2, 4, 96), (3, 3, 1080)],
    )
    def test_frozen_closed_values(self, b, s, expected):
        assert count_hypercycles(b, s, "closed") == expected

    def test_closed_and_sum_forms_agree(self):
        for b in range(2, 7):
            for s in range(2, 41):
                assert count_hypercycles(b, s, "closed") == count_hypercycles(
                    b, s, "sum"
                )

    def test_forms_agree_at_scale_within_seconds(self):
        # the sum form's numerator is one integer pass, not s Fractions
        start = time.perf_counter()
        assert count_hypercycles(3, 4000, "sum") == count_hypercycles(3, 4000)
        assert time.perf_counter() - start < 5

    def test_rejects_unknown_form(self):
        with pytest.raises(ParameterRangeError):
            count_hypercycles(3, 2, "open")

    @pytest.mark.parametrize("b,s", [(1, 3), (2, 1), (2, 0), (1, 1)])
    def test_rejects_bad_parameters(self, b, s):
        with pytest.raises(ParameterRangeError) as info:
            count_hypercycles(b, s)
        assert str(info.value) == range_message(b, s, min_s=2)


class TestHypercycleClassCount:
    @pytest.mark.parametrize(
        "b,s,j,expected",
        [(3, 2, 2, 48), (2, 2, 2, 2), (2, 3, 2, 6), (2, 3, 3, 9)],
    )
    def test_frozen_values(self, b, s, j, expected):
        assert hypercycle_class_count(b, s, j) == expected

    def test_values_integral_on_grid(self):
        for b in range(2, 6):
            for s in range(2, 9):
                for j in range(2, s + 1):
                    value = hypercycle_class_count(b, s, j)
                    assert isinstance(value, int)
                    assert value >= 0

    # past the s <= 40 grid, at both ends of j and between
    @pytest.mark.parametrize("b,s", [(3, 1500), (4, 2000), (6, 1000), (3, 20000)])
    def test_equals_the_factorial_route_at_large_s(self, b, s):
        for j in sorted({2, 3, s // 3, s // 2, s - 1, s}):
            assert hypercycle_class_count(b, s, j) == _factorial_class_count(b, s, j)

    @pytest.mark.parametrize("j", [0, 1, 5])
    def test_rejects_cycle_length_outside_range(self, j):
        with pytest.raises(ParameterRangeError):
            hypercycle_class_count(3, 4, j)

    def test_rejects_bad_shape(self):
        with pytest.raises(ParameterRangeError) as info:
            hypercycle_class_count(1, 4, 2)
        assert str(info.value) == range_message(1, 4, min_s=2)

    @pytest.mark.parametrize("b,s", [(2, 1), (1, 1)])
    def test_rejects_bad_edge_count(self, b, s):
        with pytest.raises(ParameterRangeError) as info:
            hypercycle_class_count(b, s, 2)
        assert str(info.value) == range_message(b, s, min_s=2)


def _factorial_class_count(b: int, s: int, j: int) -> int:
    """hypercycle_class_count's earlier factorial route, kept as the
    reference for the prime-exponent one: with m = j*(b-1), C(n, m) * m! *
    (n-m)! = n!, so this is one exact division of n! * j*(b-1) by
    2 * (s-j)! * (b-1)!^(s-j) * (b-2)!^j."""
    n = s * (b - 1)
    return _as_count(
        factorial(n) * j * (b - 1),
        2 * factorial(s - j) * factorial(b - 1) ** (s - j) * factorial(b - 2) ** j,
        f"hypercycle class count for b={b}, s={s}, j={j}",
    )


class TestCountsNoIntHolds:
    """The counts refuse, before any sieve, a count whose byte length
    provably passes what memory holds, through the shared size rule; the
    bound never passes the bytes of a count that is computed."""

    def test_bound_stays_within_each_counts_bits(self, monkeypatch):
        asked = []
        rule = counting._ensure_fits
        monkeypatch.setattr(counting, "_ensure_fits", lambda size: asked.append(size) or rule(size))
        for b in range(2, 7):
            for s in range(2, 31):
                calls = [partial(count_hypercycles, b, s)]
                calls += [partial(hypercycle_class_count, b, s, j) for j in range(2, s + 1)]
                for call in calls:
                    monkeypatch.setattr(errors, "os", os)  # the machine's memory
                    asked.clear()
                    count = call()
                    # the count's own bound is asked first, before its sieve's
                    # sizes; memory for the count and the sieve alone computes it
                    size = (count.bit_length() + 7) // 8
                    assert asked[0] <= size
                    _fake_memory(monkeypatch, max([size, *asked[1:]]))
                    assert call() == count

    @pytest.mark.parametrize("form", ["closed", "sum"])
    def test_hypercycles_past_the_limit(self, monkeypatch, form):
        _fake_memory(monkeypatch, 10**4 // 8)
        with pytest.raises(ParameterRangeError) as info:
            count_hypercycles(3, 10**4, form)
        assert str(info.value) == "parameters too large to compute"

    def test_hypercycle_class_past_the_limit(self, monkeypatch):
        _fake_memory(monkeypatch, 10**4 // 8)
        with pytest.raises(ParameterRangeError) as info:
            hypercycle_class_count(3, 10**4, 2)
        assert str(info.value) == "parameters too large to compute"

    @pytest.mark.parametrize(
        "call",
        [
            partial(count_forests, 3, 10**4, 0),
            partial(count_hypercycles, 3, 10**4),
            partial(hypercycle_class_count, 3, 10**4, 2),
        ],
        ids=["forests", "hypercycles", "hypercycle-class"],
    )
    def test_refused_before_the_sieve(self, monkeypatch, call):
        _fake_memory(monkeypatch, 10**4 // 8)
        monkeypatch.setattr(counting, "_primes_upto", _no_sieve)
        with pytest.raises(ParameterRangeError) as info:
            call()
        assert str(info.value) == "parameters too large to compute"

    # a lower bound on each hypercycle count passes 4 TB, and the forest
    # count's sieve to n = 10^12 + 2 a terabyte: the refusal comes before any
    # work, in a fresh capped process
    @pytest.mark.parametrize(
        "call",
        [
            "count_hypercycles(3, 2**40)",
            "count_hypercycles(3, 2**40, 'sum')",
            "hypercycle_class_count(3, 2**40, 2)",
            "count_forests(2, 1, 10**12)",
        ],
        ids=["hypercycles", "hypercycles-sum", "hypercycle-class", "forests-sieve"],
    )
    def test_past_memory_is_refused_before_any_work(self, call):
        assert refusal_of(call) == (0, "parameters too large to compute\n", "")


def _no_sieve(n):
    raise AssertionError(f"sieved to {n} before the refusal")


def _fake_memory(monkeypatch, size):
    """Make the shared size rule read size bytes of physical memory."""
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": size}
    monkeypatch.setattr(errors, "os", SimpleNamespace(sysconf=pages.__getitem__))


def _raises(error):
    def sysconf(name):
        raise error
    return sysconf


class TestSizeRule:
    """errors._ensure_fits passes a size equal to its limit and refuses one
    byte more: physical memory where sysconf reports it, else sys.maxsize."""

    MEMORY = 10**6

    def test_memory_is_the_limit(self, monkeypatch):
        _fake_memory(monkeypatch, self.MEMORY)
        errors._ensure_fits(self.MEMORY)
        with pytest.raises(ParameterRangeError) as info:
            errors._ensure_fits(self.MEMORY + 1)
        assert str(info.value) == "parameters too large to compute"

    def test_sieve_asks_for_its_bytes_and_prime_slots(self, monkeypatch):
        # n bytes of sieve and an 8-byte slot for each of n // log2(n) primes
        n = 10**4
        need = n + 8 * (n // n.bit_length())
        _fake_memory(monkeypatch, need)
        assert counting._primes_upto(n)[-1] == 9973
        _fake_memory(monkeypatch, need - 1)
        with pytest.raises(ParameterRangeError):
            counting._primes_upto(n)

    # no sysconf at all, a name it does not know, and a failed call
    @pytest.mark.parametrize(
        "fake",
        [
            SimpleNamespace(),
            SimpleNamespace(sysconf=_raises(ValueError("unknown name"))),
            SimpleNamespace(sysconf=_raises(OSError("sysconf failed"))),
        ],
        ids=["AttributeError", "ValueError", "OSError"],
    )
    def test_maxsize_is_the_limit_without_sysconf(self, monkeypatch, fake):
        monkeypatch.setattr(errors, "os", fake)
        errors._ensure_fits(sys.maxsize)
        with pytest.raises(ParameterRangeError) as info:
            errors._ensure_fits(sys.maxsize + 1)
        assert str(info.value) == "parameters too large to compute"


def hypercycle_fraction(b, s, form):
    """count_hypercycles as reduced rationals: the prefactor times the
    closed or the sum factor."""
    n = s * (b - 1)
    prefactor = Fraction((b - 1) * factorial(n) * n ** (s - 1), 2 * factorial(b - 1) ** s)
    if form == "closed":
        factor = Fraction(1, s * factorial(s - 2))
    else:
        factor = sum(
            (Fraction(j, s**j * factorial(s - j)) for j in range(2, s + 1)), Fraction(0)
        )
    return prefactor * factor


def hypercycle_class_fraction(b, s, j):
    """hypercycle_class_count as a reduced rational, term by term."""
    n = s * (b - 1)
    cycle_part = Fraction(factorial(j * (b - 1)), 2 * factorial(b - 2) ** j)
    forest_part = Fraction(
        comb(n, j * (b - 1)) * j * (b - 1) * factorial((s - j) * (b - 1)),
        factorial(s - j) * factorial(b - 1) ** (s - j),
    )
    return forest_part * cycle_part


class TestHypercycleRationalForms:
    """Every hypercycle count equals its formula evaluated term by term in
    exact rationals, well past the frozen small values."""

    @pytest.mark.parametrize("form", ["closed", "sum"])
    def test_count_hypercycles(self, form):
        for b in range(2, 8):
            for s in range(2, 101):
                assert count_hypercycles(b, s, form) == hypercycle_fraction(b, s, form)

    def test_hypercycle_class_count(self):
        for b in range(2, 8):
            for s in range(2, 41):
                for j in range(2, s + 1):
                    assert hypercycle_class_count(b, s, j) == hypercycle_class_fraction(
                        b, s, j
                    )


class TestCycleSumIdentity:
    def test_known_small_values(self):
        two = cycle_sum_identity(2)
        assert two.lhs == two.rhs == Fraction(1, 2)
        three = cycle_sum_identity(3)
        assert three.lhs == three.rhs == Fraction(1, 3)

    def test_holds_across_range(self):
        for s in range(2, 61):
            result = cycle_sum_identity(s)
            assert result.equal
            assert result.lhs == result.rhs

    def test_rhs_closed_form(self):
        for s in range(2, 20):
            assert cycle_sum_identity(s).rhs == Fraction(
                1, s * factorial(s - 2)
            )

    def test_rejects_small_s(self):
        for s in (1, 0, -1):
            with pytest.raises(ParameterRangeError) as info:
                cycle_sum_identity(s)
            assert str(info.value) == range_message(2, s, min_s=2)


class TestCrossFormulaConsistency:
    def test_forest_count_factors_as_code_space(self):
        # the count must equal (ways to pick roots) * (ways to pick the
        # final root) * (ways to partition the rest) * (ways to pick links)
        for b in range(2, 6):
            for s in range(1, 7):
                for k in range(0, 4):
                    n = s * (b - 1) + k + 1
                    partitions = Fraction(
                        factorial(n - k - 1),
                        factorial(s) * factorial(b - 1) ** s,
                    )
                    expected = (
                        comb(n, k + 1) * (k + 1) * partitions * n ** (s - 1)
                    )
                    assert count_forests(b, s, k) == expected

    def test_per_length_counts_weighted_by_powers_of_n_sum_to_n_times_the_count(self):
        # the sum form's j-th term is the class count times n^(s-j-1); the
        # audit still reports the families side by side, unreconciled
        for b in range(2, 8):
            for s in range(2, 41):
                n = s * (b - 1)
                weighted = sum(
                    hypercycle_class_count(b, s, j) * n ** (s - j) for j in range(2, s + 1)
                )
                assert weighted == n * count_hypercycles(b, s)

    def test_per_length_counts_are_nonzero_exactly_when_allowed(self):
        # every cycle length from 2 to s contributes at least one class member
        for b in range(2, 5):
            for s in range(2, 7):
                for j in range(2, s + 1):
                    assert hypercycle_class_count(b, s, j) > 0
