"""Tests for the brute-force enumerators and the hypercycle audit.

The enumerators are deliberately independent of the codec and the formulas;
these tests pin their outputs on small shapes so the rest of the suite can
lean on them as ground truth.
"""

import hashlib
from decimal import Decimal
from itertools import combinations
from math import comb

import networkx as nx
import pytest

from hyperforest import (
    AuditReport,
    BudgetExceededError,
    ParameterRangeError,
    audit_hypercycles,
    count_forests,
    enumerate_code_space,
    enumerate_forests,
    enumerate_hypercycles,
    hypercycle_class_count,
    validate_code,
    validate_forest,
)
from tests.conftest import range_message


class TestEnumerateForests:
    @pytest.mark.parametrize(
        "b,s,k,expected",
        [(2, 2, 0, 9), (3, 2, 0, 75), (2, 3, 1, 500), (2, 1, 0, 2)],
    )
    def test_counts_match_formula(self, b, s, k, expected):
        assert count_forests(b, s, k) == expected
        assert sum(1 for _ in enumerate_forests(b, s, k)) == expected

    def test_no_edges_yields_single_forest(self):
        forests = list(enumerate_forests(5, 0, 3))
        assert len(forests) == 1
        assert forests[0].edges == ()
        assert forests[0].roots == (1, 2, 3, 4)

    def test_yields_valid_distinct_forests(self):
        seen = set()
        for forest in enumerate_forests(3, 2, 1):
            assert validate_forest(forest).valid
            seen.add((forest.edges, forest.roots))
        assert len(seen) == count_forests(3, 2, 1)

    def test_budget_refusal_carries_details(self):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_forests(2, 8, 0)
        assert info.value.candidates == comb(comb(9, 2), 8)
        assert info.value.budget == 10_000_000
        assert str(info.value) == (
            f"enumeration refused: {comb(comb(9, 2), 8)} candidate sets exceed "
            f"the budget of 10000000"
        )

    def test_budget_refusal_words_a_count_past_4300_digits(self):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_forests(3, 2000, 0)
        candidates = comb(comb(4001, 3), 2000)
        assert info.value.candidates == candidates
        head, tail = "enumeration refused: ", " candidate sets exceed the budget of 10000000"
        text = str(info.value)
        assert text.startswith(head) and text.endswith(tail)
        count = text[len(head):-len(tail)]
        assert len(count) > 4300
        assert Decimal(count) == candidates

    def test_budget_can_be_overridden(self):
        with pytest.raises(BudgetExceededError):
            enumerate_forests(2, 2, 0, budget=2)
        assert sum(1 for _ in enumerate_forests(2, 2, 0, budget=3)) == 9

    def test_budget_checked_before_iteration_starts(self):
        # the refusal must happen when the generator is created, not on
        # first use, so callers can rely on an early error
        with pytest.raises(BudgetExceededError):
            enumerate_forests(2, 8, 0)


def digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


class TestYieldOrder:
    """sha256 of the repr of every yielded value, in yield order, so a change
    to the enumerators' order or values shows."""

    @pytest.mark.parametrize(
        "b,s,k,count,expected",
        [
            (2, 4, 1, 6480, "9985d1c787c71dcf4d74060b7fa1eb959f6926cecbfc95242f40870f9b920f13"),
            (3, 3, 1, 53760, "2023f4a28cfc449bbfb30f47bbd37e1e2c1d148b3da40e3cb09d545ff9d43697"),
        ],
    )
    def test_enumerate_forests(self, b, s, k, count, expected):
        forests = list(enumerate_forests(b, s, k))
        assert len(forests) == count
        assert digest(forests) == expected

    @pytest.mark.parametrize(
        "b,s,repeats,count,expected",
        [
            (3, 3, False, 480, "580a0d989ac57bffeb91176419f7af9b076ece299138e33f7f51c7bbd94b459d"),
            (3, 3, True, 480, "580a0d989ac57bffeb91176419f7af9b076ece299138e33f7f51c7bbd94b459d"),
            (2, 4, False, 15, "bda48c1f9b24abcfe70d3f05432bc9b696ccbeb7a5f6463621c7a3b3e884a413"),
            (2, 4, True, 63, "eb895e3c430238b248c884e45cce6a8e5fe3f79322933cc88fb4af761ff46de8"),
        ],
    )
    def test_enumerate_hypercycles(self, b, s, repeats, count, expected):
        cycles = list(enumerate_hypercycles(b, s, repeats))
        assert len(cycles) == count
        assert digest(cycles) == expected


class TestEnumerateCodeSpace:
    @pytest.mark.parametrize("b,s,k", [(2, 2, 0), (3, 1, 0), (2, 3, 1), (4, 2, 1)])
    def test_counts_match_formula(self, b, s, k):
        assert sum(1 for _ in enumerate_code_space(b, s, k)) == count_forests(b, s, k)

    def test_every_code_is_valid_and_distinct(self):
        seen = set()
        for code in enumerate_code_space(3, 2, 0):
            assert validate_code(code).valid
            seen.add((code.roots, code.final_root, code.blocks, code.links))
        assert len(seen) == 75

    def test_no_edges_yields_single_code(self):
        codes = list(enumerate_code_space(2, 0, 2))
        assert len(codes) == 1
        assert codes[0].roots == (1, 2, 3)
        assert codes[0].final_root is None

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            enumerate_code_space(2, 2, 0, budget=5)


class TestEnumerateHypercycles:
    @pytest.mark.parametrize(
        "b,s,expected",
        [(3, 2, 6), (2, 2, 0), (2, 3, 1), (2, 4, 15), (2, 5, 222)],
    )
    def test_set_counts(self, b, s, expected):
        assert sum(1 for _ in enumerate_hypercycles(b, s)) == expected

    @pytest.mark.parametrize(
        "b,s,expected",
        [(3, 2, 6), (2, 2, 1), (2, 3, 7)],
    )
    def test_multiset_counts(self, b, s, expected):
        found = list(enumerate_hypercycles(b, s, allow_repeated_edges=True))
        assert len(found) == expected

    def test_multiset_extends_set(self):
        plain = set(enumerate_hypercycles(3, 2))
        with_repeats = set(enumerate_hypercycles(3, 2, allow_repeated_edges=True))
        assert plain <= with_repeats

    def test_connected_unicyclic_counts_match_networkx(self):
        # at b=2 and n=s every enumerated object is a connected graph with
        # as many edges as vertices; recount those with an independent tool
        for n, expected in [(3, 1), (4, 15), (5, 222)]:
            ours = sum(1 for _ in enumerate_hypercycles(2, n))
            assert ours == expected
            recount = 0
            for edge_set in combinations(combinations(range(1, n + 1), 2), n):
                g = nx.Graph(edge_set)
                if g.number_of_nodes() == n and nx.is_connected(g):
                    recount += 1
            assert recount == expected

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            enumerate_hypercycles(2, 9)


class TestShapeParameters:
    @pytest.mark.parametrize(
        "enumerate_shape", [enumerate_forests, enumerate_code_space]
    )
    @pytest.mark.parametrize("b,s,k", [(1, 2, 0), (2, -1, 0), (2, 2, -1)])
    def test_forest_enumerators_reject_bad_parameters(self, enumerate_shape, b, s, k):
        with pytest.raises(ParameterRangeError) as info:
            enumerate_shape(b, s, k)
        assert str(info.value) == range_message(b, s, k)

    @pytest.mark.parametrize("b,s", [(1, 3), (2, 1), (2, 0), (1, 1)])
    def test_hypercycle_enumerator_rejects_bad_parameters(self, b, s):
        with pytest.raises(ParameterRangeError) as info:
            enumerate_hypercycles(b, s)
        assert str(info.value) == range_message(b, s, min_s=2)


class TestAuditHypercycles:
    @pytest.mark.parametrize(
        "b,s,closed,total,set_count,multiset_count",
        [
            (3, 2, 12, 48, 6, 6),
            (2, 2, 1, 2, 0, 1),
            (2, 3, 9, 15, 1, 7),
        ],
    )
    def test_frozen_reports(self, b, s, closed, total, set_count, multiset_count):
        report = audit_hypercycles(b, s)
        assert isinstance(report, AuditReport)
        assert report.closed_form_count == closed
        assert report.cycle_length_total == total
        assert report.set_count == set_count
        assert report.multiset_count == multiset_count

    def test_per_length_breakdown_sums_to_total(self):
        for b, s in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
            report = audit_hypercycles(b, s, budget=10**7)
            assert [j for j, _ in report.count_by_cycle_length] == list(
                range(2, s + 1)
            )
            assert all(
                c == hypercycle_class_count(b, s, j)
                for j, c in report.count_by_cycle_length
            )
            assert report.cycle_length_total == sum(
                c for _, c in report.count_by_cycle_length
            )

    def test_notes_flag_the_unreconciled_families(self):
        report = audit_hypercycles(3, 2)
        assert "no equality across families" in report.notes

    def test_exhaustive_counts_skipped_past_4300_candidate_digits(self):
        # the refusal inside the audit words a count str() cannot write
        report = audit_hypercycles(3, 1000)
        assert report.set_count is None
        assert report.multiset_count is None
        assert report.notes.endswith("exhaustive counts skipped, shape exceeds the budget")

    def test_exhaustive_counts_skipped_over_budget(self):
        # with a tiny budget the formula columns still fill in; the
        # enumeration columns are marked absent rather than wrong
        report = audit_hypercycles(3, 3, budget=1)
        assert report.closed_form_count == 1080
        assert report.set_count is None
        assert report.multiset_count is None
