"""Acceptance suite: one test per release criterion, in order.

Every criterion is exact (integer or rational equality) except the two
timed budgets and the sampler's chi-square bound, whose tolerances are
stated inline.  Each test records a short note; the conftest hook prints
one PASS/FAIL line per criterion after the run.
"""

import time
from collections import Counter

import scipy.stats

from hyperforest import (
    ForestShape,
    RootedForest,
    audit_hypercycles,
    code_space_size,
    count_forests,
    count_hypercycles,
    count_rooted_hypertrees,
    cycle_sum_identity,
    decode_code,
    encode_forest,
    enumerate_code_space,
    enumerate_forests,
    generate_ids,
    hypercycle_class_count,
    rank_code,
    sample_forest,
    sample_forests,
    unrank_code,
)
from conftest import (
    SWEEP_SHAPES,
    WORKED_BLOCKS,
    WORKED_EDGES,
    WORKED_FINAL_ROOT,
    WORKED_LINKS,
    WORKED_ROOTS,
)


def test_criterion_1_golden_example_round_trip(record_property):
    """The 22-vertex worked example encodes and decodes exactly, < 10 ms."""
    forest = RootedForest(n=22, b=3, edges=WORKED_EDGES, roots=WORKED_ROOTS)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        code = encode_forest(forest)
        back = decode_code(code)
        best = min(best, time.perf_counter() - start)
    assert code.roots == WORKED_ROOTS
    assert code.final_root == WORKED_FINAL_ROOT
    assert code.blocks == WORKED_BLOCKS
    assert code.links == WORKED_LINKS
    assert back.edges == WORKED_EDGES
    assert back.roots == WORKED_ROOTS
    assert best < 0.010
    record_property("note", f"round trip {best * 1000:.2f} ms < 10 ms")


def test_criterion_2_exhaustive_bijection(record_property):
    """Over every desk-scale shape, decode is a bijection from the code
    space onto the brute-force forest set, encode inverts it, and both
    cardinalities match the counting formula.  Budget: 60 s total."""
    start = time.perf_counter()
    shapes = forests_seen = 0
    for b, s, k in SWEEP_SHAPES:
        expected = count_forests(b, s, k)
        decoded = []
        for i, code in enumerate(enumerate_code_space(b, s, k)):
            forest = decode_code(code)
            assert encode_forest(forest) == code
            decoded.append(forest)
        assert len(decoded) == expected
        assert len(set(decoded)) == expected
        assert set(decoded) == set(enumerate_forests(b, s, k))
        shapes += 1
        forests_seen += expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    record_property(
        "note", f"{shapes} shapes, {forests_seen} forests, {elapsed:.1f} s < 60 s"
    )


def test_criterion_3_formula_cross_checks(record_property):
    """Closed-form counts match the oracle and the classic tree count."""
    assert count_forests(3, 2, 0) == 75
    assert sum(1 for _ in enumerate_forests(3, 2, 0)) == 75
    assert count_forests(2, 2, 1) == 48
    assert sum(1 for _ in enumerate_forests(2, 2, 1)) == 48
    for n in range(2, 13):
        assert count_rooted_hypertrees(2, n - 1) == n ** (n - 1)
    for n in range(2, 7):
        assert sum(1 for _ in enumerate_forests(2, n - 1, 0)) == n ** (n - 1)
    for b in range(2, 7):
        for s in range(1, 13):
            assert count_forests(b, s, 0) == count_rooted_hypertrees(b, s)
    record_property(
        "note", "oracle, classic tree count, and k=0 specialisation all equal"
    )


def test_criterion_4_hypercycle_internal_identities(record_property):
    """The two hypercycle formula forms agree, and the rational identity
    behind them holds, for 2 <= s <= 100.  Budget: 5 s."""
    start = time.perf_counter()
    for s in range(2, 101):
        identity = cycle_sum_identity(s)
        assert identity.equal
        assert identity.lhs == identity.rhs
        for b in range(2, 7):
            assert count_hypercycles(b, s, "closed") == count_hypercycles(b, s, "sum")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    record_property(
        "note", f"s up to 100, b up to 6, exact rationals, {elapsed:.2f} s < 5 s"
    )


def test_criterion_5_hypercycle_audit_reports_all_families(record_property):
    """The audit reproduces the formula values and the enumeration values
    side by side; the families genuinely disagree on some shapes and the
    report records that instead of hiding it."""
    first = audit_hypercycles(3, 2)
    assert first.closed_form_count == 12
    assert first.cycle_length_total == 48
    assert first.set_count == 6
    assert first.multiset_count == 6

    second = audit_hypercycles(2, 3)
    assert second.closed_form_count == 9
    assert second.set_count == 1

    for b, s in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        report = audit_hypercycles(b, s)
        assert report.cycle_length_total == sum(
            hypercycle_class_count(b, s, j) for j in range(2, s + 1)
        )

    # the three families must be reported independently, never merged
    assert first.closed_form_count != first.cycle_length_total
    assert first.closed_form_count != first.set_count
    assert "no equality across families" in first.notes
    record_property(
        "note", "(3,2): closed 12, per-length 48, set 6, multiset 6, unreconciled"
    )


def test_criterion_6_rank_unrank_bijectivity(record_property):
    """rank and unrank invert each other across every desk-scale shape,
    and full-space id generation is collision free."""
    checked = 0
    for b, s, k in SWEEP_SHAPES:
        shape = ForestShape(b=b, s=s, k=k)
        size = code_space_size(shape)
        assert size == count_forests(b, s, k)
        ids = generate_ids(shape, size)
        decoded = [decode_code(code) for code in ids]
        assert len(set(ids)) == size
        assert len(set(decoded)) == size
        for i, code in enumerate(enumerate_code_space(b, s, k)):
            assert unrank_code(i, shape) == code
            assert rank_code(code) == i
            assert ids[i] == code
        checked += size
    record_property(
        "note", f"{checked} indexes round-tripped across {len(SWEEP_SHAPES)} shapes"
    )


def test_criterion_7_sampler_uniformity(record_property):
    """90,000 seeded draws on the 9-forest shape stay below the 0.999
    chi-square quantile, and an identical seed reproduces the sequence."""
    shape = ForestShape(b=2, s=2, k=0)
    seed, m = 20260816, 90000
    draws = sample_forests(shape, seed, m)
    tally = Counter((f.edges, f.roots) for f in draws)
    assert len(tally) == 9
    expected = m / 9
    statistic = sum((got - expected) ** 2 / expected for got in tally.values())
    threshold = scipy.stats.chi2.ppf(0.999, 8)
    assert statistic < threshold
    assert draws[:50] == sample_forests(shape, seed, 50)
    record_property(
        "note", f"chi-square {statistic:.2f} < {threshold:.2f}, seeded replay exact"
    )


def test_criterion_8_large_round_trip_performance(record_property):
    """A uniform random forest on nearly a million vertices encodes in
    under 5 s and decodes in under 5 s, exactly."""
    shape = ForestShape(b=3, s=499_999, k=0)
    forest = sample_forest(shape, 7)
    assert forest.n == 999_999

    start = time.perf_counter()
    code = encode_forest(forest)
    encode_time = time.perf_counter() - start

    start = time.perf_counter()
    back = decode_code(code)
    decode_time = time.perf_counter() - start

    assert back == forest
    assert encode_time < 5.0
    assert decode_time < 5.0
    record_property(
        "note",
        f"n=999999: encode {encode_time:.2f} s, decode {decode_time:.2f} s, both < 5 s",
    )
