"""Structural layer: forests, components, validation, leaf blocks."""

from __future__ import annotations

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperforest import (
    Component,
    InvalidStructureError,
    RootedForest,
    component_decomposition,
    enumerate_forests,
    leaf_blocks,
    validate_forest,
)

from conftest import WORKED_EDGES, WORKED_ROOTS, malformed_forests, small_hypergraphs


class TestRootedForest:
    def test_canonicalises_edges_and_roots(self):
        f = RootedForest(n=5, b=3, edges=[(5, 3, 1), (4, 2, 3)], roots=[3])
        assert f.edges == ((1, 3, 5), (2, 3, 4))
        assert f.roots == (3,)
        assert f.s == 2
        assert f.k == 0

    def test_structural_equality(self):
        f = RootedForest(n=3, b=2, edges=[(2, 1), (3, 2)], roots=(1,))
        g = RootedForest(n=3, b=2, edges=[(2, 3), (1, 2)], roots=[1])
        assert f == g
        assert hash(f) == hash(g)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(InvalidStructureError, match="duplicate hyperedge"):
            RootedForest(n=3, b=3, edges=[(1, 2, 3), (3, 2, 1)], roots=(1,))


class TestComponentDecomposition:
    def test_worked_forest(self, worked_forest):
        report = component_decomposition(worked_forest)
        assert len(report) == 4
        assert all(c.excess == -1 for c in report)
        assert all(c.root_count == 1 for c in report)
        # ordered by smallest vertex, and the vertex sets partition 1..22
        mins = [c.vertices[0] for c in report]
        assert mins == sorted(mins)
        everything = sorted(v for c in report for v in c.vertices)
        assert everything == list(range(1, 23))

    def test_single_isolated_vertex(self):
        f = RootedForest(n=1, b=2, edges=(), roots=(1,))
        report = component_decomposition(f)
        assert len(report) == 1
        assert report.components[0].excess == -1
        assert report.components[0].vertices == (1,)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices_raises(self, n):
        f = RootedForest(n=n, b=2, edges=(), roots=(1,))
        with pytest.raises(InvalidStructureError) as info:
            component_decomposition(f)
        assert str(info.value) == f"vertex count n={n} must be at least 1"

    def test_triangle_has_excess_zero(self):
        f = RootedForest(n=3, b=2, edges=[(1, 2), (2, 3), (1, 3)], roots=(1,))
        report = component_decomposition(f)
        assert len(report) == 1
        assert report.components[0].excess == 0

    @pytest.mark.parametrize(
        "edge",
        [(1, 2), (1, 2, 3, 4), (1, 1, 2), (1, 2, 9)],
        ids=["too-small", "too-big", "repeated-label", "out-of-range"],
    )
    def test_malformed_edge_raises(self, edge):
        f = RootedForest(n=5, b=3, edges=[edge], roots=(4,))
        with pytest.raises(InvalidStructureError, match="malformed"):
            component_decomposition(f)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_vertex_sets_partition_labels(self, data):
        n = data.draw(st.integers(min_value=2, max_value=10))
        b = data.draw(st.integers(min_value=2, max_value=min(4, n)))
        edge_pool = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=n),
                    min_size=b,
                    max_size=b,
                    unique=True,
                ),
                max_size=5,
            )
        )
        edges = []
        seen = set()
        for e in edge_pool:
            t = tuple(sorted(e))
            if t not in seen:
                seen.add(t)
                edges.append(t)
        f = RootedForest(n=n, b=b, edges=edges, roots=(1,))
        report = component_decomposition(f)
        everything = sorted(v for c in report for v in c.vertices)
        assert everything == list(range(1, n + 1))

    def test_matches_breadth_first_reference_on_every_small_hypergraph(self):
        checked = 0
        for forest in small_hypergraphs():
            report = component_decomposition(forest)
            assert report.components == components_by_breadth_first_search(forest), forest
            checked += 1
        assert checked == 10_103


def components_by_breadth_first_search(forest: RootedForest) -> tuple[Component, ...]:
    """The components of a well-formed forest, found by breadth-first search
    from each unvisited vertex in ascending order: vertices ascending, edges
    in the forest's order, distinct roots counted once."""
    edges_at: dict[int, list[tuple[int, ...]]] = {}
    for e in forest.edges:
        for v in e:
            edges_at.setdefault(v, []).append(e)
    seen: set[int] = set()
    components = []
    for start in range(1, forest.n + 1):
        if start in seen:
            continue
        seen.add(start)
        queue, members = deque([start]), {start}
        while queue:
            v = queue.popleft()
            for e in edges_at.get(v, ()):
                for u in e:
                    if u not in seen:
                        seen.add(u)
                        members.add(u)
                        queue.append(u)
        comp_edges = tuple(e for e in forest.edges if e[0] in members)
        components.append(
            Component(
                vertices=tuple(sorted(members)),
                edges=comp_edges,
                excess=sum(len(e) - 1 for e in comp_edges) - len(members),
                root_count=len(set(forest.roots) & members),
            )
        )
    return tuple(components)


class TestValidateForest:
    def test_worked_forest_is_valid(self, worked_forest):
        report = validate_forest(worked_forest)
        assert report.valid
        assert report.violations == ()
        assert report.s == 9
        assert report.k == 3

    def test_triangle_reports_excess(self):
        # n = 4 fits s(b-1)+k+1, so the components are analysed
        f = RootedForest(n=4, b=2, edges=[(1, 2), (2, 3), (1, 3)], roots=(4,))
        report = validate_forest(f)
        assert not report.valid
        assert any("excess 0" in v for v in report.violations)

    def test_missing_root_reported(self):
        f = RootedForest(n=22, b=3, edges=WORKED_EDGES, roots=(5, 9, 13, 21))
        report = validate_forest(f)
        assert not report.valid
        assert any("0 roots" in v for v in report.violations)

    def test_two_roots_in_one_component_reported(self):
        f = RootedForest(n=5, b=2, edges=[(1, 2), (4, 5)], roots=(3, 4, 5))
        report = validate_forest(f)
        assert not report.valid
        assert any("2 roots" in v for v in report.violations)
        assert any("0 roots" in v for v in report.violations)

    def test_shape_arithmetic_reported(self):
        # the declared n is the one violation: no component of the declared
        # labels is analysed, so vertex 4 gets no "has 0 roots" line
        f = RootedForest(n=4, b=2, edges=[(1, 2)], roots=(3,))
        report = validate_forest(f)
        assert not report.valid
        assert report.violations == ("vertex count n=4 differs from s(b-1)+k+1=2",)

    def test_overlapping_pair_reported(self):
        f = RootedForest(
            n=5, b=3, edges=[(1, 2, 3), (1, 2, 4)], roots=(5,)
        )
        report = validate_forest(f)
        assert not report.valid
        assert any("more than one hyperedge" in v for v in report.violations)

    def test_malformed_edges_become_violations(self):
        f = RootedForest(n=4, b=3, edges=[(1, 2), (1, 2, 9)], roots=(4,))
        report = validate_forest(f)
        assert not report.valid
        assert any("expected b=3" in v for v in report.violations)
        assert any("outside 1..4" in v for v in report.violations)

    def test_lists_every_violation(self):
        # root 16 moved into the big tree: one tree with two, one with none
        f = RootedForest(n=22, b=3, edges=WORKED_EDGES, roots=(5, 9, 13, 21))
        report = validate_forest(f)
        assert report.violations == (
            "component containing vertex 1 has 2 roots, expected exactly 1",
            "component containing vertex 16 has 0 roots, expected exactly 1",
        )


# forests among small_hypergraphs() whose report has a vertex-pair violation;
# only those whose n fits s(b-1)+k+1 reach the component analysis
PAIR_VIOLATION_FORESTS = 150


def violations_with_full_pair_scan(forest: RootedForest) -> tuple[str, ...]:
    """validate_forest's violations as they read when the vertex-pair scan
    runs on every well-formed forest, whatever the component excesses."""
    n, b, edges, roots = forest.n, forest.b, forest.edges, forest.roots
    violations = validate_forest(forest).violations
    well_formed = (
        n >= 1
        and b >= 2
        and roots
        and len(set(roots)) == len(roots)
        and all(1 <= r <= n for r in roots)
        and all(len(set(e)) == len(e) == b and e[0] >= 1 and e[-1] <= n for e in edges)
        and n == len(edges) * (b - 1) + len(roots)
    )
    if not well_formed:
        return violations
    pairs, seen = [], set()
    for e in edges:
        for u, v in itertools.combinations(e, 2):
            if (u, v) in seen:
                pairs.append(
                    f"vertices {u} and {v} appear together in more than one hyperedge"
                )
            seen.add((u, v))
    others = tuple(v for v in violations if not v.startswith("vertices "))
    return others + tuple(pairs)


class TestPairScanRunsOnlyAfterAnExcessViolation:
    def test_same_violations_on_every_small_hypergraph(self):
        with_pairs = 0
        for forest in small_hypergraphs():
            expected = violations_with_full_pair_scan(forest)
            assert validate_forest(forest).violations == expected, forest
            with_pairs += any(v.startswith("vertices ") for v in expected)
        assert with_pairs == PAIR_VIOLATION_FORESTS

    @settings(max_examples=200, deadline=None)
    @given(malformed_forests())
    def test_same_violations_on_malformed_forests(self, forest):
        assert validate_forest(forest).violations == violations_with_full_pair_scan(forest)


@st.composite
def forests_with_repeated_pairs(draw):
    """Well-formed hypergraphs, b in 3..5, of up to 8 hypertrees, plus 1-3
    edges that each copy two vertices of an earlier edge and take the rest
    from outside it, so that vertex pairs repeat inside a tree or across
    the trees an extra edge joins; labels shuffled, n fitted to s(b-1)+k+1
    and the roots drawn at random."""
    b = draw(st.integers(3, 5))
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 8))):
        first = n + 1
        n += 1
        for _ in range(draw(st.integers(1, 4))):
            anchor = draw(st.integers(first, n))
            edges.append((anchor, *range(n + 1, n + b)))
            n += b - 1
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.sampled_from(edges))
        # the rest lies outside base, up to b - 2 labels above n
        rest = draw(st.lists(st.integers(1, n + b - 2).filter(lambda v: v not in base),
                             min_size=b - 2, max_size=b - 2, unique=True))
        extra = tuple(sorted((*draw(st.permutations(base))[:2], *rest)))
        if extra not in {tuple(sorted(e)) for e in edges}:
            edges.append(extra)
            n = max(n, *extra)
    n += max(0, 1 - (n - len(edges) * (b - 1)))
    relabel = (0, *draw(st.permutations(range(1, n + 1))))
    edges = [tuple(relabel[v] for v in e) for e in edges]
    roots = draw(st.permutations(range(1, n + 1)))[: n - len(edges) * (b - 1)]
    return RootedForest(n=n, b=b, edges=edges, roots=roots)


class TestPairScanReadsOnlyClosedComponents:
    """The pair scan skips the edges of components without a closing
    vertex; here it is checked against the scan over every edge."""

    @settings(max_examples=300, deadline=None)
    @given(forests_with_repeated_pairs())
    def test_same_violations_as_the_full_scan(self, forest):
        expected = violations_with_full_pair_scan(forest)
        assert any(v.startswith("vertices ") for v in expected)
        assert validate_forest(forest).violations == expected


@st.composite
def mid_sized_hypergraphs(draw):
    """Well-formed hypergraphs of up to 80 vertices whose n fits
    s(b-1)+k+1: hypertrees, some of them closed into cycles or joined by
    extra edges, with 0-2 roots per component and labels shuffled, so that
    no component is a run of consecutive labels."""
    b = draw(st.integers(2, 4))
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 8))):
        first = n + 1
        n += 1
        for _ in range(draw(st.integers(0, 3))):
            anchor = draw(st.integers(first, n))
            edges.append((anchor, *range(n + 1, n + b)))
            n += b - 1
    if n >= b:
        extra_edge = st.lists(st.integers(1, n), min_size=b, max_size=b, unique=True)
        for extra in draw(st.lists(extra_edge, max_size=3)):
            if tuple(sorted(extra)) not in {tuple(sorted(e)) for e in edges}:
                edges.append(tuple(extra))
    # n - s(b-1) roots are needed, and at least one: each isolated vertex
    # added needs one more
    n += max(0, 1 - (n - len(edges) * (b - 1)))
    relabel = (0, *draw(st.permutations(range(1, n + 1))))
    edges = [tuple(relabel[v] for v in e) for e in edges]
    unrooted = RootedForest(n=n, b=b, edges=edges, roots=())
    components = components_by_breadth_first_search(unrooted)
    # at most min(2, size) roots each, at least one per component in all,
    # and n - s(b-1), the sum of minus the excesses, is at most that
    most = [min(2, len(comp.vertices)) for comp in components]
    counts = [draw(st.integers(0, m)) for m in most]
    needed = n - len(edges) * (b - 1)
    while sum(counts) > needed:
        counts[next(i for i, c in enumerate(counts) if c)] -= 1
    while sum(counts) < needed:
        counts[next(i for i, (c, m) in enumerate(zip(counts, most)) if c < m)] += 1
    roots = []
    for comp, c in zip(components, counts):
        roots.extend(draw(st.permutations(comp.vertices))[:c])
    return RootedForest(n=n, b=b, edges=edges, roots=roots)


class TestComponentViolationsMatchBreadthFirstSearch:
    """validate_forest reads excess and roots from union-find counts; here
    they are checked against components found by breadth-first search, at
    sizes the exhaustive small_hypergraphs() sweep never reaches."""

    @settings(max_examples=300, deadline=None)
    @given(mid_sized_hypergraphs())
    def test_component_violations(self, forest):
        expected = []
        for comp in components_by_breadth_first_search(forest):
            head = comp.vertices[0]
            if comp.excess != -1:
                expected.append(
                    f"component containing vertex {head} has excess {comp.excess}, expected -1"
                )
            if comp.root_count != 1:
                expected.append(
                    f"component containing vertex {head} has {comp.root_count} roots, "
                    f"expected exactly 1"
                )
        violations = validate_forest(forest).violations
        assert [v for v in violations if not v.startswith("vertices ")] == expected


class TestLeafBlocks:
    def test_worked_forest_initial_leaves(self, worked_forest):
        found = [(lb.block, lb.link) for lb in leaf_blocks(worked_forest)]
        assert found == [
            ((1, 22), 21),
            ((2, 17), 18),
            ((3, 19), 13),
            ((10, 15), 13),
            ((12, 14), 4),
        ]

    def test_single_edge(self):
        f = RootedForest(n=3, b=3, edges=[(1, 2, 3)], roots=(3,))
        found = leaf_blocks(f)
        assert len(found) == 1
        assert found[0].block == (1, 2)
        assert found[0].link == 3
        assert found[0].edge == (1, 2, 3)

    def test_path_graph(self):
        f = RootedForest(n=3, b=2, edges=[(1, 2), (2, 3)], roots=(1,))
        found = leaf_blocks(f)
        assert [(lb.block, lb.link) for lb in found] == [((3,), 2)]

    def test_invalid_forest_raises(self):
        f = RootedForest(n=3, b=2, edges=[(1, 2), (2, 3), (1, 3)], roots=(1,))
        with pytest.raises(InvalidStructureError, match="invalid forest"):
            leaf_blocks(f)

    def test_blocks_are_disjoint_across_sampled_shapes(self):
        for b, s, k in [(2, 3, 1), (3, 2, 0), (4, 2, 1)]:
            for forest in enumerate_forests(b, s, k):
                found = leaf_blocks(forest)
                members = [v for lb in found for v in lb.block]
                assert len(members) == len(set(members))

    def test_every_valid_forest_has_a_leaf_block(self):
        # every b = 2 shape with n <= 7 and every b >= 3 shape with n <= 8;
        # the larger shapes blow past a sane unit-test budget, and the
        # exhaustive round-trip sweep exercises them anyway
        shapes = []
        for b in range(2, 9):
            for s in range(1, 9):
                for k in range(0, 8):
                    n = s * (b - 1) + k + 1
                    limit = 7 if b == 2 else 8
                    if b <= n <= limit:
                        shapes.append((b, s, k))
        assert (2, 6, 0) in shapes and (3, 3, 1) in shapes
        for b, s, k in shapes:
            for forest in enumerate_forests(b, s, k):
                assert leaf_blocks(forest), (b, s, k, forest)
