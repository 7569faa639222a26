"""Labelled rooted uniform hypergraph forests and their structural checks.

A forest here is a hypergraph on vertices 1..n whose hyperedges all have b
vertices, together with one distinguished root vertex per connected
component.  The excess of a connected hypergraph is sum(|e| - 1) over its
hyperedges minus its vertex count; a component is a hypertree exactly when
its excess is -1, and a forest is a hypergraph all of whose components are
hypertrees.  With s hyperedges and k+1 components the vertex count satisfies
n = s*(b-1) + k + 1.

All values are immutable, nothing writes to them after construction, and
they hash/compare structurally, so they are safe to share across threads.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, islice
from operator import eq
from typing import Iterable, Iterator

from .errors import InvalidStructureError, _words

VertexId = int
Hyperedge = tuple[VertexId, ...]


@dataclass(frozen=True)
class RootedForest:
    """A b-uniform hypergraph on 1..n with one root per intended component.

    The constructor canonicalises: each edge is stored as an ascending tuple,
    the edge list is sorted lexicographically, roots are sorted ascending.
    Duplicate hyperedges are rejected outright.  Every other invariant
    (uniform edge size, labels in range, component excess -1, exactly one
    root per component) is checked by :func:`validate_forest`, so invalid
    values can be constructed, inspected, reported on, and never altered.
    """

    n: int
    b: int
    edges: tuple[Hyperedge, ...]
    roots: tuple[VertexId, ...]

    def __post_init__(self) -> None:
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        for e in compress(edges[1:], map(eq, edges, edges[1:])):
            raise InvalidStructureError(f"duplicate hyperedge {_words(e)}: edges form a set")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "roots", tuple(sorted(self.roots)))

    @property
    def s(self) -> int:
        """Number of hyperedges."""
        return len(self.edges)

    @property
    def k(self) -> int:
        """One less than the number of roots (and of intended components)."""
        return len(self.roots) - 1


@dataclass(frozen=True)
class Component:
    """One connected component: its vertices, edges, excess, and root count."""

    vertices: tuple[VertexId, ...]
    edges: tuple[Hyperedge, ...]
    excess: int
    root_count: int


@dataclass(frozen=True)
class ComponentReport:
    """Connected components of a forest, ordered by smallest vertex label."""

    components: tuple[Component, ...]

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validation.

    ``violations`` lists every broken rule in human-readable form; ``valid``
    is True only when the list is empty.  ``s`` and ``k`` echo the edge count
    and the root count minus one of the checked value.
    """

    valid: bool
    violations: tuple[str, ...]
    s: int
    k: int


@dataclass(frozen=True)
class LeafBlock:
    """A prunable leaf of a forest.

    ``block`` holds the b-1 non-root vertices of ``edge`` that lie in no
    other hyperedge; ``link`` is the one remaining vertex of the edge, the
    vertex through which the edge hangs off the rest of its tree.
    """

    block: tuple[VertexId, ...]
    link: VertexId
    edge: Hyperedge


def _edge_violations(n: int, b: int, edges: Iterable[Hyperedge]) -> list[str]:
    """Well-formedness problems of individual edges (size, range, repeats)."""
    problems = []
    for e in edges:
        if len(e) != b:
            problems.append(f"edge {_words(e)}: has {len(e)} vertices, expected b={_words(b)}")
        if len(set(e)) != len(e):
            problems.append(f"edge {_words(e)}: repeated vertex label")
        if e and (e[0] < 1 or e[-1] > n):
            problems.append(f"edge {_words(e)}: vertex label outside 1..{_words(n)}")
    return problems


def _union_find(n: int, edges: Iterable[Hyperedge]) -> tuple:
    """The parent list, find, and closing vertices of a hypergraph on 1..n.

    A union keeps the smaller head and find halves paths, so each component's
    head, the v with ``parent[v] == v``, is its smallest vertex.  A closing
    vertex is an edge vertex, after the first, already in its edge's
    component: of the sum(|e| - 1) merges tried in a component of V vertices,
    V - 1 succeed and each other meets one, so excess x means x + 1 of them.
    """
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    closing = []
    for e in edges:
        r0 = find(e[0])
        for v in e[1:]:
            r1 = find(v)
            if r1 == r0:
                closing.append(v)
            elif r1 < r0:
                parent[r0] = r1
                r0 = r1
            else:
                parent[r1] = r0
    return parent, find, closing


def _components(n: int, edges: Iterable[Hyperedge]) -> list[list[VertexId]]:
    """The components' vertex lists of a hypergraph on 1..n, each ascending,
    in order of their smallest vertex (dict insertion order)."""
    _, find, _ = _union_find(n, edges)
    groups: defaultdict[int, list[VertexId]] = defaultdict(list)
    for v in range(1, n + 1):
        groups[find(v)].append(v)
    return list(groups.values())


def component_decomposition(forest: RootedForest) -> ComponentReport:
    """Split a forest into connected components with excess and root counts.

    Components come by smallest vertex; an edge is filed under the component
    of its first vertex.  Isolated vertices form singleton components of
    excess -1.  Raises InvalidStructureError when a hyperedge is malformed
    (wrong size, label out of 1..n, repeated label inside the edge); all
    component-level rules are reported, not raised, by :func:`validate_forest`.
    """
    n, b, edges = forest.n, forest.b, forest.edges
    if n < 1:
        raise InvalidStructureError(f"vertex count n={_words(n)} must be at least 1")
    problems = _edge_violations(n, b, edges)
    if problems:
        raise InvalidStructureError("malformed hyperedge: " + "; ".join(problems))

    groups = _components(n, edges)
    index = {v: i for i, verts in enumerate(groups) for v in verts}
    edges_of: list[list[Hyperedge]] = [[] for _ in groups]
    for e in edges:
        edges_of[index[e[0]]].append(e)
    roots_in = Counter(index[v] for v in set(forest.roots) if 1 <= v <= n)
    return ComponentReport(tuple(
        Component(tuple(verts), tuple(es), sum(len(e) - 1 for e in es) - len(verts), roots_in[i])
        for i, (verts, es) in enumerate(zip(groups, edges_of))
    ))


def validate_forest(forest: RootedForest) -> ValidationReport:
    """Check every forest invariant and report all violations.

    Rules: n >= 1 and b >= 2; every edge has b distinct labels in 1..n;
    roots are distinct labels in 1..n; n = s*(b-1) + k + 1; every component
    has excess -1 and contains exactly one root; no two hyperedges share
    more than one vertex.  Never raises, at any integer size: the report
    words every number in full.  Malformed edges or roots, or else
    an n that differs from s*(b-1) + k + 1, end the report there, so its
    size and cost follow the forest's edges and roots, not its declared n.

    The last rule can only fail where the excess rule has failed too: a
    component of excess -1 is a hypertree, which is Berge-acyclic, so no
    two of its edges share two vertices.  Its scan over vertex pairs reads
    only the edges of components with an excess violation.  Validity is
    read from counts, with no component listed: at each head of
    :func:`_union_find`, its closing vertices and its roots.
    """
    n, b, edges, roots = forest.n, forest.b, forest.edges, forest.roots
    s, k = forest.s, forest.k
    violations: list[str] = []

    if n < 1:
        violations.append(f"vertex count n={_words(n)} must be at least 1")
    if b < 2:
        violations.append(f"uniformity b={_words(b)} must be at least 2")
    violations.extend(_edge_violations(max(n, 0), b, edges))
    for i in range(1, len(roots)):
        if roots[i] == roots[i - 1]:
            violations.append(f"repeated root {_words(roots[i])}")
    for r in roots:
        if r < 1 or r > n:
            violations.append(f"root {_words(r)} outside 1..{_words(n)}")
    if not roots:
        violations.append("at least one root is required")
    if not violations and n != s * (b - 1) + k + 1:
        violations.append(
            f"vertex count n={_words(n)} differs from s(b-1)+k+1={_words(s * (b - 1) + k + 1)}"
        )
    if violations:
        # component analysis is meaningless on malformed input, and on a
        # declared n that the edges and roots cannot fill it would report
        # per declared vertex rather than per document entry
        return ValidationReport(False, tuple(violations), s, k)

    parent, find, closing = _union_find(n, edges)
    closed = Counter(map(find, closing))
    rooted = Counter(map(find, roots))
    # the heads in ascending order, without copying parent; 0 is no vertex
    heads = compress(range(n + 1), map(eq, parent, range(n + 1)))
    for v in islice(heads, 1, None):
        if closed[v]:
            violations.append(
                f"component containing vertex {v} has excess {closed[v] - 1}, expected -1"
            )
        if rooted[v] != 1:
            violations.append(
                f"component containing vertex {v} has {rooted[v]} roots, expected exactly 1"
            )

    # two edges sharing two vertices u, v close the Berge cycle u-e-v-f-u,
    # and a connected component has excess -1 exactly when it has no Berge
    # cycle: the pair scan needs only the edges of components that have a
    # closing vertex, and a pair never spans two components
    if closing:
        seen_pairs: set[int] = set()
        stride = n + 1
        for e in edges:
            if not closed[find(e[0])]:
                continue
            for i in range(len(e)):
                for j in range(i + 1, len(e)):
                    key = e[i] * stride + e[j]
                    if key in seen_pairs:
                        violations.append(
                            f"vertices {e[i]} and {e[j]} appear together in "
                            f"more than one hyperedge"
                        )
                    else:
                        seen_pairs.add(key)

    return ValidationReport(not violations, tuple(violations), s, k)


def ensure_valid(forest: RootedForest) -> None:
    """Raise InvalidStructureError unless the forest validates cleanly."""
    report = validate_forest(forest)
    if not report.valid:
        raise InvalidStructureError(
            "invalid forest: " + "; ".join(report.violations)
        )


def _leaf_scan(n: int, edges: tuple[Hyperedge, ...], roots: tuple[VertexId, ...]) -> tuple:
    """The encoder's initial leaf scan.

    Per vertex: the incidence and the sum of the ids of its edges.  Per edge:
    the count of anchors, and the link of a one-anchor edge (a leaf), its one
    anchor.  Per label: the block of the leaf whose smallest block label it
    is, the leaf's key.  And the leaves as key * s + edge id.  Roots start at
    incidence 2, so they never fall below 2 while the pruning takes edges
    away, and an anchor (a root, or a vertex in several edges) is just a
    vertex of incidence above 1.  A label above n raises IndexError.
    """
    s = len(edges)
    incidence = [0] * (n + 1)
    live_edge_sum = [0] * (n + 1)
    for r in roots:
        incidence[r] = 2
    for i, e in enumerate(edges):
        for v in e:
            incidence[v] += 1
            live_edge_sum[v] += i

    anchors = [0] * s
    link_at = [0] * s
    block_at: list[Hyperedge | None] = [None] * (n + 1)
    leaves: list[int] = []
    for i, e in enumerate(edges):
        c = 0
        for v in e:
            if incidence[v] > 1:
                c += 1
                link = v
        anchors[i] = c
        if c == 1:
            link_at[i] = link
            q = e.index(link)
            block = e[:q] + e[q + 1 :]
            block_at[block[0]] = block
            leaves.append(block[0] * s + i)
    return incidence, live_edge_sum, anchors, link_at, block_at, leaves


def leaf_blocks(forest: RootedForest) -> list[LeafBlock]:
    """Current leaf blocks of a valid forest, ordered by smallest block label.

    A hyperedge contributes a leaf block when exactly b-1 of its vertices are
    non-root and incident to no other hyperedge; those b-1 vertices form the
    block and the remaining vertex is the link.  Distinct blocks are disjoint
    because block members lie in a single edge each.
    """
    ensure_valid(forest)
    edges, s = forest.edges, forest.s
    _, _, _, link_at, block_at, leaves = _leaf_scan(forest.n, edges, forest.roots)
    return [
        LeafBlock(block_at[entry // s], link_at[entry % s], edges[entry % s])
        for entry in sorted(leaves)
    ]
