"""Prufer-style codec between rooted uniform-hypertree forests and 4-tuples.

A forest on n = s*(b-1) + k + 1 vertices with s hyperedges of size b and
k+1 roots is represented by the 4-tuple (roots, final_root, blocks, links):

* roots: the k+1 root labels,
* final_root: one distinguished root (present exactly when s >= 1),
* blocks: an unordered partition of the n - k - 1 non-root vertices into
  s blocks of b-1 labels each,
* links: a sequence of s-1 labels, repeats allowed, drawn from 1..n.

Encoding prunes the forest one leaf block at a time, always the block with
the smallest label among the current leaves, recording the block and its
link vertex.  The link recorded by the last round is always a root; it is
removed from the link sequence and kept as final_root, which leaves s-1
links.  Decoding replays the construction: at each step it takes the
unused block with the smallest label none of whose vertices occurs in the
not-yet-consumed part of the link sequence (the entry being consumed
counts as not yet consumed), joins it with the current link to form a
hyperedge, and finally closes the last block with final_root.

Both directions run in O((n + s) log s) time using a heap of ready blocks,
and the pair of maps is a bijection between valid forests and valid codes
of the same shape.  Neither runs a separate validation pass: once a few
counts fit n = s*(b-1) + k + 1, the pass doing the work proves its input
valid, and a refusal raises with the validate function's report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, NoReturn

from .errors import InvalidStructureError, InvariantViolation, ParameterRangeError, _words
from .forest import (
    Hyperedge,
    RootedForest,
    ValidationReport,
    VertexId,
    _leaf_scan,
    ensure_valid,
)

Block = tuple[VertexId, ...]


def check_shape(b: int, s: int, k: int = 0, min_s: int = 0) -> None:
    """Raise ParameterRangeError unless b >= 2, s >= min_s and k >= 0.

    The one home of the shape ranges: every entry point that takes b, s or
    k checks them here, passing the smallest edge count it accepts.
    """
    if b < 2:
        raise ParameterRangeError(f"edge size b={_words(b)} must be at least 2")
    if s < min_s:
        raise ParameterRangeError(f"edge count s={_words(s)} must be at least {min_s}")
    if k < 0:
        raise ParameterRangeError(f"tree parameter k={_words(k)} must be at least 0")


@dataclass(frozen=True)
class ForestShape:
    """Shape parameters of a forest: edge size b, edge count s, k+1 trees.

    The vertex count n = s*(b-1) + k + 1 is derived; it satisfies n >= b
    automatically whenever s >= 1.  Requires b >= 2, s >= 0, k >= 0.
    """

    b: int
    s: int
    k: int

    def __post_init__(self) -> None:
        check_shape(self.b, self.s, self.k)

    @property
    def n(self) -> int:
        return self.s * (self.b - 1) + self.k + 1


@dataclass(frozen=True)
class ForestCode:
    """The 4-tuple code of a forest.  Serialised with keys R, r, P, N.

    Canonical form: roots ascending, each block ascending, blocks ordered by
    their smallest label, links kept in sequence order.  The constructor
    only canonicalises; use :func:`validate_code` for the structural rules.
    """

    shape: ForestShape
    roots: tuple[VertexId, ...]
    final_root: VertexId | None
    blocks: tuple[Block, ...]
    links: tuple[VertexId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roots", tuple(sorted(self.roots)))
        object.__setattr__(
            self, "blocks", tuple(sorted(tuple(sorted(blk)) for blk in self.blocks))
        )
        object.__setattr__(self, "links", tuple(self.links))


def validate_code(code: ForestCode) -> ValidationReport:
    """Check every code invariant and report all violations.

    Rules: exactly k+1 distinct roots in 1..n; final_root present and a root
    exactly when s >= 1; blocks form a partition of the non-root labels into
    s blocks of b-1; links has max(s-1, 0) entries, each in 1..n.  Never
    raises, at any integer size: the report words every number in full."""
    shape = code.shape
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    violations: list[str] = []
    span = f"1..{_words(n)}"

    roots = code.roots
    if len(roots) != k + 1:
        violations.append(f"expected {_words(k + 1)} roots, found {len(roots)}")
    if len(set(roots)) != len(roots):
        violations.append("repeated root label")
    for r in roots:
        if r < 1 or r > n:
            violations.append(f"root {_words(r)} outside {span}")

    if s == 0:
        if code.final_root is not None:
            violations.append("final root must be absent when s=0")
    elif code.final_root is None:
        violations.append("final root is required when s>=1")
    elif code.final_root not in roots:
        violations.append(f"final root {_words(code.final_root)} is not a root")

    if len(code.blocks) != s:
        violations.append(f"expected {_words(s)} blocks, found {len(code.blocks)}")
    seen: set[int] = set()
    overlap = False
    for blk in code.blocks:
        if len(blk) != b - 1:
            violations.append(f"block {_words(blk)}: has {len(blk)} labels, "
                              f"expected {_words(b - 1)}")
        for v in blk:
            if v < 1 or v > n:
                violations.append(f"block label {_words(v)} outside {span}")
            elif v in seen:
                overlap = True
            else:
                seen.add(v)
    if overlap:
        violations.append("blocks are not disjoint")
    root_set = set(roots)
    if seen & root_set:
        violations.append("a root label appears inside a block")
    elif not overlap and len(seen) != n - sum(1 for r in root_set if 1 <= r <= n):
        # seen holds distinct in-range non-root labels, so it covers every
        # non-root label exactly when it has as many members as there are
        violations.append("blocks do not cover every non-root label exactly once")

    expected_links = max(s - 1, 0)
    if len(code.links) != expected_links:
        violations.append(
            f"expected {_words(expected_links)} links, found {len(code.links)}"
        )
    for v in code.links:
        if v < 1 or v > n:
            violations.append(f"link {_words(v)} outside {span}")

    return ValidationReport(not violations, tuple(violations), s, k)


def ensure_valid_code(code: ForestCode) -> None:
    """Raise InvalidStructureError unless the code validates cleanly."""
    report = validate_code(code)
    if not report.valid:
        raise InvalidStructureError("invalid code: " + "; ".join(report.violations))


def _reject(value: Any, ensure: Callable[[Any], None]) -> NoReturn:
    """Raise ensure's report for a value encode or decode refused."""
    ensure(value)
    raise InvariantViolation(f"the codec refused a {type(value).__name__} that validates")


def encode_forest(forest: RootedForest) -> ForestCode:
    """Encode a valid forest as its 4-tuple code.

    Repeatedly prunes the leaf block with the smallest label, recording the
    block and its link; the last link, a root, becomes final_root.  An
    anchor is a vertex of incidence above 1: 2 for a root, plus its places
    in edges, less the rounds it was the link of.  An edge enters a heap
    keyed by smallest block label at most once, when its anchor count is or
    drops to one: that anchor is its link and the rest its block, filed by
    its smallest label so that the blocks read out in canonical order.

    Refused, with :func:`validate_forest`'s report: b < 2; no roots, a
    repeated root or a label below 1; n other than s*(b-1) + k + 1; an edge
    not of b labels; a label above n, or a heap empty before round s
    (IndexError).  A pruning of all s edges proves the rest valid: a block
    vertex has incidence 1 on entry, so is no root and in no other edge not
    yet pruned, and the blocks are s disjoint sets of b-1 non-root labels,
    none holding its own link or a later round's.  With the k+1 distinct
    roots that is n distinct labels in 1..n, all of them, so each link is a
    root or in a later block.  Read backwards, each round hangs b-1 new
    labels off a placed vertex: one rooted hypertree per root, no link
    loses its last anchor, and the last link is a root.
    """
    n, b, edges, roots = forest.n, forest.b, forest.edges, forest.roots
    s, k = len(edges), len(roots) - 1
    # roots and edges are sorted, so their first labels are the smallest
    if (
        b < 2 or not roots or roots[0] < 1 or len(set(roots)) != k + 1
        or n != s * (b - 1) + k + 1
        or (s and (set(map(len, edges)) != {b} or edges[0][0] < 1))
    ):
        _reject(forest, ensure_valid)

    links: list[VertexId] = []
    record_link = links.append
    try:
        incidence, live_edge_sum, anchors, link_at, block_at, heap = _leaf_scan(n, edges, roots)
        heapify(heap)
        for _ in range(s):
            i = heappop(heap) % s
            link = link_at[i]
            left = incidence[link] = incidence[link] - 1
            record_link(link)
            live_edge_sum[link] -= i
            if left == 1:
                j = live_edge_sum[link]  # the one live edge left at link
                anchors[j] -= 1
                if anchors[j] == 1:
                    e = edges[j]
                    for u in e:
                        if incidence[u] > 1:
                            break
                    link_at[j] = u
                    q = e.index(u)
                    block = e[:q] + e[q + 1 :]
                    block_at[block[0]] = block
                    heappush(heap, block[0] * s + j)
    except IndexError:  # a label above n, or an empty heap before round s
        _reject(forest, ensure_valid)

    shape = ForestShape(b=b, s=s, k=k)
    final_root = links.pop() if s else None
    blocks = tuple(filter(None, block_at))
    return ForestCode(shape, roots, final_root, blocks, tuple(links))


def decode_code(code: ForestCode) -> RootedForest:
    """Decode a valid 4-tuple code back into its forest.

    Walks the link sequence left to right, then final_root as the s-th link.
    At each step the hyperedge is the current link joined with the unused
    block of smallest label whose vertices are all absent from the remaining
    links, the current entry included.  Block readiness is tracked by
    counting, per block, how many of its vertices still occur in the
    unconsumed links; a block enters the ready heap when that count reaches
    zero.  At least one block is always ready: the u unused blocks are
    pairwise disjoint, so the u-1 or fewer remaining entries of links can
    block at most u-1 of them, and final_root, a root, blocks none.

    The checks below fix every count, every label >= 1 and final_root; if
    :func:`_replay` then meets no label above n and none twice, the k+1 roots
    and s(b-1) block labels are the n labels 1..n, so the blocks partition
    the non-roots.  Refusals carry validate_code's report.  The sampler's
    stream hands its raw draws to _replay itself: it builds no code, since
    its parts are valid by construction.
    """
    shape = code.shape
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    roots, final_root, blocks, links = code.roots, code.final_root, code.blocks, code.links
    # roots and blocks are sorted, so roots[0] and blocks[0][0] are the smallest labels
    if (
        len(roots) != k + 1 or roots[0] < 1 or roots[-1] > n or len(set(roots)) != k + 1
        or (final_root not in roots if s else final_root is not None)
        or len(blocks) != s or len(links) != max(s - 1, 0) or min(links, default=1) < 1
        or (s and (set(map(len, blocks)) != {b - 1} or blocks[0][0] < 1))
    ):
        _reject(code, ensure_valid_code)
    edges = _replay(n, s, roots, final_root, blocks, links)
    if edges is None:
        _reject(code, ensure_valid_code)
    return RootedForest(n=n, b=b, edges=edges, roots=roots)


def _replay(
    n: int,
    s: int,
    roots: Sequence[VertexId],
    final_root: VertexId | None,
    blocks: Sequence[Block],
    links: Sequence[VertexId],
) -> list[Hyperedge] | None:
    """decode_code's replay: the forest's edges, in replay order, or None on
    a label above n, a label placed twice, or a root inside a block.

    The blocks may come in any order, and each block's labels in any order:
    a block's heap key is its smallest label, found by the placement loop,
    which visits every label anyway; a min() call per block costs more.
    The caller fixes the counts, every label >= 1 and final_root as a root.
    """
    if not s:
        return []
    try:
        occurrences = [0] * (n + 1)
        for v in links:
            occurrences[v] += 1
        # a label's slot holds its block, s for a root, -1 while unplaced
        block_of = [-1] * (n + 1)
        for r in roots:
            block_of[r] = s
        # heap entries are smallest_label * s + block_id, single-int comparisons
        smallest = [0] * s
        pending = [0] * s
        heap: list[int] = []
        for j, blk in enumerate(blocks):
            c = 0
            low = blk[0]
            for v in blk:
                if block_of[v] != -1:  # a root, or a label already placed
                    return None
                block_of[v] = j
                if occurrences[v]:
                    c += 1
                if v < low:
                    low = v
            smallest[j] = low
            pending[j] = c
            if c == 0:
                heap.append(low * s + j)
    except IndexError:  # a label above n
        return None
    heapify(heap)

    edges: list[Hyperedge] = []
    record_edge = edges.append
    # final_root's count may drop to -1: harmless, as a root's block_of is s
    for v in (*links, final_root):
        j = heappop(heap) % s
        record_edge(blocks[j] + (v,))
        occurrences[v] -= 1
        if occurrences[v] == 0:
            bj = block_of[v]
            if bj < s:
                pending[bj] -= 1
                if pending[bj] == 0:
                    heappush(heap, smallest[bj] * s + bj)
    return edges
