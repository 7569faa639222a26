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

Both directions run in linear time, O(n): the ready blocks (or leaves) are
bytes of a bytearray indexed by smallest label, read by a scan pointer that
only moves up, as in the classical linear Prufer decoder.  The pair of maps
is a bijection between valid forests and valid codes of the same shape.
Neither runs a separate validation pass: once a few counts fit
n = s*(b-1) + k + 1, the pass doing the work proves its input valid, and a
refusal raises with the validate function's report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
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
    in edges, less the rounds it was the link of.  An edge becomes a leaf at
    most once, when its anchor count is or drops to one: that anchor is its
    link and the rest its block, filed under its head, its smallest label,
    so that the blocks read out in canonical order.  A leaf is ready when
    its head's byte is set; the scan pointer ``head`` only moves up, and a
    new leaf whose head lies below it is the smallest ready one, so it is
    pruned at once and never marked.

    Refused, with :func:`validate_forest`'s report: b < 2; no roots, a
    repeated root or a label below 1; n other than s*(b-1) + k + 1; an edge
    not of b labels; a label above n (IndexError); or no ready leaf before
    round s (find returns -1 while rounds remain).  A pruning of all s
    edges proves the rest valid: a block vertex has incidence 1 on entry,
    so is no root and in no other edge not yet pruned, and the blocks are s
    disjoint sets of b-1 non-root labels, none holding its own link or a
    later round's.  With the k+1 distinct roots that is n distinct labels
    in 1..n, all of them, so each link is a root or in a later block.  Read
    backwards, each round hangs b-1 new labels off a placed vertex: one
    rooted hypertree per root, no link loses its last anchor, and the last
    link is a root.
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
        incidence, live_edge_sum, anchors, link_at, block_at, edge_at, ready = _leaf_scan(
            n, edges, roots
        )
    except IndexError:  # a label above n
        _reject(forest, ensure_valid)
    find = ready.find
    head = leaf = 0  # leaf 0: scan for the next ready leaf
    for _ in range(s):
        if not leaf:
            head = leaf = find(1, head + 1)
            if leaf < 0:  # no ready leaf before round s
                _reject(forest, ensure_valid)
        i = edge_at[leaf]
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
                low = block[0]
                block_at[low] = block
                edge_at[low] = j
                if low < head:
                    leaf = low
                    continue
                ready[low] = 1
        leaf = 0

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
    unconsumed links; a block is ready when that count reaches zero, and
    :func:`_replay` proves that one always is.

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
    a block's head, its smallest label, is found by the placement loop,
    which visits every label anyway; a min() call per block costs more.
    The caller fixes the counts, every label >= 1 and final_root as a root.

    A ready block has its head's byte set in ``ready``, and ``head`` is a
    scan pointer that only moves up, so its whole walk is one pass of
    bytearray.find over n bytes.  Every ready block not yet used lies above
    the pointer: a step frees at most one block, the one holding the link
    it consumed, and a freed block whose head lies below the pointer is
    the smallest ready one, so it is used at once and never marked.  The
    order is the smallest ready head at every step.

    Once placement passes, the blocks are disjoint and hold no root, so a
    ready block always exists: of u unused blocks, the u-1 or fewer
    remaining entries of links, the current one included, can hold labels
    of at most u-1, and final_root, a root, is in none.  So find never
    returns -1: it runs after each link's step, and the block it finds
    last is the one final_root closes.
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
        smallest = [0] * s
        pending = [0] * s
        ready = bytearray(n + 1)
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
                ready[low] = 1
    except IndexError:  # a label above n
        return None

    edges: list[Hyperedge] = []
    record_edge = edges.append
    find = ready.find
    head = find(1)
    j = block_of[head]
    for v in links:
        record_edge(blocks[j] + (v,))
        occurrences[v] -= 1
        if occurrences[v] == 0:
            bj = block_of[v]
            if bj < s:
                pending[bj] -= 1
                if pending[bj] == 0:
                    low = smallest[bj]
                    if low < head:
                        j = bj
                        continue
                    ready[low] = 1
        head = find(1, head + 1)
        j = block_of[head]
    record_edge(blocks[j] + (final_root,))
    return edges
