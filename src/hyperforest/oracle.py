"""Brute-force enumeration oracles for desk-scale cross-checks.

Everything here enumerates exhaustively and independently of the codec and
of the counting formulas, so it can certify both.  Enumerations refuse to
start (rather than truncate) when the candidate space exceeds the budget;
the default cap is 10**7 candidate edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Iterator

from .codec import Block, ForestCode, ForestShape, check_shape
from .counting import count_forests, count_hypercycles, hypercycle_class_count
from .errors import BudgetExceededError, _ensure_fits
from .forest import Hyperedge, RootedForest, _components

DEFAULT_BUDGET = 10_000_000


def _check_budget(candidates: int, budget: int) -> None:
    if candidates > budget:
        raise BudgetExceededError(candidates, budget)


def _edge_sets(n: int, b: int, s: int, repeated: bool = False) -> int:
    """How many ways s edges can be drawn from the C(n, b) b-subsets of n
    vertices, without or with repetition.  Refused before any comb() when
    memory could not hold it: as C(m, r) >= (m/r)^r, C(n, b) has at least
    t*((n//t).bit_length()-1) bits for t = min(b, n-b) > 0, and C(C(n, b), s),
    which repetition only raises, at least s times that less s's bit length."""
    t = min(b, n - b)
    edge_bits = t * ((n // t).bit_length() - 1) if t > 0 else 0
    _ensure_fits(s * (edge_bits - s.bit_length()) // 8)
    edges = comb(n, b)
    return comb(edges + s - 1, s) if repeated else comb(edges, s)


def enumerate_forests(
    b: int, s: int, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[RootedForest]:
    """Yield every valid forest of the shape exactly once, deterministically.

    Iterates the s-subsets of all C(n, b) hyperedges in lexicographic order,
    keeps the subsets whose components are all hypertrees, and attaches every
    root choice per component (Cartesian product over components ordered by
    smallest vertex).  Refuses when C(C(n, b), s) exceeds the budget.
    """
    n = ForestShape(b=b, s=s, k=k).n
    _check_budget(_edge_sets(n, b, s), budget)

    def generate() -> Iterator[RootedForest]:
        all_edges = list(combinations(range(1, n + 1), b))
        for edge_set in combinations(all_edges, s):
            # every component is a hypertree exactly when there are k+1 of
            # them: excesses are >= -1 each and sum to s*(b-1) - n = -(k+1)
            components = _components(n, edge_set)
            if len(components) != k + 1:
                continue
            for roots in product(*components):
                yield RootedForest(n=n, b=b, edges=edge_set, roots=roots)

    return generate()


def _partitions_in_order(pool: tuple[int, ...], block_size: int) -> Iterator[tuple[Block, ...]]:
    """Partitions of pool into blocks of block_size, in canonical order.

    Canonical order: the block containing the smallest unassigned label is
    chosen first, its remaining members enumerated in lexicographic order,
    then the rest of the pool is partitioned recursively.
    """
    if not pool:
        yield ()
        return
    first, rest = pool[0], pool[1:]
    for mates in combinations(rest, block_size - 1):
        head: Block = (first,) + mates
        mate_set = set(mates)
        remainder = tuple(v for v in rest if v not in mate_set)
        for tail in _partitions_in_order(remainder, block_size):
            yield (head,) + tail


def enumerate_code_space(
    b: int, s: int, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[ForestCode]:
    """Yield every valid code of the shape exactly once, in canonical order.

    The order is the ranking order: roots first (lexicographic combinations),
    then the final root ascending within the roots, then the block partition
    in canonical order, then the link sequence as ascending base-n numerals.
    Generated by direct nested iteration, not by unranking, so agreement with
    the ranking module is a real cross-check.  Refuses when the code-space
    cardinality exceeds the budget.
    """
    shape = ForestShape(b=b, s=s, k=k)
    n = shape.n
    _check_budget(count_forests(b, s, k), budget)

    def generate() -> Iterator[ForestCode]:
        labels = range(1, n + 1)
        for roots in combinations(labels, k + 1):
            root_set = set(roots)
            pool = tuple(v for v in labels if v not in root_set)
            for final_root in roots if s else (None,):
                for blocks in _partitions_in_order(pool, b - 1):
                    for links in product(labels, repeat=max(s - 1, 0)):
                        yield ForestCode(shape, roots, final_root, blocks, links)

    return generate()


def enumerate_hypercycles(
    b: int,
    s: int,
    allow_repeated_edges: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[Hyperedge, ...]]:
    """Yield every connected excess-0 hypergraph on 1..s*(b-1), as edge tuples.

    With n = s*(b-1), any s b-sized edges have total excess 0, so the filter
    is connectivity over all n vertices.  Set mode draws s distinct edges;
    multiset mode (allow_repeated_edges) also draws repeated edges, counted
    with multiplicity.  Edge tuples are yielded in lexicographic order.
    """
    check_shape(b, s, min_s=2)
    n = s * (b - 1)
    _check_budget(_edge_sets(n, b, s, allow_repeated_edges), budget)
    chooser = combinations_with_replacement if allow_repeated_edges else combinations

    def generate() -> Iterator[tuple[Hyperedge, ...]]:
        all_edges = list(combinations(range(1, n + 1), b))
        for edge_set in chooser(all_edges, s):
            if len(_components(n, edge_set)) == 1:
                yield edge_set

    return generate()


@dataclass(frozen=True)
class AuditReport:
    """Side-by-side hypercycle counts from formulas and from enumeration.

    ``closed_form_count`` and ``count_by_cycle_length`` come from the two
    counting formulas; ``cycle_length_total`` sums the latter; ``set_count``
    and ``multiset_count`` come from exhaustive enumeration without and with
    repeated edges; they are ``None`` when the shape exceeds the enumeration
    budget.  The families disagree for some shapes; this report records all
    of them and asserts nothing across families.
    """

    b: int
    s: int
    n: int
    closed_form_count: int
    count_by_cycle_length: tuple[tuple[int, int], ...]
    cycle_length_total: int
    set_count: int | None
    multiset_count: int | None
    notes: str


def audit_hypercycles(b: int, s: int, budget: int = DEFAULT_BUDGET) -> AuditReport:
    """Compute every hypercycle count for (b, s) and report them unreconciled."""
    closed = count_hypercycles(b, s, form="closed")
    by_length = tuple(
        (j, hypercycle_class_count(b, s, j)) for j in range(2, s + 1)
    )
    total = sum(c for _, c in by_length)
    try:
        set_count = sum(1 for _ in enumerate_hypercycles(b, s, False, budget))
        multiset_count = sum(1 for _ in enumerate_hypercycles(b, s, True, budget))
        skipped = ""
    except BudgetExceededError:
        set_count = None
        multiset_count = None
        skipped = "; exhaustive counts skipped, shape exceeds the budget"
    return AuditReport(
        b=b,
        s=s,
        n=s * (b - 1),
        closed_form_count=closed,
        count_by_cycle_length=by_length,
        cycle_length_total=total,
        set_count=set_count,
        multiset_count=multiset_count,
        notes=(
            "closed form, per-cycle-length sum, and exhaustive counts are "
            "reported side by side; no equality across families is asserted"
            + skipped
        ),
    )
