"""Seeded inputs and independent reference checks for the benchmark.

Nothing here imports hyperforest: the forests, codes and counts the
workloads feed to the program, and the canonical forms and structural
checks its outputs are compared against, come from this file alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb

TREE_KINDS = ("random", "path", "star")


def derive_seed(seed: int, *tags: object) -> int:
    """A 64-bit seed derived from the workload seed and a tag path."""
    text = ":".join(str(t) for t in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def make_forest(rng: random.Random, b: int, s: int, k: int) -> tuple[int, list[list[int]], list[int]]:
    """A random forest with s edges of size b and k+1 trees, as (n, edges, roots).

    Trees are of three kinds, assigned round-robin so every forest mixes
    them: random attachment (each edge hangs off a uniform earlier vertex),
    path-like (each edge hangs off a vertex of the edge before it) and
    star-like (nine edges in ten hang off the root).  Labels are a random
    permutation of 1..n, and edge order and vertex order inside each edge
    are shuffled, so the program has to canonicalise.
    """
    trees = k + 1
    n = s * (b - 1) + trees
    sizes = [s // trees + (1 if t < s % trees else 0) for t in range(trees)]
    edges: list[list[int]] = []
    roots: list[int] = []
    nxt = 0
    for t, size in enumerate(sizes):
        kind = TREE_KINDS[t % len(TREE_KINDS)]
        root = nxt
        nxt += 1
        roots.append(root)
        members = [root]
        last = [root]
        for _ in range(size):
            if kind == "random":
                link = members[rng.randrange(len(members))]
            elif kind == "path":
                link = last[rng.randrange(len(last))]
            else:
                link = root if rng.random() < 0.9 else members[rng.randrange(len(members))]
            fresh = list(range(nxt, nxt + b - 1))
            nxt += b - 1
            members.extend(fresh)
            last = fresh
            edges.append([link] + fresh)
    assert nxt == n
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = [[labels[v] for v in e] for e in edges]
    for e in edges:
        rng.shuffle(e)
    rng.shuffle(edges)
    roots = [labels[r] for r in roots]
    rng.shuffle(roots)
    return n, edges, roots


def corrupt_forest(rng: random.Random, kind: str, n: int, b: int,
                   edges: list[list[int]], roots: list[int]) -> tuple[list[list[int]], list[int]]:
    """A copy of a valid forest broken in one place; n stays as declared.

    ``cycle`` rewires one vertex of one edge to another vertex of the same
    tree, which closes a cycle and leaves the old vertex isolated and
    rootless.  ``drop-root`` removes one root, which leaves its tree without
    a root and breaks n = s(b-1)+k+1.
    """
    edges = [list(e) for e in edges]
    roots = list(roots)
    if kind == "drop-root":
        del roots[rng.randrange(len(roots))]
        return edges, roots
    tree = _components(n, edges)
    members: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        members.setdefault(tree[v], []).append(v)
    degree = [0] * (n + 1)
    for e in edges:
        for v in e:
            degree[v] += 1
    root_set = set(roots)
    existing = {tuple(sorted(e)) for e in edges}
    for _ in range(10_000):
        i = rng.randrange(len(edges))
        e = edges[i]
        leaves = [v for v in e if degree[v] == 1 and v not in root_set]
        same_tree = members[tree[e[0]]]
        if not leaves or len(same_tree) <= 2 * b:
            continue
        target = rng.choice(same_tree)
        rewired = [target if v == leaves[0] else v for v in e]
        if target in e or tuple(sorted(rewired)) in existing:
            continue
        edges[i] = rewired
        return edges, roots
    raise ValueError("forest too small to close a cycle in")


def _components(n: int, edges: list[list[int]]) -> list[int]:
    """Per-vertex component representative, by union-find."""
    parent = list(range(n + 1))
    for e in edges:
        first = _find(parent, e[0])
        for v in e[1:]:
            top = _find(parent, v)
            if top != first:
                parent[top] = first
    return [_find(parent, v) for v in range(n + 1)]


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def canonical_forest_bytes(n: int, b: int, edges: list[list[int]], roots: list[int]) -> bytes:
    """The CLI's canonical pretty-printed forest document, built independently."""
    doc = {
        "n": n,
        "b": b,
        "edges": sorted(sorted(e) for e in edges),
        "roots": sorted(roots),
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def make_code_document(rng: random.Random, b: int, s: int, k: int) -> dict:
    """A uniformly random valid code document of the shape (s >= 1)."""
    n = s * (b - 1) + k + 1
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    roots = sorted(labels[: k + 1])
    rest = labels[k + 1:]
    blocks = sorted(sorted(rest[i * (b - 1):(i + 1) * (b - 1)]) for i in range(s))
    return {
        "b": b,
        "s": s,
        "k": k,
        "R": roots,
        "r": rng.choice(roots),
        "P": blocks,
        "N": [rng.randint(1, n) for _ in range(s - 1)],
    }


def code_space_bound(b: int, s: int, k: int) -> int:
    """Codes of the shape, as the product of the four radices."""
    n = s * (b - 1) + k + 1
    size = comb(n, k + 1)
    if s >= 1:
        size *= (k + 1) * n ** (s - 1)
        for remaining in range(n - k - 1, 0, -(b - 1)):
            size *= comb(remaining - 1, b - 2)
    return size


def decimal_digits(value: int) -> int:
    """Decimal digit count of a non-negative int, without str()."""
    if value == 0:
        return 1
    digits = max(1, int((value.bit_length() - 1) * 0.30102999566398120))
    while value >= 10 ** digits:
        digits += 1
    return digits


def check_forest_line(line: bytes, b: int, s: int, k: int) -> str | None:
    """Why a compact forest document is not a canonical forest of the shape.

    Returns None when it is one.  Checks key order, sizes, label range,
    canonical ordering, and, by union-find, that every edge joins b
    separate components and every final component holds one root.
    """
    doc = json.loads(line)
    if list(doc) != ["n", "b", "edges", "roots"]:
        return f"keys {list(doc)}"
    n = s * (b - 1) + k + 1
    edges, roots = doc["edges"], doc["roots"]
    if doc["n"] != n or doc["b"] != b or len(edges) != s or len(roots) != k + 1:
        return "shape differs"
    if roots != sorted(set(roots)) or edges != sorted(edges):
        return "not canonical"
    parent = list(range(n + 1))
    for e in edges:
        if len(e) != b or e != sorted(set(e)) or e[0] < 1 or e[-1] > n:
            return f"bad edge {e}"
        tops = {_find(parent, v) for v in e}
        if len(tops) != b:
            return f"edge {e} closes a cycle"
        first = tops.pop()
        for t in tops:
            parent[t] = first
    if roots[0] < 1 or roots[-1] > n:
        return "root out of range"
    if len({_find(parent, r) for r in roots}) != k + 1:
        return "two roots share a tree"
    return None
