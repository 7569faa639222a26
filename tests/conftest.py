"""Shared fixtures: the worked 22-vertex forest and its known code."""

from __future__ import annotations

import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hyperforest
from hyperforest import ForestCode, ForestShape, RootedForest

WORKED_EDGES = (
    (1, 21, 22),
    (2, 17, 18),
    (3, 13, 19),
    (4, 8, 18),
    (4, 12, 14),
    (6, 7, 13),
    (7, 20, 21),
    (10, 13, 15),
    (11, 18, 21),
)
WORKED_ROOTS = (5, 9, 13, 16)
WORKED_BLOCKS = (
    (1, 22),
    (2, 17),
    (3, 19),
    (4, 8),
    (6, 7),
    (10, 15),
    (11, 18),
    (12, 14),
    (20, 21),
)
WORKED_LINKS = (21, 18, 13, 13, 4, 18, 21, 7)
WORKED_FINAL_ROOT = 13

# exhaustive sweep shapes: every code decodes, re-encodes, and the forest
# sets match the oracle (all vertex counts stay at or below 9)
SWEEP_SHAPES = tuple(
    [(2, s, k) for s in range(0, 5) for k in range(0, 3)]
    + [(3, s, k) for s in range(0, 4) for k in range(0, 2)]
    + [(4, s, k) for s in range(0, 3) for k in range(0, 2)]
)


def range_message(b: int, s: int, k: int = 0, min_s: int = 0) -> str:
    """The message every entry point gives for the first of b, s, k out of
    range, where min_s is the smallest edge count that entry point accepts."""
    if b < 2:
        return f"edge size b={b} must be at least 2"
    if s < min_s:
        return f"edge count s={s} must be at least {min_s}"
    return f"tree parameter k={k} must be at least 0"


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    """Run python with argv in a fresh process, with this package importable,
    its address space capped at 256 MB and a 10 s timeout: work run without
    bound fails there, on a MemoryError or the timeout, and does not fill the
    test runner's memory."""
    env = dict(os.environ, PYTHONPATH=str(Path(hyperforest.__file__).parents[1]))
    cap = (256 << 20, 256 << 20)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=10, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap))


def refusal_of(call: str | list[str], error: str = "ParameterRangeError") -> tuple[int, str, str]:
    """Exit status, stdout and stderr of a fresh capped process that makes
    the library call, or each of a list of calls in turn, and prints the
    error of the named class each one raises, a line apiece."""
    script = "import hyperforest as h\n" + "".join(
        f"try:\n    h.{c}\nexcept h.{error} as error:\n    print(error)\n"
        for c in ([call] if isinstance(call, str) else call)
    )
    done = run_capped("-c", script)
    return done.returncode, done.stdout, done.stderr


def small_hypergraphs(spill: int = 0):
    """Every hypergraph with b in {2, 3}, n <= 5, s <= 3 distinct edges and
    at most 3 distinct roots, as a RootedForest (10,103 of them, 917 valid).

    spill=1 widens the labels to 0..n+1, the range small_codes uses: the
    roots' always, the edges' where n + b <= 6, which keeps the sweep to a
    few seconds (57,437 of them, 917 valid)."""
    for b in (2, 3):
        for n in range(1, 6):
            labels = range(1 - spill, n + 1 + spill)
            edge_labels = labels if n + b <= 6 else range(1, n + 1)
            candidates = list(itertools.combinations(edge_labels, b))
            for s in range(0, 4):
                for edges in itertools.combinations(candidates, s):
                    for size in range(0, 4):
                        for roots in itertools.combinations(labels, size):
                            yield RootedForest(n=n, b=b, edges=edges, roots=roots)


@st.composite
def malformed_forests(draw):
    """Forests of any size with labels just outside 1..n, repeats, edges of
    the wrong size and duplicate or missing roots."""
    n = draw(st.integers(-1, 8))
    b = draw(st.integers(0, 4))
    label = st.integers(-1, max(n, 0) + 1)
    edge = st.one_of(
        st.lists(label, min_size=b, max_size=b),
        st.lists(label, max_size=5),
    ).map(lambda e: tuple(sorted(e)))
    edges = draw(st.lists(edge, max_size=5, unique=True))
    roots = draw(st.lists(label, max_size=4))
    return RootedForest(n=n, b=b, edges=edges, roots=tuple(roots))


SMALL_CODE_SHAPES = (
    (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1),
    (3, 0, 1), (3, 1, 0), (3, 1, 1),
)


def small_codes():
    """Codes of every shape in SMALL_CODE_SHAPES with labels in 0..n+1: k or
    k+1 roots, repeats allowed; final root None or any label; s-1, s or s+1
    blocks of b-1 labels, repeats allowed; every link sequence of the right
    length and one sequence too short and one too long (252,940 codes, 83
    valid)."""
    for b, s, k in SMALL_CODE_SHAPES:
        shape = ForestShape(b=b, s=s, k=k)
        labels = range(0, shape.n + 2)
        block_choices = list(itertools.combinations_with_replacement(labels, b - 1))
        expected_links = max(s - 1, 0)
        link_choices = [
            *itertools.product(labels, repeat=expected_links),
            (1,) * (expected_links + 1),
        ]
        if expected_links:
            link_choices.append((1,) * (expected_links - 1))
        for count in (k, k + 1):
            for roots in itertools.combinations_with_replacement(labels, count):
                for final_root in (None, *labels):
                    for m in range(max(s - 1, 0), s + 2):
                        for blocks in itertools.combinations_with_replacement(
                            block_choices, m
                        ):
                            for links in link_choices:
                                yield ForestCode(shape, roots, final_root, blocks, links)


def malformed_codes():
    """Miscounted codes, and well-counted codes with one label moved."""
    return st.one_of(_miscounted_codes(), _moved_label_codes())


@st.composite
def _miscounted_codes(draw):
    """Codes of any small shape with labels just outside 1..n, repeats,
    blocks of the wrong size and wrong counts of roots, blocks and links."""
    b = draw(st.integers(2, 4))
    s = draw(st.integers(0, 4))
    k = draw(st.integers(0, 2))
    shape = ForestShape(b=b, s=s, k=k)
    label = st.integers(-1, shape.n + 1)
    block = st.one_of(
        st.lists(label, min_size=b - 1, max_size=b - 1),
        st.lists(label, max_size=4),
    )
    roots = draw(st.lists(label, min_size=max(k - 1, 0), max_size=k + 2))
    final_root = draw(st.one_of(st.none(), label, st.sampled_from(roots or [1])))
    blocks = draw(st.lists(block, min_size=max(s - 1, 0), max_size=s + 1))
    links = draw(st.lists(label, min_size=max(s - 2, 0), max_size=s))
    return ForestCode(shape, tuple(roots), final_root, tuple(blocks), tuple(links))


@st.composite
def _moved_label_codes(draw):
    """Codes with the right counts of roots, blocks, block labels and links,
    so that they pass decode's count checks and reach its replay, with one
    label moved: a block label repeated, n+1 in a block or a link, or a
    root placed inside a block."""
    b = draw(st.integers(2, 4))
    s = draw(st.integers(1, 4))
    k = draw(st.integers(0, 2))
    shape = ForestShape(b=b, s=s, k=k)
    n = shape.n
    labels = draw(st.permutations(range(1, n + 1)))
    roots = labels[: k + 1]
    cells = list(labels[k + 1 :])  # the block labels, b-1 to a block
    links = draw(st.lists(st.integers(1, n), min_size=s - 1, max_size=s - 1))
    moves = ["repeat", "block-n-plus-1", "root-in-block"] + (["link-n-plus-1"] if links else [])
    move = draw(st.sampled_from(moves))
    i = draw(st.integers(0, len(cells) - 1))
    if move == "repeat" and len(cells) > 1:
        cells[i] = cells[draw(st.sampled_from([j for j in range(len(cells)) if j != i]))]
    elif move == "root-in-block":
        cells[i] = draw(st.sampled_from(roots))
    elif move == "link-n-plus-1":
        links[draw(st.integers(0, len(links) - 1))] = n + 1
    else:  # n + 1 in a block, also where a single label has none to repeat
        cells[i] = n + 1
    blocks = [tuple(cells[j : j + b - 1]) for j in range(0, len(cells), b - 1)]
    final_root = draw(st.sampled_from(roots))
    return ForestCode(shape, tuple(roots), final_root, tuple(blocks), tuple(links))


@pytest.fixture
def worked_forest() -> RootedForest:
    return RootedForest(n=22, b=3, edges=WORKED_EDGES, roots=WORKED_ROOTS)


@pytest.fixture
def worked_code() -> ForestCode:
    return ForestCode(
        ForestShape(b=3, s=9, k=3),
        WORKED_ROOTS,
        WORKED_FINAL_ROOT,
        WORKED_BLOCKS,
        WORKED_LINKS,
    )


# one visible pass/fail line per acceptance criterion, printed after the
# test summary so it survives pytest's output capture; notes travel on the
# report via the record_property fixture
_ACCEPTANCE_RESULTS: list[tuple[str, str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        note = dict(report.user_properties).get("note", "")
        _ACCEPTANCE_RESULTS.append(
            (report.nodeid.split("::")[-1], report.outcome, note)
        )


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, outcome, note in _ACCEPTANCE_RESULTS:
        verdict = "PASS" if outcome == "passed" else "FAIL"
        suffix = f" ({note})" if note else ""
        terminalreporter.write_line(f"  {name}: {verdict}{suffix}")
