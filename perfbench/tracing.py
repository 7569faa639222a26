"""Spans around calls into the package's layers, recorded from outside it.

The traced run wraps module-level names that the CLI module and the
workload ops look up at call time, so every call they make into a layer
opens a span.  Spans stay in memory and are written once at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator

# module attribute -> span name; the CLI has no public JSON entry points,
# so its two private print helpers and its loader are wrapped by name
CLI_SPANS = {
    "_load_json": "cli.json_load",
    "forest_from_document": "cli.forest_from_document",
    "code_from_document": "cli.code_from_document",
    "forest_to_document": "cli.forest_to_document",
    "code_to_document": "cli.code_to_document",
    "_print_document": "cli.json_dump",
    "_print_line": "cli.json_dump",
    "sample_forests": "ranking.sample_forests",
    "generate_ids": "ranking.generate_ids",
}
OP_SPANS = {
    "unrank_code": "ranking.unrank_code",
    "rank_code": "ranking.rank_code",
    "count_forests": "counting.count_forests",
    "count_rooted_hypertrees": "counting.count_rooted_hypertrees",
}


class Tracer:
    """Records spans as (name, op label, parent index, start, end)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.extra: dict[str, float] = {}
        self.op: str | None = None
        self.last = 0.0
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; its duration is left in ``last``."""
        index = len(self.spans)
        self.spans.append([name, self.op, self._open[-1] if self._open else None, 0.0, 0.0])
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index][3:] = [start, end]
            self.last = end - start

    def add(self, name: str, value: float) -> None:
        """Accumulate a value that is not a span: an estimate or a counter."""
        self.extra[name] = self.extra.get(name, 0.0) + value

    @contextmanager
    def wrapping(self, module: ModuleType, names: dict[str, str]) -> Iterator[None]:
        """Route the module's attributes through spans until the block ends."""
        saved = {attr: getattr(module, attr) for attr in names}
        for attr, name in names.items():
            setattr(module, attr, self._wrapper(name, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def totals(self) -> dict[str, float]:
        """Seconds per span name, plus the accumulated extras."""
        totals = dict(self.extra)
        for name, _, _, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "op", "parent", "start", "end"], "spans": self.spans,
                       "extra": self.extra}, handle)


def criterion8_margin(hf: ModuleType) -> dict[str, float]:
    """Seconds under the 5 s gate for the library encode and decode of
    criterion 8: b = 3, s = 499,999, k = 0, seed 7.  Recorded, not gated."""
    forest = hf.sample_forest(hf.ForestShape(b=3, s=499_999, k=0), 7)
    start = perf_counter()
    code = hf.encode_forest(forest)
    encode_s = perf_counter() - start
    start = perf_counter()
    back = hf.decode_code(code)
    decode_s = perf_counter() - start
    if back != forest:
        raise RuntimeError("criterion 8 round trip differs")
    return {"criterion8.encode_margin_s": 5.0 - encode_s,
            "criterion8.decode_margin_s": 5.0 - decode_s}
