"""The three workloads: seeded inputs, the op list of one pass, and checks.

Each op is one CLI invocation (``hyperforest.cli.main(argv)`` in process,
``-i`` documents on disk, stdout sent to a file) or one library call.  An
op fails when an exception escapes, when the exit code is not the expected
one, or when its output check finds a mismatch; only a mismatch makes the
run incorrect.  Ops call the library through this module's globals, so the
traced run can wrap them from outside the package; checks call it through
``hf`` so that they are never traced.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import hyperforest as hf
from hyperforest import (
    ForestCode,
    ForestShape,
    RootedForest,
    cli,
    count_forests,
    count_rooted_hypertrees,
    rank_code,
    unrank_code,
)

import gen

# Digests of output that depends on the randomness contract or on the
# canonical order alone, recorded with the benchmark: sha256 of the stdout
# bytes of `sample` at fixed seeds and of `ids`.
PINNED = {
    "sample b=2 s=10 k=0 seed=0 m=40":
        "e9d84162d721c70fdab54bbc32115631d6d069881887e1a17234bc6df6229825",
    "sample b=3 s=50 k=1 seed=7 m=20":
        "b5cf5b150f4aa9be796e6e8eb638b2b4b272d91023fff13acd406820ebd53d26",
    "sample b=5 s=100 k=2 seed=18446744073709551615 m=10":
        "47533c270a8b5f96318d02e32dcc4a1dd0456580d051a50e4782d5359d906a43",
    "ids b=2 s=500 k=1 m=40":
        "3abccf3841b84fb87a46ad6182d3c4843e95c0a7939781610447608e962563dd",
    "ids b=5 s=800 k=3 m=4":
        "2e72f513cf59bf43200f74740ab4763e866f2775fc6b24a377897307b40ebe82",
    "ids b=3 s=2000 k=2 m=4":
        "9068c2a2792167a43f9e6b4e05b2323fcd0d28108efd35c4bf01d9fb642fa9a3",
}


@dataclass
class Outcome:
    """What one op did: its time, why it failed if it did, and its sizes."""

    seconds: float
    ref_seconds: float = 0.0  # seconds at the reference speed, set by the runner
    label: str = ""  # the op's label, set by the runner
    failure: str | None = None
    mismatch: bool = False
    bytes_in: int = 0
    bytes_out: int = 0
    digits: int = 0
    digest: str = ""


@dataclass
class Op:
    label: str
    kind: str | None  # the breakdown metric its time adds to; None: outcome only
    vertices: int
    edges: int
    run: Callable[[], Outcome]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_op(label: str, kind: str | None, argv: list[str], out: Path, expect: int,
           check: Callable[[bytes, str], str | None], vertices: int, edges: int,
           source: Path | None = None) -> Op:
    """An op that runs the CLI once and checks its stdout and stderr."""

    def run() -> Outcome:
        err = io.StringIO()
        gc.collect()
        with open(out, "w", encoding="utf-8") as handle, redirect_stdout(handle), redirect_stderr(err):
            start = perf_counter()
            try:
                code, escaped = cli.main(argv), None
            except Exception as exc:  # escaping main breaks the CLI contract: a failed op
                code, escaped = None, f"{type(exc).__name__}: {exc}"
            handle.flush()
            seconds = perf_counter() - start
        data = out.read_bytes()
        outcome = Outcome(seconds, bytes_in=source.stat().st_size if source else 0,
                          bytes_out=len(data), digest=digest(data + err.getvalue().encode()))
        if escaped is not None:
            outcome.failure = f"{label}: {escaped}"[:300]
        elif code != expect:
            outcome.failure = f"{label}: exit {code}, expected {expect}: {err.getvalue()[:200]}"
            outcome.mismatch = True
        else:
            problem = _checked(check, data, err.getvalue())
            if problem is not None:
                outcome.failure, outcome.mismatch = f"{label}: {problem}", True
        return outcome

    return Op(label, kind, vertices, edges, run)


def lib_op(label: str, kind: str, vertices: int, edges: int, call: Callable[[], object],
           check: Callable[[object], str | None], digits: Callable[[object], int]) -> Op:
    """An op that makes one library call and checks its result."""

    def run() -> Outcome:
        gc.collect()
        start = perf_counter()
        try:
            value = call()
        except Exception as exc:
            return Outcome(perf_counter() - start, failure=f"{label}: {type(exc).__name__}: {exc}"[:300])
        seconds = perf_counter() - start
        # hex() because str() of a large int is what the CLI cannot do
        shown = hex(value) if isinstance(value, int) else repr(value)
        outcome = Outcome(seconds, digits=digits(value), digest=digest(shown.encode()))
        problem = _checked(check, value)
        if problem is not None:
            outcome.failure, outcome.mismatch = f"{label}: {problem}", True
        return outcome

    return Op(label, kind, vertices, edges, run)


def _checked(check: Callable[..., str | None], *args) -> str | None:
    """The check's verdict; output it cannot even read is a mismatch too."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _shape_args(b: int, s: int, k: int) -> list[str]:
    return ["--b", str(b), "--s", str(s), "--k", str(k)]


def _expect_error(code: str) -> Callable[[bytes, str], str | None]:
    def check(data: bytes, err: str) -> str | None:
        lines = err.splitlines()
        if data or len(lines) != 1 or json.loads(lines[0]).get("error") != code:
            return f"expected one {code!r} error line and no output, got {err[:200]!r}"
        return None
    return check


def _expect_report(kind: str, valid: bool) -> Callable[[bytes, str], str | None]:
    def check(data: bytes, err: str) -> str | None:
        report = json.loads(data)
        if err or report["kind"] != kind or report["valid"] is not valid \
                or bool(report["violations"]) == valid:
            return f"expected a {kind} report with valid={valid}, got {data[:200]!r}"
        return None
    return check


class Workload:
    """Inputs are written by ``setup``; ``ops`` is the fixed list of one pass."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def breakdown(self, ops: list[Op], median: dict[str, float]) -> dict[str, tuple[float, str]]:
        """The workload's own metrics from per-op median seconds."""
        raise NotImplementedError

    def inner(self, tracer) -> None:
        """Traced run only: time the nested public calls on fresh inputs."""
        raise NotImplementedError


def _sum_kind(ops: list[Op], median: dict[str, float], kind: str) -> float:
    return sum(median[op.label] for op in ops if op.kind == kind)


class CodecLarge(Workload):
    """CLI encode, decode and validate of large forests, some corrupted."""

    name = "codec-large"
    # n = 100,000 and ten roots at every b
    FORESTS = ((2, 99_990, 9), (3, 49_995, 9), (6, 19_998, 9))
    CORRUPT_BASES = (1, 2)

    def setup(self) -> None:
        self.expected: list[bytes] = []
        kinds = ["cycle", "drop-root"]
        random.Random(gen.derive_seed(self.seed, "corrupt-kinds")).shuffle(kinds)
        self.corrupt_kinds = dict(zip(self.CORRUPT_BASES, kinds))
        for i, (b, s, k) in enumerate(self.FORESTS):
            n, edges, roots = gen.make_forest(random.Random(gen.derive_seed(self.seed, "forest", i)), b, s, k)
            self._write(f"forest{i}.json", {"n": n, "b": b, "edges": edges, "roots": roots})
            self.expected.append(gen.canonical_forest_bytes(n, b, edges, roots))
            if i in self.corrupt_kinds:
                rng = random.Random(gen.derive_seed(self.seed, "corrupt", i))
                bad_edges, bad_roots = gen.corrupt_forest(rng, self.corrupt_kinds[i], n, b, edges, roots)
                self._write(f"bad{i}.json", {"n": n, "b": b, "edges": bad_edges, "roots": bad_roots})

    def _write(self, name: str, doc: dict) -> None:
        (self.work / name).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")

    def ops(self) -> list[Op]:
        ops = []
        for i, (b, s, k) in enumerate(self.FORESTS):
            n = s * (b - 1) + k + 1
            forest, code = self.work / f"forest{i}.json", self.work / f"code{i}.json"
            tag = f"b={b}"
            ops += [
                cli_op(f"encode {tag}", "encode_s", ["encode", "-i", str(forest)], code, 0,
                       self._code_check(b, s, k), n, s, forest),
                cli_op(f"decode {tag}", "decode_s", ["decode", "-i", str(code)],
                       self.work / f"decoded{i}.json", 0, self._same_bytes(i), n, s, code),
                cli_op(f"validate forest {tag}", "validate_s", ["validate", "-i", str(forest)],
                       self.work / "report.json", 0, _expect_report("forest", True), n, s, forest),
                cli_op(f"validate code {tag}", "validate_s", ["validate", "-i", str(code)],
                       self.work / "report.json", 0, _expect_report("code", True), n, s, code),
            ]
        for i, kind in self.corrupt_kinds.items():
            b, s, k = self.FORESTS[i]
            n = s * (b - 1) + k + 1
            bad = self.work / f"bad{i}.json"
            tag = f"{kind} b={b}"
            ops += [
                cli_op(f"encode {tag}", "encode_s", ["encode", "-i", str(bad)],
                       self.work / "rejected.json", 1, _expect_error("invalid-structure"), n, s, bad),
                cli_op(f"validate forest {tag}", "validate_s", ["validate", "-i", str(bad)],
                       self.work / "report.json", 1, _expect_report("forest", False), n, s, bad),
            ]
        return ops

    @staticmethod
    def _code_check(b: int, s: int, k: int) -> Callable[[bytes, str], str | None]:
        def check(data: bytes, err: str) -> str | None:
            doc = json.loads(data)
            if err or list(doc) != ["b", "s", "k", "R", "r", "P", "N"] \
                    or (doc["b"], doc["s"], doc["k"]) != (b, s, k) \
                    or len(doc["P"]) != s or len(doc["N"]) != s - 1:
                return "code document has the wrong shape"
            return None
        return check

    def _same_bytes(self, i: int) -> Callable[[bytes, str], str | None]:
        def check(data: bytes, err: str) -> str | None:
            if err or data != self.expected[i]:
                return "decode(encode(doc)) differs from the canonical document"
            return None
        return check

    def breakdown(self, ops, median):
        return {kind: (_sum_kind(ops, median, kind), "s")
                for kind in ("encode_s", "decode_s", "validate_s")}

    def inner(self, tracer) -> None:
        rng = random.Random(gen.derive_seed(self.seed, "inner"))
        for i, (b, s, k) in enumerate(self.FORESTS):
            doc = json.loads((self.work / f"forest{i}.json").read_bytes())
            edges = [tuple(e) for e in doc["edges"]]
            roots = tuple(doc["roots"])
            n = doc["n"]

            tracer.call("forest.RootedForest", RootedForest, n=n, b=b, edges=edges, roots=roots)
            tracer.call("forest.validate_forest", hf.validate_forest,
                        RootedForest(n=n, b=b, edges=edges, roots=roots))
            validate_s = tracer.last
            code = tracer.call("codec.encode_forest", hf.encode_forest,
                               RootedForest(n=n, b=b, edges=edges, roots=roots))
            encode_s = tracer.last
            # the encoder hands blocks over in removal order, which is not
            # visible from outside: a shuffle stands in for it
            blocks = [tuple(reversed(blk)) for blk in code.blocks]
            rng.shuffle(blocks)
            tracer.call("codec.ForestCode", ForestCode, code.shape, tuple(reversed(code.roots)),
                        code.final_root, tuple(blocks), code.links)
            tracer.add("codec.encode_prune_est", encode_s - validate_s - tracer.last)

            cdoc = json.loads((self.work / f"code{i}.json").read_bytes())
            parts = (ForestShape(b=cdoc["b"], s=cdoc["s"], k=cdoc["k"]), tuple(cdoc["R"]),
                     cdoc["r"], tuple(tuple(blk) for blk in cdoc["P"]), tuple(cdoc["N"]))
            tracer.call("codec.ForestCode", ForestCode, *parts)
            tracer.call("codec.validate_code", hf.validate_code, ForestCode(*parts))
            check_s = tracer.last
            forest = tracer.call("codec.decode_code", hf.decode_code, ForestCode(*parts))
            decode_s = tracer.last
            # likewise the decoder's edges arrive in replay order
            replay = list(forest.edges)
            rng.shuffle(replay)
            tracer.call("forest.RootedForest", RootedForest, n=n, b=b, edges=replay, roots=roots)
            tracer.add("codec.decode_replay_est", decode_s - check_s - tracer.last)
        for i in self.corrupt_kinds:
            doc = json.loads((self.work / f"bad{i}.json").read_bytes())
            edges = [tuple(e) for e in doc["edges"]]
            bad = tracer.call("forest.RootedForest", RootedForest, n=doc["n"], b=doc["b"],
                              edges=edges, roots=tuple(doc["roots"]))
            tracer.call("forest.validate_forest_reject", hf.validate_forest, bad)


class SampleStream(Workload):
    """Many CLI `sample --m M` calls over small and medium shapes."""

    name = "sample-stream"
    # (b, s, k, m): about 15k-25k vertices per timed call
    SHAPES = (
        (2, 10, 0, 1200), (2, 60, 3, 250), (2, 500, 1, 30),
        (3, 12, 2, 500), (3, 50, 0, 200), (3, 200, 3, 50),
        (5, 10, 1, 400), (5, 100, 2, 40), (5, 500, 0, 10),
    )
    # A medium shape with m large enough that sample's buffering of every
    # forest sets the peak memory.  It runs once per run and is not timed:
    # its time is mostly garbage collection over the buffered forests,
    # which swings with the machine far more than the other calls.
    BUFFERED = (3, 200, 3, 2500)
    ANCHORS = ((2, 10, 0, 0, 40), (3, 50, 1, 7, 20), (5, 100, 2, (1 << 64) - 1, 10))

    def setup(self) -> None:
        self.calls = [(b, s, k, gen.derive_seed(self.seed, "sample", j), m)
                      for j, (b, s, k, m) in enumerate(self.SHAPES)]
        b, s, k, m = self.BUFFERED
        self.buffered = (b, s, k, gen.derive_seed(self.seed, "buffered"), m)
        self.seen: dict[str, str] = {}

    def ops(self) -> list[Op]:
        ops = []
        for b, s, k, seed, m in self.ANCHORS:
            label = f"sample b={b} s={s} k={k} seed={seed} m={m}"
            ops.append(self._op(label, b, s, k, seed, m, PINNED[label]))
        for b, s, k, seed, m in self.calls:
            ops.append(self._op(f"sample b={b} s={s} k={k} seed={seed} m={m}", b, s, k, seed, m, None))
        b, s, k, seed, m = self.buffered
        ops.append(self._op(f"buffered sample b={b} s={s} k={k} seed={seed} m={m}", b, s, k, seed, m,
                            None, kind=None))
        return ops

    def _op(self, label: str, b: int, s: int, k: int, seed: int, m: int, pinned: str | None,
            kind: str | None = "forests_per_s") -> Op:
        n = s * (b - 1) + k + 1

        def check(data: bytes, err: str) -> str | None:
            got = digest(data)
            if pinned is not None and got != pinned:
                return f"digest {got} differs from the recorded {pinned}"
            if label in self.seen:
                return None if got == self.seen[label] else "digest changed between passes"
            lines = data.splitlines()
            if err or len(lines) != m:
                return f"expected {m} lines, got {len(lines)}"
            for line in lines:
                problem = gen.check_forest_line(line, b, s, k)
                if problem is not None:
                    return problem
            self.seen[label] = got
            return None

        argv = ["sample", *_shape_args(b, s, k), "--seed", str(seed), "--m", str(m)]
        return cli_op(label, kind, argv, self.work / "sample.jsonl", 0, check, m * n, m * s)

    def breakdown(self, ops, median):
        forests = sum(int(op.label.rsplit("m=", 1)[1]) for op in ops)
        return {"forests_per_s": (forests / _sum_kind(ops, median, "forests_per_s"), "1/s")}

    def inner(self, tracer) -> None:
        rng = random.Random(gen.derive_seed(self.seed, "inner"))
        for b, s, k, seed, m in self.ANCHORS + tuple(self.calls) + (self.buffered,):
            shape = ForestShape(b=b, s=s, k=k)
            seeds = [gen.derive_seed(seed, j) for j in range(m)]
            codes = tracer.call("ranking.sample_code", lambda: [hf.sample_code(shape, x) for x in seeds])
            for code in codes:
                parts = (code.shape, code.roots, code.final_root, code.blocks, code.links)
                tracer.call("codec.validate_code", hf.validate_code, ForestCode(*parts))
                check_s = tracer.last
                forest = tracer.call("codec.decode_code", hf.decode_code, ForestCode(*parts))
                decode_s = tracer.last
                replay = list(forest.edges)
                rng.shuffle(replay)
                tracer.call("forest.RootedForest", RootedForest, n=forest.n, b=b,
                            edges=replay, roots=forest.roots)
                tracer.add("codec.decode_replay_est", decode_s - check_s - tracer.last)


class Index(Workload):
    """CLI `ids` streams, library rank/unrank and counts, CLI rank and count."""

    name = "index"
    RANK_SHAPES = ((2, 500, 1), (5, 800, 3), (3, 2000, 2))
    IDS = ((2, 500, 1, 40), (5, 800, 3, 4), (3, 2000, 2, 4))
    FOREST_COUNTS = ((3, 6000, 0), (3, 16000, 2))
    HYPERTREE_COUNTS = (6000,)  # at b = 3: equal to the code-space size at k = 0

    def setup(self) -> None:
        rng = random.Random(gen.derive_seed(self.seed, "index"))
        self.indices = []
        for j, (b, s, k) in enumerate(self.RANK_SHAPES):
            self.indices.append(((b, s, k), rng.randrange(gen.code_space_bound(b, s, k))))
            doc = gen.make_code_document(rng, b, s, k)
            (self.work / f"rank{j}.json").write_text(json.dumps(doc, separators=(",", ":")),
                                                     encoding="utf-8")
        self.unranked: dict[str, ForestCode] = {}

    def ops(self) -> list[Op]:
        ops = []
        for b, s, k, m in self.IDS:
            label = f"ids b={b} s={s} k={k} m={m}"
            n = s * (b - 1) + k + 1
            ops.append(cli_op(label, "ids_per_s", ["ids", *_shape_args(b, s, k), "--m", str(m)],
                              self.work / "ids.jsonl", 0, self._pinned(label), m * n, m * s))
        for j, ((b, s, k), i) in enumerate(self.indices):
            shape = ForestShape(b=b, s=s, k=k)
            key = f"b={b} s={s} k={k} #{j}"
            ops.append(lib_op(f"unrank {key}", "unrank_s", shape.n, s,
                              lambda i=i, shape=shape, key=key: self._keep(key, unrank_code(i, shape)),
                              lambda code, shape=shape: None if code.shape == shape else "wrong shape",
                              lambda _, i=i: gen.decimal_digits(i)))
            ops.append(lib_op(f"rank {key}", "rank_s", shape.n, s,
                              lambda key=key: rank_code(self.unranked.pop(key)),
                              lambda r, i=i: None if r == i else "rank(unrank(i)) != i",
                              gen.decimal_digits))
        for b, s, k in self.FOREST_COUNTS:
            shape = ForestShape(b=b, s=s, k=k)
            ops.append(lib_op(f"count forests b={b} s={s} k={k}", "count_s", shape.n, s,
                              lambda b=b, s=s, k=k: count_forests(b, s, k),
                              lambda c, shape=shape: self._same_size(c, shape), gen.decimal_digits))
        for s in self.HYPERTREE_COUNTS:
            shape = ForestShape(b=3, s=s, k=0)
            ops.append(lib_op(f"count hypertrees b=3 s={s}", "count_s", shape.n, s,
                              lambda s=s: count_rooted_hypertrees(3, s),
                              lambda c, shape=shape: self._same_size(c, shape), gen.decimal_digits))
        for j, (b, s, k) in enumerate(self.RANK_SHAPES):
            n = s * (b - 1) + k + 1
            doc = self.work / f"rank{j}.json"
            ops.append(cli_op(f"cli rank b={b} s={s} k={k}", None, ["rank", "-i", str(doc)],
                              self.work / "rank.json", 0, self._rank_check(doc), n, s, doc))
            ops.append(cli_op(f"cli count b={b} s={s} k={k}", None,
                              ["count", "--kind", "forests", *_shape_args(b, s, k)],
                              self.work / "count.json", 0, self._count_check(b, s, k), n, s))
        return ops

    def _keep(self, key: str, code: ForestCode) -> ForestCode:
        self.unranked[key] = code
        return code

    @staticmethod
    def _same_size(count: int, shape: ForestShape) -> str | None:
        return None if count == hf.code_space_size(shape) else "count differs from code_space_size"

    @staticmethod
    def _pinned(label: str) -> Callable[[bytes, str], str | None]:
        def check(data: bytes, err: str) -> str | None:
            got = digest(data)
            return None if not err and got == PINNED[label] else f"digest {got} differs from the recorded one"
        return check

    @staticmethod
    def _rank_check(source: Path) -> Callable[[bytes, str], str | None]:
        def check(data: bytes, err: str) -> str | None:
            out = json.loads(data)
            doc = json.loads(source.read_bytes())
            code = hf.unrank_code(int(out["index"]), ForestShape(b=doc["b"], s=doc["s"], k=doc["k"]))
            got = {"b": code.shape.b, "s": code.shape.s, "k": code.shape.k, "R": list(code.roots),
                   "r": code.final_root, "P": [list(blk) for blk in code.blocks], "N": list(code.links)}
            if err or got != doc:
                return "unrank(rank(doc)) differs from doc"
            return None
        return check

    @staticmethod
    def _count_check(b: int, s: int, k: int) -> Callable[[bytes, str], str | None]:
        def check(data: bytes, err: str) -> str | None:
            out = json.loads(data)
            if err or out["count"] != str(gen.code_space_bound(b, s, k)):
                return "count differs from the product of the code radices"
            return None
        return check

    def breakdown(self, ops, median):
        ids = sum(int(op.label.rsplit("m=", 1)[1]) for op in ops if op.kind == "ids_per_s")
        metrics = {"ids_per_s": (ids / _sum_kind(ops, median, "ids_per_s"), "1/s")}
        for kind in ("rank_s", "unrank_s", "count_s"):
            metrics[kind] = (_sum_kind(ops, median, kind), "s")
        return metrics

    def inner(self, tracer) -> None:
        values = []
        for j, (b, s, k) in enumerate(self.RANK_SHAPES):
            shape = ForestShape(b=b, s=s, k=k)
            tracer.call("ranking.code_space_size", hf.code_space_size, shape)
            doc = json.loads((self.work / f"rank{j}.json").read_bytes())
            code = ForestCode(shape, tuple(doc["R"]), doc["r"], tuple(map(tuple, doc["P"])), tuple(doc["N"]))
            tracer.call("codec.validate_code", hf.validate_code, code)
            values += [hf.rank_code(code), hf.count_forests(b, s, k)]
        for b, s, k in self.FOREST_COUNTS:
            tracer.call("ranking.code_space_size", hf.code_space_size, ForestShape(b=b, s=s, k=k))
        # the decimal step of CLI rank and count, on the values they print
        for value in values:
            try:
                tracer.call("cli.decimal", str, value)
            except ValueError:
                tracer.add("cli.decimal_refused", 1)


WORKLOADS = {w.name: w for w in (CodecLarge, SampleStream, Index)}
