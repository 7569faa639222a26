"""Command line interface over the library.

Usage:
    hyperforest validate [-i forest-or-code.json]
    hyperforest encode [-i forest.json]
    hyperforest decode [-i code.json]
    hyperforest count --kind forests --b 3 --s 2 --k 0
    hyperforest enumerate --kind codes --b 2 --s 2 --k 0
    hyperforest audit --b 3 --s 2
    hyperforest sample --b 3 --s 4 --k 1 --seed 7 --m 2
    hyperforest rank [-i code.json]
    hyperforest unrank --index 8 --b 2 --s 2 --k 0
    hyperforest ids --b 2 --s 2 --k 0 --m 5

Documents are JSON.  A forest document has keys n, b, edges, roots; a code
document has keys b, s, k, R, r, P, N (r is null when s is 0).  Output is
canonical: ascending lists, fixed key order, counts and indexes rendered as
decimal strings.  Single-document commands pretty-print one document,
byte for byte as json.dumps(doc, indent=2) would; sample and ids write one
compact document per line; enumerate and audit write one compact document
per line followed by a summary record.

Exit status: 0 on success, 1 when a document fails validation, 2 on usage
or parameter errors (including enumeration budget refusals).  Errors print
one JSON line {"error": code, "message": ...} to stderr.  The environment
variable HYPERFOREST_BUDGET overrides the oracle's candidate budget.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from itertools import chain
from typing import Any

from .codec import (
    ForestCode,
    ForestShape,
    decode_code,
    encode_forest,
    validate_code,
)
from .counting import (
    count_forests,
    count_hypercycles,
    count_rooted_hypertrees,
    hypercycle_class_count,
)
from .errors import (
    BudgetExceededError,
    InvalidStructureError,
    ParameterRangeError,
)
from .forest import Hyperedge, RootedForest, validate_forest
from .oracle import (
    DEFAULT_BUDGET,
    audit_hypercycles,
    enumerate_code_space,
    enumerate_forests,
    enumerate_hypercycles,
)
from .ranking import rank_code, unrank_code

# sample and ids iterate the ranking streams, printing each document as it is
# made; the streams keep the list functions' names, which a tracer wraps
from .ranking import _id_stream as generate_ids, _sample_stream as sample_forests


class _UsageError(Exception):
    pass


class _DocumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise _UsageError(message)


# the one compact encoder: JSON lines, error lines, and the integer lists
# that _pretty re-indents
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _pretty(value: Any, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for values made of dicts
    with string keys, lists or tuples (both print as arrays) and scalars.
    That call runs the pure-Python encoder, because the C encoder has no
    indent; here arrays of integers, and arrays of non-empty arrays of
    integers, are encoded by the C encoder and re-indented with
    str.replace, which is safe because integers contain no brackets or
    commas.  ``indent`` is the indentation of the line ``value`` starts on.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(key)}: {_pretty(item, inner)}"
            for key, item in value.items()
        )
        return f"{{\n{items}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {int}:
            body = _compact(value)[1:-1].replace(",", ",\n" + inner)
            return f"[\n{inner}{body}\n{indent}]"
        if (
            types <= {list, tuple}
            and all(value)
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            deeper = inner + "  "
            body = (
                _compact(value)[2:-2]
                .replace(",", ",\n" + deeper)
                .replace(f"],\n{deeper}[", f"\n{inner}],\n{inner}[\n{deeper}")
            )
            return f"[\n{inner}[\n{deeper}{body}\n{inner}]\n{indent}]"
        items = ",\n".join(inner + _pretty(item, inner) for item in value)
        return f"[\n{items}\n{indent}]"
    return json.dumps(value)


def _print_document(doc: dict[str, Any]) -> None:
    print(_pretty(doc))


def _print_line(doc: dict[str, Any]) -> None:
    print(_compact(doc))


def _decimal_text(value: int | None) -> str | None:
    """A count or index as the documents print it: a decimal string, or null.
    str() raises ValueError past the interpreter's integer string limit."""
    return None if value is None else str(value)


def _load_json(path: str | None) -> Any:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _DocumentError(f"input is not valid JSON: {exc}") from None
    except (RecursionError, ValueError) as exc:  # nesting, digit limit, bad UTF-8
        raise _DocumentError(f"input cannot be read as JSON: {exc}") from None


# integers are checked with type() and not isinstance(): bool is an int
# subclass, and json.loads returns no other subclass of int
def _require(doc: Any, key: str, kind: type, what: str) -> Any:
    if not isinstance(doc, dict):
        raise _DocumentError(f"{what} document must be a JSON object")
    if key not in doc:
        raise _DocumentError(f"{what} document is missing key {key!r}")
    value = doc[key]
    if kind is int and type(value) is not int:
        raise _DocumentError(f"{what} document key {key!r} must be an integer")
    if kind is list and not isinstance(value, list):
        raise _DocumentError(f"{what} document key {key!r} must be a list")
    return value


# the intake checks types and hands the parsed lists on: the constructors
# build the canonical tuples
def _int_list(values: list, what: str) -> list[int]:
    if not set(map(type, values)) <= {int}:
        raise _DocumentError(f"{what} must be a list of integers")
    return values


def _int_lists(values: list, what: str) -> list[list[int]]:
    if not set(map(type, values)) <= {list} or not set(
        map(type, chain.from_iterable(values))
    ) <= {int}:
        raise _DocumentError(f"{what} must be a list of integers")
    return values


def forest_from_document(doc: Any) -> RootedForest:
    n = _require(doc, "n", int, "forest")
    b = _require(doc, "b", int, "forest")
    edges = _require(doc, "edges", list, "forest")
    roots = _require(doc, "roots", list, "forest")
    edges = _int_lists(edges, "each edge")
    return RootedForest(n=n, b=b, edges=edges, roots=_int_list(roots, "roots"))


# the documents hold the values' own tuples, which json prints as arrays
def forest_to_document(forest: RootedForest) -> dict[str, Any]:
    return {"n": forest.n, "b": forest.b, "edges": forest.edges, "roots": forest.roots}


def code_from_document(doc: Any) -> ForestCode:
    b = _require(doc, "b", int, "code")
    s = _require(doc, "s", int, "code")
    k = _require(doc, "k", int, "code")
    roots = _int_list(_require(doc, "R", list, "code"), "R")
    final_root = doc.get("r")
    if final_root is not None and type(final_root) is not int:
        raise _DocumentError("code document key 'r' must be an integer or null")
    blocks = _require(doc, "P", list, "code")
    links = _int_list(_require(doc, "N", list, "code"), "N")
    try:
        shape = ForestShape(b=b, s=s, k=k)
    except ParameterRangeError as exc:
        raise _DocumentError(f"code document shape is invalid: {exc}") from exc
    return ForestCode(shape, roots, final_root, _int_lists(blocks, "each block"), links)


def code_to_document(code: ForestCode) -> dict[str, Any]:
    return {
        "b": code.shape.b,
        "s": code.shape.s,
        "k": code.shape.k,
        "R": code.roots,
        "r": code.final_root,
        "P": code.blocks,
        "N": code.links,
    }


def _budget() -> int:
    raw = os.environ.get("HYPERFOREST_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ParameterRangeError(
            f"HYPERFOREST_BUDGET must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ParameterRangeError("HYPERFOREST_BUDGET must be non-negative")
    return value


def _shape_from_args(args: argparse.Namespace) -> ForestShape:
    if args.k is None:
        raise _UsageError("this command requires --k")
    return ForestShape(b=args.b, s=args.s, k=args.k)


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _load_json(args.input)
    if isinstance(doc, dict) and "edges" in doc:
        forest = forest_from_document(doc)
        report = validate_forest(forest)
        kind = "forest"
    elif isinstance(doc, dict) and ("P" in doc or "R" in doc):
        code = code_from_document(doc)
        report = validate_code(code)
        kind = "code"
    else:
        raise _DocumentError(
            "document is neither a forest (edges) nor a code (R, P)"
        )
    _print_document(
        {
            "kind": kind,
            "valid": report.valid,
            "s": report.s,
            "k": report.k,
            "violations": report.violations,
        }
    )
    return 0 if report.valid else 1


def _cmd_encode(args: argparse.Namespace) -> int:
    forest = forest_from_document(_load_json(args.input))
    _print_document(code_to_document(encode_forest(forest)))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    code = code_from_document(_load_json(args.input))
    _print_document(forest_to_document(decode_code(code)))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    # the count function and the document keys between "kind" and "count";
    # every key but "n" is a flag that the function takes by the same name
    count, keys = {
        "forests": (count_forests, ("b", "s", "k", "n")),
        "hypertrees": (count_rooted_hypertrees, ("b", "s", "n")),
        "hypercycles": (count_hypercycles, ("b", "s", "n", "form")),
        "hypercycle-class": (hypercycle_class_count, ("b", "s", "n", "j")),
    }[args.kind]
    params = {key: getattr(args, key) for key in keys if key != "n"}
    for key, value in params.items():
        if value is None:
            raise _UsageError(f"count --kind {args.kind} requires --{key}")
    value = count(**params)
    if args.kind.startswith("hypercycle"):
        params["n"] = args.s * (args.b - 1)
    else:
        params["n"] = ForestShape(b=args.b, s=args.s, k=params.get("k", 0)).n
    _print_document(
        {"kind": args.kind, **{key: params[key] for key in keys}, "count": _decimal_text(value)}
    )
    return 0


def _hypercycle_to_document(edges: tuple[Hyperedge, ...]) -> dict[str, Any]:
    b = len(edges[0])
    return {"n": len(edges) * (b - 1), "b": b, "edges": edges}


def _cmd_enumerate(args: argparse.Namespace) -> int:
    budget = _budget()
    # the oracle, the flag it takes after b and s, and the document of each item
    enumerate_kind, flag, to_document = {
        "forests": (enumerate_forests, "k", forest_to_document),
        "codes": (enumerate_code_space, "k", code_to_document),
        "hypercycles": (enumerate_hypercycles, "multiset", _hypercycle_to_document),
    }[args.kind]
    value = getattr(args, flag)
    if value is None:
        raise _UsageError(f"enumerate --kind {args.kind} requires --{flag}")
    total = 0
    for item in enumerate_kind(args.b, args.s, value, budget):
        _print_line(to_document(item))
        total += 1
    summary = {"kind": args.kind, "b": args.b, "s": args.s, flag: value}
    summary["count"] = _decimal_text(total)
    _print_line({"summary": summary})
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    report = audit_hypercycles(args.b, args.s, _budget())
    for j, value in report.count_by_cycle_length:
        _print_line({"j": j, "count": _decimal_text(value)})
    _print_line(
        {
            "summary": {
                "b": report.b,
                "s": report.s,
                "n": report.n,
                "closed_form_count": _decimal_text(report.closed_form_count),
                "cycle_length_total": _decimal_text(report.cycle_length_total),
                "set_count": _decimal_text(report.set_count),
                "multiset_count": _decimal_text(report.multiset_count),
                "notes": report.notes,
            }
        }
    )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    for forest in sample_forests(shape, args.seed, args.m):
        _print_line(forest_to_document(forest))
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    code = code_from_document(_load_json(args.input))
    index = rank_code(code)
    _print_document(
        {
            "b": code.shape.b,
            "s": code.shape.s,
            "k": code.shape.k,
            "index": _decimal_text(index),
        }
    )
    return 0


def _cmd_unrank(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    _print_document(code_to_document(unrank_code(args.index, shape)))
    return 0


def _cmd_ids(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    for code in generate_ids(shape, args.m):
        _print_line(code_to_document(code))
    return 0


def _arg(*flags: str, **spec: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, spec


_INPUT = _arg("-i", "--input", default=None, help="input JSON document (default: standard input)")
_B = _arg("--b", type=int, required=True, help="vertices per hyperedge")
_S = _arg("--s", type=int, required=True, help="number of hyperedges")
_K = _arg("--k", type=int, default=None, help="number of trees minus one")

# subcommand -> (handler, help, arguments), in --help order; handlers look up
# the layers they call at call time, so that a tracer can wrap those names
_COMMANDS = {
    "validate": (_cmd_validate, "validate a forest or code document", [_INPUT]),
    "encode": (_cmd_encode, "forest document to code document", [_INPUT]),
    "decode": (_cmd_decode, "code document to forest document", [_INPUT]),
    "count": (_cmd_count, "exact counts from the closed formulas", [
        _arg("--kind", required=True,
             choices=["forests", "hypertrees", "hypercycles", "hypercycle-class"]),
        _B, _S, _K,
        _arg("--j", type=int, default=None, help="cycle length class"),
        _arg("--form", choices=["closed", "sum"], default="closed"),
    ]),
    "enumerate": (_cmd_enumerate, "exhaustive desk-scale enumeration", [
        _arg("--kind", required=True, choices=["forests", "codes", "hypercycles"]),
        _B, _S, _K,
        _arg("--multiset", action="store_true", help="hypercycles only: allow repeated edges"),
    ]),
    "audit": (_cmd_audit, "hypercycle counts side by side", [_B, _S]),
    "sample": (_cmd_sample, "uniform random forests, seeded", [
        _B, _S, _K,
        _arg("--seed", type=int, required=True, help="64-bit unsigned seed"),
        _arg("--m", type=int, default=1, help="number of draws"),
    ]),
    "rank": (_cmd_rank, "canonical index of a code document", [_INPUT]),
    "unrank": (_cmd_unrank, "code document at a canonical index",
               [_arg("--index", type=int, required=True), _B, _S, _K]),
    "ids": (_cmd_ids, "the first m codes, as unique identifiers", [
        _B, _S, _K, _arg("--m", type=int, required=True, help="number of identifiers"),
    ]),
}

# exception type -> (error code, exit status), the README's error contract;
# an exception takes the entry of its most specific class listed here
_ERRORS = {
    _UsageError: ("usage", 2),
    _DocumentError: ("invalid-document", 1),
    InvalidStructureError: ("invalid-structure", 1),
    BudgetExceededError: ("budget", 2),
    ParameterRangeError: ("range", 2),
    OSError: ("io", 2),
    OverflowError: ("range", 2),
}


@functools.cache  # built on the first main call, then reused: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hyperforest",
        description=(
            "Encode, decode, count, enumerate, audit, sample, rank, and "
            "unrank forests of labelled rooted uniform hypertrees."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, spec in arguments:
            command.add_argument(*flags, **spec)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    # commands build acyclic lists and tuples of ints, on which the cyclic
    # collector frees nothing: pause it, and leave it as the caller had it
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except tuple(_ERRORS) as exc:
        code, status = next(_ERRORS[cls] for cls in type(exc).__mro__ if cls in _ERRORS)
        sys.stderr.write(_compact({"error": code, "message": str(exc)}) + "\n")
        return status
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
