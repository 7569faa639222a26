"""The package's public surface: the names it exports stay exported, and
its values carry no state beyond what their constructors set."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import hyperforest
import hyperforest.cli

SOURCES = sorted(Path(hyperforest.__file__).parent.glob("*.py"))

PUBLIC_NAMES = [
    "AuditReport",
    "Block",
    "BudgetExceededError",
    "Component",
    "ComponentReport",
    "CycleSumIdentity",
    "DEFAULT_BUDGET",
    "ForestCode",
    "ForestShape",
    "Hyperedge",
    "HyperforestError",
    "InvalidStructureError",
    "InvariantViolation",
    "LeafBlock",
    "ParameterRangeError",
    "RootedForest",
    "ValidationReport",
    "VertexId",
    "audit_hypercycles",
    "code_space_size",
    "component_decomposition",
    "count_forests",
    "count_hypercycles",
    "count_rooted_hypertrees",
    "cycle_sum_identity",
    "decode_code",
    "encode_forest",
    "enumerate_code_space",
    "enumerate_forests",
    "enumerate_hypercycles",
    "generate_ids",
    "hypercycle_class_count",
    "leaf_blocks",
    "rank_code",
    "sample_code",
    "sample_forest",
    "sample_forests",
    "unrank_code",
    "validate_code",
    "validate_forest",
]


def test_all_is_unchanged():
    assert hyperforest.__all__ == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in hyperforest.__all__:
        assert getattr(hyperforest, name) is not None


def _setattr_callers(tree: ast.AST) -> list[str]:
    """Names of the functions that call object.__setattr__ (<module> if none)."""
    callers = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            callers.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return callers


def test_frozen_values_are_written_only_while_constructed():
    assert SOURCES
    for path in SOURCES:
        callers = _setattr_callers(ast.parse(path.read_text(encoding="utf-8")))
        assert set(callers) <= {"__post_init__"}, (path.name, callers)


def test_no_validity_flag_rides_on_values():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "arg", None),
                getattr(node, "name", None),
                node.value if isinstance(node, ast.Constant) else None,
            }
            assert "_known_valid" not in names, (path.name, ast.dump(node))


def test_runtime_imports_are_stdlib_or_the_package():
    """The package needs nothing beyond the standard library at runtime."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, node.lineno, module)


def _imported_names(tree: ast.AST) -> set[str]:
    """Every dotted component of the modules and names a source imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_ranking_does_not_use_the_counting_formulas():
    """code_space_size (radices) and count_forests (closed form) are compared
    by the acceptance suite, so neither route may borrow from the other."""
    path = Path(hyperforest.__file__).parent / "ranking.py"
    names = _imported_names(ast.parse(path.read_text(encoding="utf-8")))
    assert "codec" in names
    assert "counting" not in names


def test_counting_does_not_use_the_code_radices():
    """The other direction of the guard above.  Both routes take their
    products from the _bigint module, which is arithmetic only."""
    path = Path(hyperforest.__file__).parent / "counting.py"
    names = _imported_names(ast.parse(path.read_text(encoding="utf-8")))
    assert "codec" in names
    assert "ranking" not in names


def test_big_integer_arithmetic_has_one_home():
    """The product tree, the numeral's split and combine, and the power
    product are defined in _bigint alone, which imports nothing from the
    package; ranking and counting import them from there."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    moved = {"product_levels", "_split", "_combine", "_power_product"}
    homes = {
        (name, node.name) for name, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in moved
    }
    assert homes == {("_bigint.py", name) for name in moved}
    for node in ast.walk(trees["_bigint.py"]):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not getattr(node, "level", 0) and "hyperforest" not in _imported_names(node)
    imported = {
        name: {
            alias.name for node in ast.walk(trees[name])
            if isinstance(node, ast.ImportFrom) and node.level and node.module == "_bigint"
            for alias in node.names
        }
        for name in ("ranking.py", "counting.py")
    }
    assert imported == {
        "ranking.py": {"product_levels", "_split", "_combine"},
        "counting.py": {"_power_product"},
    }


def test_no_json_output_is_indented_by_the_json_module():
    """json.dumps(..., indent=...) runs the pure-Python encoder; the CLI's
    _pretty gives the same bytes from the C encoder."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in {"dump", "dumps", "JSONEncoder"}:
                keywords = {kw.arg for kw in node.keywords}
                assert "indent" not in keywords, (path.name, node.lineno)


def test_codec_directions_run_no_separate_validation_pass():
    """encode_forest and decode_code check their input with their own passes;
    the validate and ensure functions may only be handed to _reject, which
    words a refusal, so no pass before the codec's own can come back."""
    checkers = {"validate_code", "ensure_valid_code", "validate_forest", "ensure_valid"}
    path = Path(hyperforest.__file__).parent / "codec.py"
    functions = {
        node.name: node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("encode_forest", "decode_code"):
        rejects = [
            node for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_reject"
        ]
        assert rejects, name
        handed_over = {id(arg) for call in rejects for arg in call.args}
        for node in ast.walk(functions[name]):
            used = getattr(node, "id", None) or getattr(node, "attr", None)
            if used in checkers:
                assert id(node) in handed_over, (name, used, node.lineno)
    # the replay, which the sampler's stream also runs, refuses by returning
    # None and leaves the wording to decode_code
    for node in ast.walk(functions["_replay"]):
        used = getattr(node, "id", None) or getattr(node, "attr", None)
        assert used not in checkers | {"_reject"}, ("_replay", used, node.lineno)


def test_sample_stream_builds_no_code():
    """The stream hands each draw's raw parts to decode's replay: no
    ForestCode, so no canonical sort and no decode checks, between them."""
    path = Path(hyperforest.__file__).parent / "ranking.py"
    (function,) = (
        node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_sample_stream"
    )
    used = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(function)
    }
    assert {"_draw", "_replay", "RootedForest"} <= used
    assert not used & {"ForestCode", "sample_code", "decode_code"}


def test_id_odometer_builds_no_code():
    """The odometer yields the unranked code and each step's links: it
    builds no ForestCode, so a stepped id costs no canonical sort."""
    path = Path(hyperforest.__file__).parent / "ranking.py"
    (function,) = (
        node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_odometer"
    )
    # the body only: the return annotation names the type it yields
    used = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for statement in function.body
        for node in ast.walk(statement)
    }
    assert "_unrank" in used
    assert not used & {"ForestCode", "unrank_code", "generate_ids"}


def test_one_function_holds_the_size_rule():
    """errors._ensure_fits is the one reader of os.sysconf and the one raiser
    of the size refusal; cli.main's backstop, which words a late
    OverflowError or MemoryError the same way, is the one other text."""
    text = "parameters too large to compute"
    homes = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (getattr(node, "id", None) or getattr(node, "attr", None)) == "sysconf":
                use = "sysconf"
            elif isinstance(node, ast.Constant) and text in str(node.value):
                use = "text"
            else:
                continue
            # breadth-first, so the last function that spans the node is the innermost
            spans = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            homes.add((path.name, spans[-1] if spans else None, use))
    assert homes == {
        ("errors.py", "_ensure_fits", "sysconf"),
        ("errors.py", "_ensure_fits", "text"),
        ("cli.py", "main", "text"),
    }


def test_validate_forest_counts_and_does_not_group():
    """validate_forest reads excess and roots from the union-find's counts;
    the vertex lists of _components serve the oracle and
    component_decomposition only."""
    path = Path(hyperforest.__file__).parent / "forest.py"
    (function,) = (
        node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "validate_forest"
    )
    used = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(function)
    }
    assert "_union_find" in used
    assert not used & {"_components", "component_decomposition"}


def test_no_source_keeps_a_heap():
    """Encode and decode find the smallest ready label by one upward scan
    of a bytearray; the heap forms live on only as test references."""
    assert not [
        path.name
        for path in SOURCES
        if "heapq" in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_only_the_cli_imports_gc():
    """The CLI pauses the cyclic collector around a command; library calls
    leave the collector to their caller."""
    importers = {
        path.name
        for path in SOURCES
        if "gc" in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"cli.py"}


def test_cli_words_counts_in_one_function():
    """A count or index becomes text only in cli._decimal_text; the one other
    str() call words the exception that main reports."""
    path = Path(hyperforest.__file__).parent / "cli.py"
    calls = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "str":
            argument = node.args[0].id if isinstance(node.args[0], ast.Name) else None
            calls.append((function, argument))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    assert calls == [("_decimal_text", "value"), ("main", "exc")]


def test_messages_word_numbers_in_one_function():
    """str() of an int raises past 4300 digits, so every message words its
    numbers through errors._words: only errors.py imports decimal, and only
    _words calls Decimal()."""
    importers = {
        path.name
        for path in SOURCES
        if "decimal" in _imported_names(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"errors.py"}
    calls = []

    def visit(node: ast.AST, where: tuple[str, str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (where[0], node.name)
        if isinstance(node, ast.Call):
            func = node.func
            if "Decimal" in {getattr(func, "id", None), getattr(func, "attr", None)}:
                calls.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.name, "<module>"))
    assert calls == [("errors.py", "_words")]


def test_console_script_is_the_cli_main():
    """The installed hyperforest command runs cli.main."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"hyperforest": "hyperforest.cli:main"}
    module, _, name = scripts["hyperforest"].partition(":")
    assert getattr(importlib.import_module(module), name) is hyperforest.cli.main


def _counting_calls() -> dict[str, set]:
    """The names each function of counting.py calls, by function name."""
    path = Path(hyperforest.__file__).parent / "counting.py"
    return {
        function.name: {
            getattr(node.func, "id", None)
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
        }
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, ast.FunctionDef)
    }


def test_hypertrees_are_counted_as_one_tree_forests():
    """count_rooted_hypertrees is count_forests at k = 0, with no exponent
    list of its own for _factorial_quotient."""
    called = _counting_calls()["count_rooted_hypertrees"]
    assert "count_forests" in called
    assert "_factorial_quotient" not in called


def test_hypercycles_are_counted_from_prime_exponents():
    """count_hypercycles takes its prefactor, and hypercycle_class_count its
    quotient, from _factorial_quotient; the sum form has no Fraction loop of
    its own, and factorial is called only by the identity's exact
    rationals.  _factorial_quotient states its own size bound, so the
    counts that pass their factorial list straight to it state none."""
    calls = _counting_calls()
    assert "_cycle_sum" not in calls
    assert "_factorial_quotient" in calls["count_hypercycles"]
    assert "_factorial_quotient" in calls["hypercycle_class_count"]
    assert {name for name, called in calls.items() if "factorial" in called} == {
        "cycle_sum_identity",
    }
    assert "_ensure_holdable" in calls["_factorial_quotient"]
    assert "_ensure_holdable" not in calls["count_forests"]
    assert "_ensure_holdable" not in calls["hypercycle_class_count"]


_FLOAT_MATH = {"sqrt", "log", "lgamma", "pow"}


def _float_uses(tree: ast.AST) -> list[int]:
    """Line numbers of true division, float constants, float() and the math
    functions that return floats."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "math"
            and node.attr in _FLOAT_MATH
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if {alias.name for alias in node.names} & _FLOAT_MATH:
                lines.append(node.lineno)
    return lines


def test_ranking_and_counting_use_no_floats():
    """Counts, ranks and the combination closed forms, and the products
    under them, are exact integers at any size; a float would round them
    past 2^53."""
    for name in ("ranking.py", "counting.py", "_bigint.py"):
        path = Path(hyperforest.__file__).parent / name
        assert _float_uses(ast.parse(path.read_text(encoding="utf-8"))) == [], name
