"""The package's public surface: the names it exports stay exported, and
its values carry no state beyond what their constructors set."""

import ast
import sys
from pathlib import Path

import hyperforest

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
    products from codec.product_levels, which is arithmetic only."""
    path = Path(hyperforest.__file__).parent / "counting.py"
    names = _imported_names(ast.parse(path.read_text(encoding="utf-8")))
    assert "codec" in names
    assert "ranking" not in names


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
