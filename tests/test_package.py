"""The package's public surface: the names it exports stay exported."""

import hyperforest

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
