"""Messages word every number in full, whatever its size.

str() of an int raises ValueError past 4300 digits, so each report and
refusal below, which words a 5001-digit int, would raise instead of
reporting if any of its numbers went through str().
"""

import copy
import pickle

import pytest

from hyperforest import (
    BudgetExceededError,
    ForestCode,
    ForestShape,
    InvalidStructureError,
    ParameterRangeError,
    RootedForest,
    component_decomposition,
    decode_code,
    encode_forest,
    generate_ids,
    hypercycle_class_count,
    rank_code,
    sample_code,
    sample_forests,
    validate_code,
    validate_forest,
)

BIG = 10**5000 + 4321
DIGITS = "1" + "0" * 4996 + "4321"  # BIG's decimal, written without str()
assert len(DIGITS) == 5001

SHAPE = ForestShape(b=2, s=1, k=0)  # n = 2, and 2 codes
LABEL_IN_BLOCK = ForestCode(SHAPE, (1,), 1, ((BIG,),), ())

# probe -> (call, a message it must give in full)
PROBES = {
    "validate_forest-n": (
        lambda: validate_forest(RootedForest(n=BIG, b=2, edges=(), roots=(1,))),
        f"vertex count n={DIGITS} differs from s(b-1)+k+1=1",
    ),
    "validate_forest-b": (
        lambda: validate_forest(RootedForest(n=2, b=BIG, edges=[(1, 2)], roots=(1,))),
        f"edge [1, 2]: has 2 vertices, expected b={DIGITS}",
    ),
    "validate_forest-root": (
        lambda: validate_forest(RootedForest(n=2, b=2, edges=[(1, 2)], roots=(BIG,))),
        f"root {DIGITS} outside 1..2",
    ),
    "component_decomposition-n": (
        lambda: component_decomposition(RootedForest(n=-BIG, b=2, edges=(), roots=(1,))),
        f"vertex count n=-{DIGITS} must be at least 1",
    ),
    "validate_code-root": (
        lambda: validate_code(ForestCode(SHAPE, (BIG,), BIG, ((1,),), ())),
        f"root {DIGITS} outside 1..2",
    ),
    "validate_code-link": (
        lambda: validate_code(ForestCode(ForestShape(2, 2, 0), (1,), 1, ((2,), (3,)), (BIG,))),
        f"link {DIGITS} outside 1..3",
    ),
    "encode_forest-label": (
        lambda: encode_forest(RootedForest(n=2, b=2, edges=[(1, BIG)], roots=(1,))),
        f"edge [1, {DIGITS}]: vertex label outside 1..2",
    ),
    "decode_code-label": (
        lambda: decode_code(LABEL_IN_BLOCK),
        f"block label {DIGITS} outside 1..2",
    ),
    "rank_code-label": (
        lambda: rank_code(LABEL_IN_BLOCK),
        f"block label {DIGITS} outside 1..2",
    ),
    "RootedForest-label": (
        lambda: RootedForest(n=2, b=2, edges=[(1, BIG), (BIG, 1)], roots=(1,)),
        f"duplicate hyperedge [1, {DIGITS}]: edges form a set",
    ),
    "ForestShape-b": (
        lambda: ForestShape(b=-BIG, s=1, k=0),
        f"edge size b=-{DIGITS} must be at least 2",
    ),
    "ForestShape-k": (
        lambda: ForestShape(b=2, s=1, k=-BIG),
        f"tree parameter k=-{DIGITS} must be at least 0",
    ),
    "sample_code-seed": (
        lambda: sample_code(SHAPE, BIG),
        f"seed {DIGITS} outside 0..2^64-1",
    ),
    "sample_forests-m": (
        lambda: sample_forests(SHAPE, 0, -BIG),
        f"draw count m=-{DIGITS} must be at least 0",
    ),
    "generate_ids-m": (
        lambda: generate_ids(SHAPE, BIG),
        f"requested {DIGITS} ids but the shape has only 2 codes",
    ),
    "generate_ids-negative-m": (
        lambda: generate_ids(SHAPE, -BIG),
        f"id count m=-{DIGITS} must be at least 0",
    ),
    "hypercycle_class_count-j": (
        lambda: hypercycle_class_count(3, 2, BIG),
        f"cycle length j={DIGITS} must lie in 2..2",
    ),
}


@pytest.mark.parametrize("name", list(PROBES))
def test_a_5001_digit_int_is_worded_in_full(name):
    call, message = PROBES[name]
    try:
        report = call()
    except (ParameterRangeError, InvalidStructureError) as exc:
        text = str(exc)
    else:
        assert not report.valid
        text = "; ".join(report.violations)
    assert message in text


CANDIDATES = 10**4999 + 7  # 5000 digits


@pytest.mark.parametrize(
    "clone",
    [lambda error: pickle.loads(pickle.dumps(error)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_budget_error_survives_pickle_and_copy(clone):
    error = BudgetExceededError(CANDIDATES, 10_000_000)
    twin = clone(error)
    assert type(twin) is BudgetExceededError
    assert (twin.candidates, twin.budget) == (CANDIDATES, 10_000_000)
    assert str(twin) == str(error) == (
        "enumeration refused: 1" + "0" * 4998 + "7 candidate sets exceed the budget of 10000000"
    )
