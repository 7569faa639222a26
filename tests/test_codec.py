"""Tests for the leaf-pruning codec: shape arithmetic, code validation,
and the encode/decode pair on worked examples and exhaustive small sweeps."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings

from hyperforest import (
    ForestCode,
    ForestShape,
    InvalidStructureError,
    ParameterRangeError,
    RootedForest,
    decode_code,
    encode_forest,
    enumerate_forests,
    leaf_blocks,
    rank_code,
    unrank_code,
    validate_code,
    validate_forest,
)
from conftest import (
    SWEEP_SHAPES,
    WORKED_BLOCKS,
    WORKED_EDGES,
    WORKED_FINAL_ROOT,
    WORKED_LINKS,
    WORKED_ROOTS,
    malformed_codes,
    malformed_forests,
    range_message,
    small_codes,
    small_hypergraphs,
)


class TestForestShape:
    def test_vertex_count(self):
        assert ForestShape(b=3, s=9, k=3).n == 22
        assert ForestShape(b=2, s=0, k=4).n == 5
        assert ForestShape(b=7, s=1, k=0).n == 7

    @pytest.mark.parametrize(
        "b,s,k",
        [(1, 2, 0), (0, 1, 1), (2, -1, 0), (2, 1, -1), (1, -1, -1), (2, -1, -1)],
    )
    def test_rejects_bad_parameters(self, b, s, k):
        with pytest.raises(ParameterRangeError) as info:
            ForestShape(b=b, s=s, k=k)
        assert str(info.value) == range_message(b, s, k)

    def test_edge_size_may_exceed_n_when_no_edges_exist(self):
        # with s=0 there are no edges, so b never has to fit inside n;
        # with s>=1 the arithmetic forces n >= b on its own
        assert ForestShape(b=9, s=0, k=0).n == 1
        assert ForestShape(b=9, s=1, k=0).n == 9


class TestValidateCode:
    def test_worked_code_is_valid(self, worked_code):
        report = validate_code(worked_code)
        assert report.valid
        assert report.violations == ()
        assert (report.s, report.k) == (9, 3)

    def test_shortened_links(self, worked_code):
        mangled = dataclasses.replace(worked_code, links=WORKED_LINKS[:7])
        report = validate_code(mangled)
        assert not report.valid
        assert any("expected 8 links" in v for v in report.violations)

    def test_final_root_not_a_root(self, worked_code):
        mangled = dataclasses.replace(worked_code, final_root=14)
        report = validate_code(mangled)
        assert any("not a root" in v for v in report.violations)

    def test_blocks_must_cover_non_roots(self, worked_code):
        swapped = list(WORKED_BLOCKS)
        swapped[0] = (1, 1)
        report = validate_code(dataclasses.replace(worked_code, blocks=swapped))
        assert not report.valid

    def test_root_inside_block(self):
        code = ForestCode(
            shape=ForestShape(b=2, s=2, k=0),
            roots=(1,),
            final_root=1,
            blocks=((1,), (2,)),
            links=(3,),
        )
        report = validate_code(code)
        assert any("root label appears inside a block" in v for v in report.violations)

    def test_final_root_required_when_edges_exist(self):
        code = ForestCode(
            shape=ForestShape(b=2, s=1, k=0),
            roots=(1,),
            final_root=None,
            blocks=((2,),),
            links=(),
        )
        report = validate_code(code)
        assert any("required" in v for v in report.violations)

    def test_final_root_forbidden_when_no_edges(self):
        code = ForestCode(
            shape=ForestShape(b=2, s=0, k=1),
            roots=(1, 2),
            final_root=1,
            blocks=(),
            links=(),
        )
        report = validate_code(code)
        assert any("absent" in v for v in report.violations)

    def test_memory_follows_the_document_not_the_declared_size(self):
        # b = 10**6 declares a million labels; the document holds two
        code = ForestCode(ForestShape(b=10**6, s=1, k=0), (1,), 1, ((2,),), ())
        tracemalloc.start()
        try:
            report = validate_code(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "blocks do not cover every non-root label exactly once" in (
            report.violations
        )
        assert peak < 4 * 2**20

    def test_link_out_of_range(self):
        code = ForestCode(
            shape=ForestShape(b=2, s=2, k=0),
            roots=(1,),
            final_root=1,
            blocks=((2,), (3,)),
            links=(9,),
        )
        report = validate_code(code)
        assert any("outside" in v for v in report.violations)


class TestEncode:
    def test_worked_example(self, worked_forest):
        code = encode_forest(worked_forest)
        assert code.shape == ForestShape(b=3, s=9, k=3)
        assert code.roots == WORKED_ROOTS
        assert code.blocks == WORKED_BLOCKS
        assert code.links == WORKED_LINKS
        assert code.final_root == WORKED_FINAL_ROOT

    def test_single_edge(self):
        f = RootedForest(n=3, b=3, edges=[(1, 2, 3)], roots=(3,))
        code = encode_forest(f)
        assert code.roots == (3,)
        assert code.final_root == 3
        assert code.blocks == ((1, 2),)
        assert code.links == ()

    def test_two_edge_path(self):
        # pruning removes {3} first (anchored at 2), then {2} (anchored at
        # the root), so the last link recorded is the root itself; the
        # stored partition is canonical (blocks ordered by smallest label),
        # the pairing with links is reconstructed by decode
        f = RootedForest(n=3, b=2, edges=[(1, 2), (2, 3)], roots=(1,))
        code = encode_forest(f)
        assert code.blocks == ((2,), (3,))
        assert code.links == (2,)
        assert code.final_root == 1

    def test_isolated_roots(self):
        f = RootedForest(n=4, b=3, edges=[], roots=(1, 2, 3, 4))
        code = encode_forest(f)
        assert code.shape == ForestShape(b=3, s=0, k=3)
        assert code.roots == (1, 2, 3, 4)
        assert code.final_root is None
        assert code.blocks == ()
        assert code.links == ()

    def test_rejects_invalid_forest(self):
        f = RootedForest(n=3, b=2, edges=[(1, 2), (2, 3), (1, 3)], roots=(1,))
        with pytest.raises(InvalidStructureError):
            encode_forest(f)


class TestDecode:
    def test_worked_example(self, worked_code, worked_forest):
        assert decode_code(worked_code) == worked_forest

    def test_two_blocks_two_roots(self):
        code = ForestCode(
            shape=ForestShape(b=2, s=2, k=1),
            roots=(3, 4),
            final_root=3,
            blocks=((1,), (2,)),
            links=(4,),
        )
        f = decode_code(code)
        assert f.edges == ((1, 4), (2, 3))
        assert f.roots == (3, 4)

    def test_no_edges(self):
        code = ForestCode(
            shape=ForestShape(b=4, s=0, k=2),
            roots=(1, 2, 3),
            final_root=None,
            blocks=(),
            links=(),
        )
        f = decode_code(code)
        assert f.edges == ()
        assert f.n == 3

    def test_output_passes_validation(self, worked_code):
        from hyperforest import validate_forest

        f = decode_code(worked_code)
        assert validate_forest(f).valid

    def test_rejects_invalid_code(self, worked_code):
        mangled = dataclasses.replace(worked_code, links=WORKED_LINKS[:7])
        with pytest.raises(InvalidStructureError):
            decode_code(mangled)


class TestRoundTrip:
    def test_worked_example_round_trip(self, worked_forest):
        assert decode_code(encode_forest(worked_forest)) == worked_forest

    @pytest.mark.parametrize("b,s,k", SWEEP_SHAPES)
    def test_decode_inverts_encode_exhaustively(self, b, s, k):
        seen = set()
        total = 0
        for forest in enumerate_forests(b, s, k):
            code = encode_forest(forest)
            assert decode_code(code) == forest
            seen.add((code.roots, code.final_root, code.blocks, code.links))
            total += 1
        # distinct forests map to distinct codes
        assert len(seen) == total


def assert_encode_agrees_with_validate(forest) -> bool:
    """encode_forest refuses exactly the forests validate_forest reports as
    invalid, with the report as its message, and round-trips the rest.
    Returns whether the forest is valid."""
    report = validate_forest(forest)
    if report.valid:
        assert decode_code(encode_forest(forest)) == forest
        return True
    with pytest.raises(InvalidStructureError) as info:
        encode_forest(forest)
    assert str(info.value) == "invalid forest: " + "; ".join(report.violations)
    return False


class TestEncodeChecksItsInput:
    def test_agrees_with_validate_on_every_small_hypergraph(self):
        # labels just outside 1..n too: input by input, this checks
        # encode_forest's proof that a pruning of all s edges leaves nothing
        # it needs to refuse
        checked = valid = 0
        for forest in small_hypergraphs(spill=1):
            valid += assert_encode_agrees_with_validate(forest)
            checked += 1
        assert (checked, valid) == (57437, 917)

    @settings(max_examples=400, deadline=None)
    @given(malformed_forests())
    def test_agrees_with_validate_on_malformed_forests(self, forest):
        assert_encode_agrees_with_validate(forest)

    # each row pins validate_forest's report, which the agreement check
    # alone compares only with itself
    @pytest.mark.parametrize(
        "n,b,edges,roots,violations",
        [
            pytest.param(5, 3, [(1, 2, 3, 4), (4, 5)], (1,),
                         ("edge [1, 2, 3, 4]: has 4 vertices, expected b=3",
                          "edge [4, 5]: has 2 vertices, expected b=3"), id="mixed-edge-sizes"),
            pytest.param(1, 1, [], (1,), ("uniformity b=1 must be at least 2",),
                         id="edge-size-1"),
            pytest.param(0, 2, [], (), ("vertex count n=0 must be at least 1",
                                        "at least one root is required"), id="no-vertices"),
            pytest.param(3, 2, [(0, 1), (1, 2)], (1,),
                         ("edge [0, 1]: vertex label outside 1..3",), id="edge-label-0"),
            pytest.param(3, 2, [(-1, 1), (1, 2)], (1,),
                         ("edge [-1, 1]: vertex label outside 1..3",), id="edge-label-minus-1"),
            pytest.param(3, 2, [(1, 2), (2, 3)], (0,), ("root 0 outside 1..3",), id="root-0"),
            pytest.param(3, 2, [(1, 2), (2, 3)], (-1,), ("root -1 outside 1..3",),
                         id="root-minus-1"),
            pytest.param(3, 2, [(1, 2), (2, 4)], (1,),
                         ("edge [2, 4]: vertex label outside 1..3",), id="edge-label-n-plus-1"),
            pytest.param(3, 2, [(1, 2), (2, 3)], (4,), ("root 4 outside 1..3",),
                         id="root-n-plus-1"),
            pytest.param(3, 3, [(1, 1, 2)], (3,), ("edge [1, 1, 2]: repeated vertex label",),
                         id="repeated-label-in-edge"),
            pytest.param(3, 2, [(1, 2)], (1, 1), ("repeated root 1",), id="duplicate-roots"),
            pytest.param(3, 2, [(1, 2)], (1, 2),
                         ("component containing vertex 1 has 2 roots, expected exactly 1",
                          "component containing vertex 3 has 0 roots, expected exactly 1"),
                         id="isolated-non-root-vertex"),
            # a rootless tree beside a two-root tree: once the leaves (1, 2)
            # and (1, 3) are pruned the heap is empty with two edges left,
            # and the empty heap refuses the forest (the id names the guard
            # that refused it before the pruning alone did)
            pytest.param(
                6, 2, [(1, 2), (1, 3), (4, 6), (5, 6)], (4, 5),
                ("component containing vertex 1 has 0 roots, expected exactly 1",
                 "component containing vertex 4 has 2 roots, expected exactly 1"),
                id="leaf-loses-its-anchor",
            ),
        ],
    )
    def test_named_malformed_forest(self, n, b, edges, roots, violations):
        forest = RootedForest(n=n, b=b, edges=edges, roots=roots)
        assert validate_forest(forest).violations == violations
        assert not assert_encode_agrees_with_validate(forest)


def assert_decode_agrees_with_validate(code) -> bool:
    """decode_code and rank_code refuse exactly the codes validate_code
    reports as invalid, with the report as their message; the forest decode
    gives for the rest encodes back to the same code, and the rank unranks
    back to it.  Returns whether the code is valid."""
    report = validate_code(code)
    if report.valid:
        assert encode_forest(decode_code(code)) == code
        assert unrank_code(rank_code(code), code.shape) == code
        return True
    for call in (decode_code, rank_code):
        with pytest.raises(InvalidStructureError) as info:
            call(code)
        assert str(info.value) == "invalid code: " + "; ".join(report.violations)
    return False


UNCOVERED = "blocks do not cover every non-root label exactly once"


def _named_code(b=3, s=2, k=1, roots=(5, 6), final_root=5,
                blocks=((1, 2), (3, 4)), links=(3,)):
    """A valid code on n = 6 unless an argument breaks it."""
    return ForestCode(ForestShape(b=b, s=s, k=k), roots, final_root, blocks, links)


class TestDecodeChecksItsInput:
    def test_named_base_code_is_valid(self):
        assert assert_decode_agrees_with_validate(_named_code())

    def test_agrees_with_validate_on_every_small_code(self):
        checked = valid = 0
        for code in small_codes():
            valid += assert_decode_agrees_with_validate(code)
            checked += 1
        assert (checked, valid) == (252940, 83)

    @settings(max_examples=400, deadline=None)
    @given(malformed_codes())
    def test_agrees_with_validate_on_malformed_codes(self, code):
        assert_decode_agrees_with_validate(code)

    # each row pins validate_code's report, which the agreement check
    # alone compares only with itself
    @pytest.mark.parametrize(
        "changes,violations",
        [
            pytest.param({"roots": (0, 6), "final_root": 6},
                         ("root 0 outside 1..6", UNCOVERED), id="root-0"),
            pytest.param({"roots": (-1, 6), "final_root": 6},
                         ("root -1 outside 1..6", UNCOVERED), id="root-minus-1"),
            pytest.param({"roots": (5, 7)}, ("root 7 outside 1..6", UNCOVERED),
                         id="root-n-plus-1"),
            pytest.param(
                {"s": 0, "k": 1, "roots": (1, 3), "final_root": None, "blocks": (),
                 "links": ()},
                ("root 3 outside 1..2", UNCOVERED),
                id="root-n-plus-1-without-edges",
            ),
            pytest.param({"blocks": ((0, 2), (3, 4))},
                         ("block label 0 outside 1..6", UNCOVERED), id="block-label-0"),
            pytest.param({"blocks": ((-1, 2), (3, 4))},
                         ("block label -1 outside 1..6", UNCOVERED), id="block-label-minus-1"),
            pytest.param({"blocks": ((1, 2), (3, 7))},
                         ("block label 7 outside 1..6", UNCOVERED), id="block-label-n-plus-1"),
            pytest.param({"links": (0,)}, ("link 0 outside 1..6",), id="link-0"),
            pytest.param({"links": (-1,)}, ("link -1 outside 1..6",), id="link-minus-1"),
            pytest.param({"links": (7,)}, ("link 7 outside 1..6",), id="link-n-plus-1"),
            pytest.param({"blocks": ((1, 2), (2, 3))}, ("blocks are not disjoint",),
                         id="label-in-two-blocks"),
            pytest.param({"blocks": ((1, 1), (3, 4))}, ("blocks are not disjoint",),
                         id="label-twice-in-a-block"),
            pytest.param({"blocks": ((1, 2), (3, 5))},
                         ("a root label appears inside a block",), id="root-inside-a-block"),
            pytest.param({"blocks": ((1, 2, 3), (4,))},
                         ("block [1, 2, 3]: has 3 labels, expected 2",
                          "block [4]: has 1 labels, expected 2"), id="wrong-block-size"),
            pytest.param({"blocks": ((1, 2),)}, ("expected 2 blocks, found 1", UNCOVERED),
                         id="one-block-too-few"),
            pytest.param({"blocks": ((1, 2), (3, 4), (7, 8))},
                         ("expected 2 blocks, found 3", "block label 7 outside 1..6",
                          "block label 8 outside 1..6"), id="one-block-too-many"),
            pytest.param({"links": ()}, ("expected 1 links, found 0",), id="one-link-too-few"),
            pytest.param({"links": (3, 3)}, ("expected 1 links, found 2",),
                         id="one-link-too-many"),
            pytest.param({"final_root": 1}, ("final root 1 is not a root",),
                         id="final-root-not-a-root"),
            pytest.param({"final_root": None}, ("final root is required when s>=1",),
                         id="final-root-missing"),
            pytest.param({"roots": (5, 5), "final_root": 5},
                         ("repeated root label", UNCOVERED), id="duplicate-roots"),
            pytest.param({"roots": (5, 5, 6)},
                         ("expected 2 roots, found 3", "repeated root label"),
                         id="one-root-too-many"),
            pytest.param({"roots": (5,)}, ("expected 2 roots, found 1", UNCOVERED),
                         id="one-root-too-few"),
            pytest.param(
                {"s": 0, "k": 1, "roots": (1, 2), "final_root": 0, "blocks": (),
                 "links": ()},
                ("final root must be absent when s=0",),
                id="final-root-0-without-edges",
            ),
        ],
    )
    def test_named_malformed_code(self, changes, violations):
        code = _named_code(**changes)
        assert validate_code(code).violations == violations
        assert not assert_decode_agrees_with_validate(code)

    @pytest.mark.parametrize("call", [decode_code, rank_code], ids=lambda f: f.__name__)
    def test_memory_follows_the_document_not_the_declared_size(self, call):
        # b = 10**6 declares a million labels; the document holds two
        code = ForestCode(ForestShape(b=10**6, s=1, k=0), (1,), 1, ((2,),), ())
        tracemalloc.start()
        try:
            with pytest.raises(InvalidStructureError) as info:
                call(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = validate_code(code)
        assert str(info.value) == "invalid code: " + "; ".join(report.violations)
        assert peak < 4 * 2**20


class TestPurity:
    """No function writes to the values it is given."""

    @staticmethod
    def assert_unchanged(call, value):
        before = dict(vars(value))
        try:
            call(value)
        except InvalidStructureError:
            pass
        assert vars(value) == before

    @pytest.mark.parametrize("call", [validate_forest, encode_forest, leaf_blocks])
    def test_forest_functions(self, call, worked_forest):
        broken = RootedForest(n=22, b=3, edges=WORKED_EDGES, roots=(5, 9, 16))
        for forest in (worked_forest, broken):
            self.assert_unchanged(call, forest)

    def test_decode(self, worked_code):
        broken = dataclasses.replace(worked_code, links=WORKED_LINKS[:7])
        for code in (worked_code, broken):
            self.assert_unchanged(decode_code, code)

    def test_forests_from_decode_are_plain_values(self, worked_code, worked_forest):
        assert vars(decode_code(worked_code)) == vars(worked_forest)
