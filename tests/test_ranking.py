"""Tests for ranking, unranking, uniform sampling, and id generation."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperforest import (
    ForestCode,
    ForestShape,
    ParameterRangeError,
    code_space_size,
    count_forests,
    decode_code,
    encode_forest,
    enumerate_code_space,
    generate_ids,
    rank_code,
    sample_code,
    sample_forest,
    sample_forests,
    unrank_code,
    validate_code,
    validate_forest,
)
from conftest import SWEEP_SHAPES

# (b, s, k, past_end, length, sha256 prefix) of the out-of-range refusal
# text, recorded from the digit-by-digit unrank
OUT_OF_RANGE_TEXTS = [
    (3, 2000, 2, False, 13597, "2895ae6424f216ad"),
    (3, 2000, 2, True, 27143, "201f36bb3d149793"),
    (2, 1, 0, False, 47, "0502af0a3b781e9f"),
    (2, 1, 0, True, 46, "075e2aa53d823138"),
]


class TestCodeSpaceSize:
    def test_matches_forest_count_on_grid(self):
        for b in range(2, 6):
            for s in range(0, 7):
                for k in range(0, 4):
                    shape = ForestShape(b=b, s=s, k=k)
                    assert code_space_size(shape) == count_forests(b, s, k)

    def test_empty_shape_has_one_code(self):
        assert code_space_size(ForestShape(b=3, s=0, k=2)) == 1


class TestUnrank:
    def test_first_and_last_of_a_small_space(self):
        shape = ForestShape(b=2, s=2, k=0)
        first = unrank_code(0, shape)
        assert first.roots == (1,)
        assert first.final_root == 1
        assert first.blocks == ((2,), (3,))
        assert first.links == (1,)
        last = unrank_code(8, shape)
        assert last.roots == (3,)
        assert last.final_root == 3
        assert last.blocks == ((1,), (2,))
        assert last.links == (3,)

    def test_agrees_with_enumeration_order(self):
        # (5, 2, 0): partition digits with 3 mates; (2, 2, 3): 4 roots
        for b, s, k in [(2, 2, 0), (2, 3, 1), (3, 2, 0), (4, 2, 1), (5, 2, 0), (2, 2, 3)]:
            shape = ForestShape(b=b, s=s, k=k)
            for i, code in enumerate(enumerate_code_space(b, s, k)):
                assert unrank_code(i, shape) == code

    def test_all_outputs_valid(self):
        shape = ForestShape(b=3, s=2, k=1)
        for i in range(code_space_size(shape)):
            assert validate_code(unrank_code(i, shape)).valid

    @pytest.mark.parametrize("index", [-1, 9, 100])
    def test_rejects_out_of_range_index(self, index):
        with pytest.raises(ParameterRangeError):
            unrank_code(index, ForestShape(b=2, s=2, k=0))

    @pytest.mark.parametrize("b,s,k,past_end,length,digest", OUT_OF_RANGE_TEXTS)
    def test_out_of_range_text_is_pinned(self, b, s, k, past_end, length, digest):
        # texts recorded from the digit-by-digit unrank; the index -1 and
        # the code count print in full, so the decimal limit is lifted
        shape = ForestShape(b=b, s=s, k=k)
        total = code_space_size(shape)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ParameterRangeError) as info:
                unrank_code(total if past_end else -1, shape)
            text = str(info.value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert text.endswith(f" for shape (b={b}, s={s}, k={k})")
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()[:16]) == (length, digest)

    @pytest.mark.parametrize("b,s,k,past_end,length,digest", OUT_OF_RANGE_TEXTS)
    def test_out_of_range_text_needs_no_decimal_limit(self, b, s, k, past_end, length, digest):
        # the same texts under the default int_max_str_digits, which the
        # (3, 2000, 2) code count and its index past the end both exceed
        shape = ForestShape(b=b, s=s, k=k)
        index = code_space_size(shape) if past_end else -1
        with pytest.raises(ParameterRangeError) as info:
            unrank_code(index, shape)
        text = str(info.value)
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()[:16]) == (length, digest)


class TestRank:
    def test_inverts_unrank_exhaustively(self):
        shape = ForestShape(b=2, s=2, k=0)
        assert [rank_code(unrank_code(i, shape)) for i in range(9)] == list(range(9))

    @pytest.mark.parametrize("b,s,k", SWEEP_SHAPES)
    def test_round_trips_across_sweep_shapes(self, b, s, k):
        shape = ForestShape(b=b, s=s, k=k)
        size = code_space_size(shape)
        stride = max(1, size // 50)
        for i in range(0, size, stride):
            assert rank_code(unrank_code(i, shape)) == i

    def test_worked_example_round_trips(self, worked_code, worked_forest):
        index = rank_code(worked_code)
        assert 0 <= index < code_space_size(worked_code.shape)
        again = unrank_code(index, worked_code.shape)
        assert again == worked_code
        assert decode_code(again) == worked_forest

    def test_rejects_invalid_code(self):
        from hyperforest import InvalidStructureError

        bad = ForestCode(
            shape=ForestShape(b=2, s=2, k=0),
            roots=(1,),
            final_root=1,
            blocks=((2,), (2,)),
            links=(1,),
        )
        with pytest.raises(InvalidStructureError):
            rank_code(bad)

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(min_value=0))
    def test_probes_a_large_space(self, index):
        shape = ForestShape(b=3, s=9, k=3)
        index %= code_space_size(shape)
        assert rank_code(unrank_code(index, shape)) == index


class TestSampling:
    def test_same_seed_reproduces(self):
        shape = ForestShape(b=3, s=4, k=1)
        assert sample_code(shape, 12345) == sample_code(shape, 12345)
        assert sample_forest(shape, 12345) == sample_forest(shape, 12345)

    def test_different_seeds_usually_differ(self):
        shape = ForestShape(b=3, s=4, k=1)
        draws = {sample_code(shape, seed) for seed in range(40)}
        assert len(draws) > 30

    def test_draws_are_valid(self):
        for b, s, k in [(2, 5, 0), (3, 3, 2), (5, 2, 0), (2, 0, 3)]:
            shape = ForestShape(b=b, s=s, k=k)
            for seed in range(5):
                forest = sample_forest(shape, seed)
                assert validate_forest(forest).valid
                assert (forest.s, forest.k) == (s, k)

    def test_sequence_extends_single_draw(self):
        shape = ForestShape(b=2, s=3, k=1)
        batch = sample_forests(shape, 777, 4)
        assert type(batch) is list
        assert len(batch) == 4
        assert batch[0] == sample_forest(shape, 777)
        assert batch == sample_forests(shape, 777, 4)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ParameterRangeError):
            sample_code(ForestShape(b=2, s=2, k=0), seed)

    def test_seed_boundaries_accepted(self):
        shape = ForestShape(b=2, s=2, k=0)
        assert validate_code(sample_code(shape, 0)).valid
        assert validate_code(sample_code(shape, (1 << 64) - 1)).valid

    def test_small_space_eventually_hits_every_forest(self):
        shape = ForestShape(b=2, s=2, k=0)
        seen = {sample_forest(shape, seed) for seed in range(200)}
        assert len(seen) == 9


class TestGoldenDraws:
    """Pinned draws: the sampling contract fixes the stream for every seed,
    so these values change only if the contract does."""

    @pytest.mark.parametrize(
        "b,s,k,seed,roots,final_root,blocks,links",
        [
            (3, 4, 1, 0, (7, 8), 7, ((1, 9), (2, 3), (4, 6), (5, 10)), (10, 4, 9)),
            (
                2, 5, 0, (1 << 64) - 1,
                (1,), 1, ((2,), (3,), (4,), (5,), (6,)), (3, 6, 6, 6),
            ),
            (
                4, 3, 2, 20260816,
                (8, 9, 10), 9, ((1, 5, 6), (2, 3, 4), (7, 11, 12)), (8, 6),
            ),
            # n = 16 and n = 17, on either side of a power of two, where the
            # link draws' rejection bound moves
            (
                3, 7, 1, 1,
                (5, 11), 5, ((1, 4), (2, 6), (3, 16), (7, 15), (8, 13), (9, 14), (10, 12)),
                (15, 9, 8, 4, 11, 1),
            ),
            (
                4, 5, 1, 2,
                (2, 4), 2, ((1, 3, 9), (5, 8, 16), (6, 11, 12), (7, 13, 14), (10, 15, 17)),
                (17, 12, 15, 17),
            ),
            # s = 0 returns before the final-root draw, and s = 1 draws no link
            (3, 0, 2, 5, (1, 2, 3), None, (), ()),
            (3, 1, 1, 7, (2, 3), 3, ((1, 4),), ()),
            (2, 1, 2, 20260816, (1, 3, 4), 3, ((2,),), ()),
        ],
    )
    def test_sample_code(self, b, s, k, seed, roots, final_root, blocks, links):
        shape = ForestShape(b=b, s=s, k=k)
        assert sample_code(shape, seed) == ForestCode(
            shape, roots, final_root, blocks, links
        )

    @pytest.mark.parametrize(
        "b,s,k,seed,draws",
        [
            (
                3, 4, 1, 0,
                [
                    (((1, 7, 9), (2, 3, 10), (4, 5, 10), (4, 6, 9)), (7, 8)),
                    (((1, 3, 8), (2, 4, 9), (2, 6, 7), (5, 8, 10)), (3, 6)),
                ],
            ),
            (
                2, 5, 0, (1 << 64) - 1,
                [
                    (((1, 6), (2, 3), (3, 6), (4, 6), (5, 6)), (1,)),
                    (((1, 3), (2, 3), (3, 4), (3, 6), (4, 5)), (1,)),
                ],
            ),
            (
                4, 3, 2, 20260816,
                [
                    (((1, 5, 6, 9), (2, 3, 4, 8), (6, 7, 11, 12)), (8, 9, 10)),
                    (((1, 3, 7, 11), (2, 3, 9, 10), (2, 4, 5, 12)), (1, 6, 8)),
                ],
            ),
        ],
    )
    def test_sample_forests(self, b, s, k, seed, draws):
        shape = ForestShape(b=b, s=s, k=k)
        got = [(f.edges, f.roots) for f in sample_forests(shape, seed, 2)]
        assert got == draws


def _code_digest(code: ForestCode) -> str:
    text = repr((code.roots, code.final_root, code.blocks, code.links))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestGoldenIndexes:
    """Pinned ranks and unranked codes at shapes too large to enumerate,
    recorded before rank and unrank were rewritten as one mixed-radix
    numeral: the canonical order must not move."""

    @pytest.mark.parametrize(
        "b,s,k,seed,rank,digests",
        [
            (
                3, 60, 2, 7,
                559645138437613115228113607127334057448272499948097735613648645175816987447788338665481187940008347449195783740793989850486889859492319234030102721576991536891230644509637649939347674778810878087597308226924295737156551346597068,
                ["d34ed0a97c11a03e", "be6fcb3e3eaaa58f", "721b44230bef67d8"],
            ),
            (
                5, 40, 3, 11,
                987068194086949068934129533664369042171441333446323498224820176832047859730205338277999153053889601286371986772672744855344099747593222997850555862634543617943913676523542127499762944844155819477222827799799447312403997409028666769594344612656016160421075722644783671639641241,
                ["01f8d35d3e45c9bc", "828e1811292c695c", "1b625977cc2bb6f2"],
            ),
            (
                6, 25, 1, 2026,
                1427672934217371470350948761050113937845945225370687034750316547912099575622772051607943796741636109790269506036026348237815064993217115824414901606525060643752630080406098580934818837049,
                ["6b36467dae46b9ff", "19d2c857a02da4f3", "0b258b76817b6454"],
            ),
            (
                2, 60, 50, 99,
                13732407124725344948588446515870086600702991041334610611927056041802534217840903475496084911818939263280314930820963673028582219932889126384032476187803842,
                ["68b2a0397a516bf6", "bbb41b26c1a5496e", "8ddc013f895418ef"],
            ),
        ],
    )
    def test_rank_and_unrank(self, b, s, k, seed, rank, digests):
        shape = ForestShape(b=b, s=s, k=k)
        code = sample_code(shape, seed)
        assert rank_code(code) == rank
        assert unrank_code(rank, shape) == code
        total = code_space_size(shape)
        got = [_code_digest(unrank_code(i, shape)) for i in (0, total - 1, total // 3)]
        assert got == digests


class TestGenerateIds:
    def test_full_space_is_distinct(self):
        shape = ForestShape(b=2, s=2, k=0)
        codes = generate_ids(shape, 9)
        assert len(set(codes)) == 9
        forests = [decode_code(c) for c in codes]
        assert len(set(forests)) == 9
        assert [rank_code(c) for c in codes] == list(range(9))

    def test_prefix_of_the_enumeration(self):
        shape = ForestShape(b=3, s=2, k=0)
        codes = generate_ids(shape, 10)
        assert type(codes) is list
        expected = [unrank_code(i, shape) for i in range(10)]
        assert codes == expected

    @pytest.mark.parametrize("b,s,k,m", [(2, 500, 1, 40), (5, 800, 3, 4), (3, 2000, 2, 4)])
    def test_equals_unrank_at_large_shapes(self, b, s, k, m):
        shape = ForestShape(b=b, s=s, k=k)
        assert generate_ids(shape, m) == [unrank_code(i, shape) for i in range(m)]

    def test_zero_ids(self):
        assert generate_ids(ForestShape(b=2, s=2, k=0), 0) == []

    def test_rejects_more_ids_than_codes(self):
        with pytest.raises(ParameterRangeError):
            generate_ids(ForestShape(b=2, s=2, k=0), 10)

    def test_rejects_negative_count(self):
        with pytest.raises(ParameterRangeError):
            generate_ids(ForestShape(b=2, s=2, k=0), -1)

    def test_ids_encode_back_to_their_index(self):
        shape = ForestShape(b=2, s=3, k=0)
        for i, code in enumerate(generate_ids(shape, 12)):
            assert rank_code(encode_forest(decode_code(code))) == i
