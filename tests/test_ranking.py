"""Tests for ranking, unranking, uniform sampling, and id generation."""

import hashlib
import random
import sys
from itertools import combinations
from math import comb, isqrt

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
from hyperforest.ranking import (
    _draw,
    _icbrt,
    _rank_columns,
    _shuffle,
    _unrank_columns,
)
from conftest import SWEEP_SHAPES, refusal_of

# (b, s, k, past_end, length, sha256 prefix) of the out-of-range refusal
# text, recorded from the digit-by-digit unrank
OUT_OF_RANGE_TEXTS = [
    (3, 2000, 2, False, 13597, "2895ae6424f216ad"),
    (3, 2000, 2, True, 27143, "201f36bb3d149793"),
    (2, 1, 0, False, 47, "0502af0a3b781e9f"),
    (2, 1, 0, True, 46, "075e2aa53d823138"),
]

# small shapes with s in 0..3 whose whole code space can be unranked code by code
ID_SHAPES = [
    shape
    for shape in (ForestShape(b=b, s=s, k=k) for b in (2, 3, 4) for s in range(4) for k in range(3))
    if code_space_size(shape) <= 2500
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

    # the 2s+1 radices pass sys.maxsize entries, or physical memory's pointer
    # slots: the refusal comes before they are listed.  A fresh process with
    # a capped address space, so that listing them fails there, on a
    # MemoryError, and not by filling the test runner's memory
    @pytest.mark.parametrize("s", [sys.maxsize, 2**40], ids=["maxsize", "2^40"])
    def test_refuses_radices_no_list_could_hold(self, s):
        assert refusal_of(f"code_space_size(h.ForestShape(b=2, s={s}, k=0))") == (
            0, "parameters too large to compute\n", ""
        )


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


def _combination_rank(positions: list[int], pool_size: int) -> int:
    """Lexicographic rank of ascending positions among same-size subsets."""
    size = len(positions)
    return comb(pool_size, size) - 1 - sum(
        comb(pool_size - 1 - c, size - i) for i, c in enumerate(positions)
    )


def _combination_unrank(index: int, pool_size: int, size: int) -> list[int]:
    """Ascending positions of the index-th size-subset of a pool, lexicographic.

    Inverts _combination_rank greedily.  With m = pool_size-1-c, each member
    is the first position c past the previous one with comb(m, r) <= rest,
    that is the largest such m; taking it leaves rest < comb(m, r-1), so the
    next member lies further on.

    For r >= 4 a search finds the member: the position right after the
    previous member is tried first, its value derived from the member's as
    comb(m-1, r-1) = comb(m, r)*r/m (m >= r-1 >= 3, so never over zero);
    past it a galloping search and then bisection find the member.

    The last three members are exact integer closed forms.  At r = 3, with
    t = m-1, 6*comb(m, 3) = t^3 - t, so the floor c of the cube root of
    6*rest has t^3 - t <= 6*rest < (c+1)^3, which leaves t = c or c+1:
    m = c+1, or c+2 when comb(c+2, 3) <= rest.  At r = 2, comb(m, 2) <= rest
    is (2m-1)^2 <= 8*rest + 1, and isqrt is the exact floor of a square
    root at any size, so m = (1 + isqrt(1 + 8*rest)) // 2.  At r = 1,
    comb(m, 1) = m, so m = rest.
    """
    rest = comb(pool_size, size) - 1 - index
    positions = []
    c, value = -1, rest + 1  # no member yet: search from position 0
    for r in range(size, 3, -1):
        if value > rest:
            low = high = c + 1
            step = 1
            while (value := comb(pool_size - 1 - high, r)) > rest:
                low, high, step = high + 1, min(high + step, pool_size - r), step * 2
            while low < high:
                middle = (low + high) // 2
                probe = comb(pool_size - 1 - middle, r)
                if probe > rest:
                    low = middle + 1
                else:
                    high, value = middle, probe
            c = high
        rest -= value
        positions.append(c)
        value = value * r // (pool_size - 1 - c)
        c += 1
    if size >= 3:
        m = _icbrt(6 * rest) + 1
        if comb(m + 1, 3) <= rest:
            m += 1
        positions.append(pool_size - 1 - m)
        rest -= comb(m, 3)
    if size >= 2:
        m = (1 + isqrt(1 + 8 * rest)) // 2
        positions.append(pool_size - 1 - m)
        rest -= m * (m - 1) // 2
    if size >= 1:
        positions.append(pool_size - 1 - rest)
    return positions


@st.composite
def combination_columns(draw):
    """(size, pools, indices): one size, and entries with mixed pools from
    size to 10^40 labels, each with an index below its pool's count."""
    size = draw(st.integers(0, 7))
    pool = st.one_of(st.integers(size, size + 12), st.integers(size, 10**40))
    pools = draw(st.lists(pool, min_size=1, max_size=8))
    indices = [
        draw(st.one_of(st.integers(0, comb(p, size) - 1), st.sampled_from([0, comb(p, size) - 1])))
        for p in pools
    ]
    return size, pools, indices


class TestCombinationColumns:
    """The column functions against the one-combination-at-a-time reference
    above, _combination_unrank and _combination_rank, in both directions."""

    # sizes up to 7 search members at r = 7..4 ahead of the three closed forms
    @settings(max_examples=300, deadline=None)
    @given(combination_columns())
    def test_unrank_columns_equal_the_reference(self, drawn):
        size, pools, indices = drawn
        columns = _unrank_columns(indices, pools, size)
        assert len(columns) == size
        expected = [_combination_unrank(i, p, size) for i, p in zip(indices, pools)]
        assert [list(entry) for entry in zip(*columns)] == (expected if size else [])

    @settings(max_examples=300, deadline=None)
    @given(combination_columns())
    def test_rank_columns_equal_the_reference(self, drawn):
        size, pools, indices = drawn
        rows = [_combination_unrank(i, p, size) for i, p in zip(indices, pools)]
        columns = [list(column) for column in zip(*rows)]
        expected = [_combination_rank(row, p) for row, p in zip(rows, pools)]
        assert _rank_columns(columns, pools, size) == expected == indices


class TestCombinationDigit:
    """The combination digit against its definitions: lexicographic order of
    subsets, and _rank_columns as the inverse."""

    def test_unrank_follows_itertools_order(self):
        for pool_size in range(13):
            for size in range(pool_size + 1):
                expected = list(combinations(range(pool_size), size))
                total = comb(pool_size, size)
                columns = _unrank_columns(range(total), [pool_size] * total, size)
                got = list(zip(*columns)) if size else [()] * total
                assert got == expected, (pool_size, size)

    # pools past 2^53, where a float square root would round the closed forms
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_at_huge_pools(self, data):
        size = data.draw(st.integers(0, 5))
        pool_size = data.draw(st.integers(size, 10**40))
        total = comb(pool_size, size)
        drawn = data.draw(st.integers(0, total - 1))
        for index in (0, total - 1, drawn):
            columns = _unrank_columns([index], [pool_size], size)
            positions = [c for (c,) in columns]
            assert len(positions) == size
            assert all(0 <= c < pool_size for c in positions)
            assert positions == sorted(set(positions))
            assert _rank_columns(columns, [pool_size], size) == [index]


class TestIntegerCubeRoot:
    """_icbrt, which seeds the closed-form third combination member, is the
    exact floor of a cube root."""

    def test_floor_on_every_small_integer(self):
        for x in range(10**4 + 1):
            y = _icbrt(x)
            assert y**3 <= x < (y + 1) ** 3, x

    # around each cube, where a root rounded the wrong way would show
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2**200))
    def test_floor_next_to_cubes(self, y):
        assert _icbrt(y**3 - 1) == y - 1
        assert _icbrt(y**3) == y
        assert _icbrt(y**3 + 1) == y


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

    def test_refuses_a_code_no_memory_could_hold(self):
        # n = 2 * 10^17 + 1 label slots pass any physical memory: the refusal
        # comes before the labels are listed
        shape = ForestShape(b=3, s=10**17, k=0)
        for call in (lambda: sample_code(shape, 1), lambda: sample_forests(shape, 1, 1)):
            with pytest.raises(ParameterRangeError, match="^parameters too large to compute$"):
                call()

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

    @settings(max_examples=150, deadline=None)
    @given(
        b=st.integers(2, 6),
        s=st.integers(0, 60),
        k=st.integers(0, 4),
        seed=st.integers(0, (1 << 64) - 1),
        m=st.integers(1, 5),
    )
    def test_stream_decodes_the_codes_it_draws(self, b, s, k, seed, m):
        # the stream replays its raw draws; decoding each draw's canonical
        # code from the same generator must give the same forests
        shape = ForestShape(b=b, s=s, k=k)
        rng = random.Random(seed)
        expected = [decode_code(ForestCode(shape, *_draw(shape, rng))) for _ in range(m)]
        assert sample_forests(shape, seed, m) == expected


def _plain_shuffle(rng: random.Random, values: list[int]) -> None:
    """Fisher-Yates over descending positions, one rejection draw per position."""
    for i in range(len(values) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = rng.getrandbits(bits)
        while j > i:
            j = rng.getrandbits(bits)
        values[i], values[j] = values[j], values[i]


@pytest.mark.parametrize("seed", [0, 20111001, (1 << 64) - 1])
def test_shuffle_matches_a_plain_fisher_yates(seed):
    # lengths past 1024 cross a band boundary of the draws' bit width; equal
    # generator states afterwards mean the same getrandbits calls were made
    ours, plain = random.Random(seed), random.Random(seed)
    for length in range(1101):
        got, expected = list(range(length)), list(range(length))
        _shuffle(ours, got)
        _plain_shuffle(plain, expected)
        assert got == expected, length
        assert ours.getstate() == plain.getstate(), length


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
            # s = 0 replays nothing, and s = 1 replays the final root alone
            (3, 0, 2, 5, [((), (1, 2, 3)), ((), (1, 2, 3))]),
            (3, 1, 1, 7, [(((1, 3, 4),), (2, 3)), (((1, 2, 3),), (1, 4))]),
            (2, 1, 2, 20260816, [(((2, 3),), (1, 3, 4)), (((3, 4),), (1, 2, 4))]),
            # pools of 1030 and 1040 labels, whose shuffles cross 2^10, where
            # the position draws' bit width moves
            (2, 1030, 0, 3, "8051a9adaf1a248c"),
            (3, 520, 3, 11, "d2fab8bae22324ee"),
        ],
    )
    def test_sample_forests(self, b, s, k, seed, draws):
        shape = ForestShape(b=b, s=s, k=k)
        got = [(f.edges, f.roots) for f in sample_forests(shape, seed, 2)]
        if isinstance(draws, str):  # a sha256 prefix of the two draws' repr
            got = hashlib.sha256(repr(got).encode()).hexdigest()[:16]
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
            # b = 4: each block digit is a 2-combination, the closed-form
            # members alone; recorded before those closed forms replaced the search
            (
                4, 50, 2, 17,
                408306691536016510445002098746977087416925662800199605817422997010508399793551359249929867004763548684895821668311310167624474768521920328705923346150103218208548049050922808751383935743055083122890900559317543567141904115193125168325065009370414987426600414779639758415540,
                ["f71397f4e37c903b", "82c7ab803648dda8", "c34f1333e6359c18"],
            ),
            # b = 5 and b = 6: each block digit's third-last member, once
            # searched for; recorded before its closed form replaced the search
            (
                5, 70, 1, 31,
                15120009388149261073726499377112152226050075760993409256129550905751933275876808881046657092349062680895047907256759608505713474010962529673643673803127681849623362468643579051045144817579255916028931718301732166115355138992229920580737362951767440547306425313839704064486264369917008604350802249187651357972932983808401979518803833760139995888004583011195765489772907923639999945899507772872521119829671964026066527488585041815774437091524474692756867155874391756085361950122225390683294054481137655528571582994090992323766166896579542932110,
                ["d7ac9cbb9d6fa6cf", "4dd0935d65f9ff32", "94836318bf49ab9e"],
            ),
            (
                6, 45, 4, 47,
                20353190272487662381524076418497140207424861262892238981738331015950984860667400712894527062017228923809379453524134101170037534388981373424791790542312913347657745147316338887476305091490823280628535331691503809238306340217108227906734499011732483760429686101355425612019259978360948035852291170662185955191497851316550760017046705218558736533913153904019313343062650520975385214985094462087577474,
                ["c885262fd6244188", "6068675c692e2930", "800fb375301af37d"],
            ),
            # b = 7: five members per block digit, the first two searched; and
            # b = 2 at k = 33, a 34-member roots' digit whose first 31 are
            # searched; recorded before the digits were worked as columns
            (
                7, 30, 2, 5,
                13214562114312855064640335677908580682852250370837867107459339831390779946008800524985074494971461684579693693253631052133230872547952797113068020152807984576435648685660273679965778261842781004713086729566510566857086913923186888798766917870684991771769078289727728536488462612555482,
                ["6b92f97b3527a7c7", "3a7c3f5693573f25", "b0bf9add40399f69"],
            ),
            (
                2, 45, 33, 13,
                106992405738996980261490555392197313906193078696795424254564395296801877208813148966992719354014055105524421,
                ["75a59ba78c4e821f", "e792f357a66d4ada", "131ad9e6fe9348fb"],
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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_unrank_up_to_the_whole_space(self, data):
        # s = 0 and s = 1 have no links; past n^(s-1) ids a carry leaves them
        shape = data.draw(st.sampled_from(ID_SHAPES))
        m = data.draw(st.integers(0, code_space_size(shape)))
        assert generate_ids(shape, m) == [unrank_code(i, shape) for i in range(m)]

    def test_zero_ids(self):
        assert generate_ids(ForestShape(b=2, s=2, k=0), 0) == []

    def test_rejects_more_ids_than_codes(self):
        with pytest.raises(ParameterRangeError):
            generate_ids(ForestShape(b=2, s=2, k=0), 10)

    def test_rejects_negative_count(self):
        with pytest.raises(ParameterRangeError):
            generate_ids(ForestShape(b=2, s=2, k=0), -1)

    def test_refuses_a_code_no_list_could_hold(self):
        # n = 10^20 + 2 labels; the code count, n roots' choices times k + 1
        # final roots, is still computed
        shape = ForestShape(b=2, s=1, k=10**20)
        assert code_space_size(shape) == (10**20 + 2) * (10**20 + 1)
        for call in (lambda: generate_ids(shape, 1), lambda: unrank_code(0, shape)):
            with pytest.raises(ParameterRangeError, match="^parameters too large to compute$"):
                call()

    def test_ids_encode_back_to_their_index(self):
        shape = ForestShape(b=2, s=3, k=0)
        for i, code in enumerate(generate_ids(shape, 12)):
            assert rank_code(encode_forest(decode_code(code))) == i
