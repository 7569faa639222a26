"""Ranking, unranking, uniform sampling, and unique-ID streams for codes.

Every code of a shape gets a distinct index in 0..count-1 through a mixed
radix over the code's four parts, most significant first:

1. the roots, as the lexicographic rank of a (k+1)-combination of 1..n,
2. the final root, as its position within the ascending roots,
3. the block partition, ranked by repeatedly taking the block holding the
   smallest unassigned label and ranking its remaining b-2 members in the
   combinatorial number system over the unassigned pool,
4. the links, read as an s-1 digit base-n numeral, most significant first.

For s = 0 the final root, partition, and links all contribute radix 1.

Sampling contract: draws are generated by CPython's Mersenne Twister
(random.Random) seeded directly with the 64-bit seed.  Uniform integers
come from rejection sampling on getrandbits, and shuffles are an explicit
Fisher-Yates over descending positions, both implemented here so the draw
sequence is pinned by this package rather than by stdlib helper internals.
The draw order per sample is: the k+1 roots by partial Fisher-Yates
selection over 1..n, the final root's position, a full shuffle of the
non-root labels (chunked into consecutive blocks of b-1), then each link
uniformly on 1..n.  Each block partition arises from exactly
s! * ((b-1)!)^s shuffle outcomes, so the decoded forest is uniform.
"""

from __future__ import annotations

import random
from math import comb, prod

from .codec import Block, ForestCode, ForestShape, decode_code, ensure_valid_code
from .errors import ParameterRangeError
from .forest import RootedForest

_SEED_LIMIT = 1 << 64


def _combination_unrank(index: int, pool: list[int], size: int) -> tuple[int, ...]:
    """The index-th size-subset of pool in lexicographic order."""
    chosen = []
    offset = 0
    remaining = size
    while remaining > 0:
        for position in range(offset, len(pool)):
            below = comb(len(pool) - position - 1, remaining - 1)
            if index < below:
                chosen.append(pool[position])
                offset = position + 1
                remaining -= 1
                break
            index -= below
    return tuple(chosen)


def _combination_rank(members: tuple[int, ...], pool: list[int]) -> int:
    """Lexicographic rank of an ascending subset of an ascending pool."""
    rank = 0
    positions = {v: i for i, v in enumerate(pool)}
    previous = -1
    size = len(members)
    for i, v in enumerate(members):
        c = positions[v]
        for skipped in range(previous + 1, c):
            rank += comb(len(pool) - skipped - 1, size - i - 1)
        previous = c
    return rank


def _partition_radices(pool_size: int, block_size: int) -> list[int]:
    """Per-step choice counts when building a partition block by block."""
    radices = []
    remaining = pool_size
    while remaining > 0:
        radices.append(comb(remaining - 1, block_size - 1))
        remaining -= block_size
    return radices


def _partition_unrank(index: int, pool: tuple[int, ...], block_size: int) -> tuple[Block, ...]:
    """The index-th partition of pool into blocks of block_size, canonical order."""
    radices = _partition_radices(len(pool), block_size)
    suffix = 1
    suffix_products = [1] * len(radices)
    for i in range(len(radices) - 1, -1, -1):
        suffix_products[i] = suffix
        suffix *= radices[i]
    working = list(pool)
    blocks = []
    for i in range(len(radices)):
        digit, index = divmod(index, suffix_products[i])
        first = working.pop(0)
        mates = _combination_unrank(digit, working, block_size - 1)
        mate_set = set(mates)
        working = [v for v in working if v not in mate_set]
        blocks.append((first,) + mates)
    return tuple(blocks)


def _partition_rank(blocks: tuple[Block, ...], pool: tuple[int, ...], block_size: int) -> int:
    """Canonical-order rank of a partition of pool into blocks of block_size."""
    radices = _partition_radices(len(pool), block_size)
    by_first = {blk[0]: blk for blk in blocks}
    working = list(pool)
    rank = 0
    for radix in radices:
        first = working.pop(0)
        blk = by_first[first]
        digit = _combination_rank(blk[1:], working)
        mate_set = set(blk[1:])
        working = [v for v in working if v not in mate_set]
        rank = rank * radix + digit
    return rank


def _code_radices(shape: ForestShape) -> tuple[int, int, int, int]:
    """Radices of the four code parts: roots, final root, partition, links.

    For s = 0 the last three are 1.
    """
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    roots = comb(n, k + 1)
    if s == 0:
        return roots, 1, 1, 1
    partitions = 1
    for radix in _partition_radices(n - k - 1, b - 1):
        partitions *= radix
    return roots, k + 1, partitions, n ** (s - 1)


def code_space_size(shape: ForestShape) -> int:
    """Number of codes of the shape: the product of the four radices.

    Always equals count_forests(b, s, k); computed from the radices here so
    tests can compare the two routes.
    """
    return prod(_code_radices(shape))


def unrank_code(index: int, shape: ForestShape) -> ForestCode:
    """The index-th code of the shape in canonical order."""
    radices = _code_radices(shape)
    total = prod(radices)
    if index < 0 or index >= total:
        raise ParameterRangeError(
            f"index {index} outside 0..{total - 1} for shape "
            f"(b={shape.b}, s={shape.s}, k={shape.k})"
        )
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    labels = list(range(1, n + 1))

    if s == 0:
        roots = _combination_unrank(index, labels, k + 1)
        return ForestCode(shape, roots, None, (), ())

    _, final_total, partition_total, link_total = radices
    root_index, rest = divmod(index, final_total * partition_total * link_total)
    final_index, rest = divmod(rest, partition_total * link_total)
    partition_index, link_index = divmod(rest, link_total)

    roots = _combination_unrank(root_index, labels, k + 1)
    final_root = roots[final_index]
    root_set = set(roots)
    pool = tuple(v for v in labels if v not in root_set)
    blocks = _partition_unrank(partition_index, pool, b - 1)
    digits = []
    for _ in range(s - 1):
        link_index, digit = divmod(link_index, n)
        digits.append(digit + 1)
    links = tuple(reversed(digits))
    return ForestCode(shape, roots, final_root, blocks, links)


def rank_code(code: ForestCode) -> int:
    """Canonical-order index of a valid code; inverse of unrank_code."""
    ensure_valid_code(code)
    shape = code.shape
    b, s, n = shape.b, shape.s, shape.n
    labels = list(range(1, n + 1))
    root_index = _combination_rank(code.roots, labels)
    if s == 0:
        return root_index

    final_index = code.roots.index(code.final_root)
    root_set = set(code.roots)
    pool = tuple(v for v in labels if v not in root_set)
    partition_index = _partition_rank(code.blocks, pool, b - 1)
    link_index = 0
    for v in code.links:
        link_index = link_index * n + (v - 1)

    _, final_total, partition_total, link_total = _code_radices(shape)
    rank = root_index
    rank = rank * final_total + final_index
    rank = rank * partition_total + partition_index
    rank = rank * link_total + link_index
    return rank


def _check_seed(seed: int) -> int:
    if seed < 0 or seed >= _SEED_LIMIT:
        raise ParameterRangeError(f"seed {seed} outside 0..2^64-1")
    return seed


def _uniform_below(rng: random.Random, bound: int) -> int:
    """Uniform integer in 0..bound-1 by rejection on getrandbits."""
    bits = bound.bit_length()
    while True:
        value = rng.getrandbits(bits)
        if value < bound:
            return value


def _shuffle(rng: random.Random, values: list[int]) -> None:
    """Fisher-Yates, descending positions."""
    for i in range(len(values) - 1, 0, -1):
        j = _uniform_below(rng, i + 1)
        values[i], values[j] = values[j], values[i]


def sample_code(shape: ForestShape, seed: int) -> ForestCode:
    """Draw a uniformly random code of the shape, deterministic in the seed."""
    _check_seed(seed)
    rng = random.Random(seed)
    return _draw_code(shape, rng)


def _draw_code(shape: ForestShape, rng: random.Random) -> ForestCode:
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    labels = list(range(1, n + 1))
    for i in range(k + 1):
        j = i + _uniform_below(rng, n - i)
        labels[i], labels[j] = labels[j], labels[i]
    roots = tuple(sorted(labels[: k + 1]))
    if s == 0:
        return ForestCode(shape, roots, None, (), ())
    final_root = roots[_uniform_below(rng, k + 1)]
    pool = sorted(labels[k + 1 :])
    _shuffle(rng, pool)
    blocks = tuple(
        tuple(pool[i * (b - 1) : (i + 1) * (b - 1)]) for i in range(s)
    )
    links = tuple(1 + _uniform_below(rng, n) for _ in range(s - 1))
    return ForestCode(shape, roots, final_root, blocks, links)


def sample_forest(shape: ForestShape, seed: int) -> RootedForest:
    """Draw a uniformly random forest of the shape, deterministic in the seed.

    Uniform because the code parts are drawn uniformly and independently and
    the decoder is a bijection onto the forests of the shape.
    """
    return decode_code(sample_code(shape, seed))


def sample_forests(shape: ForestShape, seed: int, m: int) -> list[RootedForest]:
    """m successive uniform draws from a single stream seeded once.

    The whole sequence is deterministic in the seed; sample_forest(shape, s)
    equals the first entry of sample_forests(shape, s, m).
    """
    _check_seed(seed)
    if m < 0:
        raise ParameterRangeError(f"draw count m={m} must be at least 0")
    rng = random.Random(seed)
    return [decode_code(_draw_code(shape, rng)) for _ in range(m)]


def generate_ids(shape: ForestShape, m: int) -> list[ForestCode]:
    """The first m codes of the shape in canonical order.

    Distinct by construction, with no repetition check needed; decoding them
    yields m distinct forests, usable as structured unique identifiers.
    """
    if m < 0:
        raise ParameterRangeError(f"id count m={m} must be at least 0")
    total = code_space_size(shape)
    if m > total:
        raise ParameterRangeError(
            f"requested {m} ids but the shape has only {total} codes"
        )
    return [unrank_code(i, shape) for i in range(m)]
