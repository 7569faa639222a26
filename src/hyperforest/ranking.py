"""Ranking, unranking, uniform sampling, and unique-ID streams for codes.

Every code of a shape gets a distinct index in 0..count-1: the code read as
one mixed-radix numeral.  Its digits, most significant first, are

1. the roots, as the lexicographic rank of a (k+1)-combination of 1..n
   (radix comb(n, k+1));
2. the final root, as its position within the ascending roots (radix k+1);
3. one digit per block of the partition, in canonical order: the block
   holding the smallest of the `left` unassigned labels, its other b-2
   members ranked among the left-1 others (radix comb(left-1, b-2));
4. the s-1 links, each as its label minus one (radix n).

That makes 2s+1 digits, or the roots' digit alone when s = 0.  Combination
digits are closed-form in the combinatorial number system (Knuth, TAOCP 4A
7.2.1.3): positions c_0 < ... < c_{r-1} of a pool of L labels have
lexicographic rank comb(L, r) - 1 - sum_i comb(L-1-c_i, r-i).

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
from bisect import bisect_left
from collections.abc import Iterator
from decimal import Decimal
from math import comb

from .codec import ForestCode, ForestShape, decode_code, ensure_valid_code, product_levels
from .errors import ParameterRangeError
from .forest import RootedForest

_SEED_LIMIT = 1 << 64


def _combination_rank(positions: list[int], pool_size: int) -> int:
    """Lexicographic rank of ascending positions among same-size subsets."""
    size = len(positions)
    return comb(pool_size, size) - 1 - sum(
        comb(pool_size - 1 - c, size - i) for i, c in enumerate(positions)
    )


def _combination_unrank(index: int, pool_size: int, size: int) -> list[int]:
    """Ascending positions of the index-th size-subset of a pool, lexicographic.

    Inverts _combination_rank greedily: with value = comb(pool_size-1-c, r),
    each member is the first position c past the previous one with
    value <= rest.  The position right after a member is tried first, its
    value derived from the member's as comb(m-1, r-1) = comb(m, r)*r/m;
    past it a galloping search and then bisection find the member.
    """
    rest = comb(pool_size, size) - 1 - index
    positions = []
    c, value = -1, rest + 1  # no member yet: search from position 0
    for r in range(size, 0, -1):
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
        value = value * r // max(pool_size - 1 - c, 1)  # m is 0 only at the last member
        c += 1
    return positions


def _levels(shape: ForestShape) -> list[list[int]]:
    """Product tree of the digit radices, most significant first (module docstring)."""
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    radices = [comb(n, k + 1)]
    if s:
        radices.append(k + 1)
        radices += [comb(left - 1, b - 2) for left in range(s * (b - 1), 0, 1 - b)]
        radices += [n] * (s - 1)
    return product_levels(radices)


def code_space_size(shape: ForestShape) -> int:
    """Number of codes of the shape: the product of the digit radices.

    Always equals count_forests(b, s, k); computed from the radices here so
    tests can compare the two routes.  It is the root of the radices'
    product tree, the tree that rank and unrank combine and split along.
    """
    return _levels(shape)[-1][0]


def unrank_code(index: int, shape: ForestShape) -> ForestCode:
    """The index-th code of the shape in canonical order.

    The index is split top-down over the radices' product tree: a node's
    value divided by the product of its right subtree's radices gives the
    left child's value as quotient and the right child's as remainder, so
    every division meets a divisor about half its dividend's size.
    """
    return _unrank(index, shape, _levels(shape))


def _unrank(index: int, shape: ForestShape, levels: list[list[int]]) -> ForestCode:
    """unrank_code over the shape's radix product tree, built by the caller."""
    if not 0 <= index < levels[-1][0]:
        raise ParameterRangeError(
            f"index {Decimal(index)} outside 0..{Decimal(levels[-1][0] - 1)} for shape "
            f"(b={shape.b}, s={shape.s}, k={shape.k})"
        )
    digits = [index]
    for level in reversed(levels[:-1]):
        split = []
        for value, right in zip(digits, level[1::2]):
            split += divmod(value, right) if value else (0, 0)
        if len(level) % 2:
            split.append(digits[-1])
        digits = split
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    roots = tuple(c + 1 for c in _combination_unrank(digits[0], n, k + 1))
    root_set = set(roots)
    working = [v for v in range(1, n + 1) if v not in root_set]
    blocks = []
    for digit in digits[2 : s + 2]:
        first = working.pop(0)
        positions = _combination_unrank(digit, len(working), b - 2)
        blocks.append((first, *(working[c] for c in positions)))
        for c in reversed(positions):
            del working[c]
    links = tuple(digit + 1 for digit in digits[s + 2 :])
    return ForestCode(shape, roots, roots[digits[1]] if s else None, blocks, links)


def rank_code(code: ForestCode) -> int:
    """Canonical-order index of a valid code; inverse of unrank_code.

    The digits are combined bottom-up over the radices' product tree: a
    node's value is its left child's times the right subtree's product plus
    its right child's, so every multiplication meets operands of one size.
    """
    ensure_valid_code(code)
    shape = code.shape
    n = shape.n
    digits = [_combination_rank([v - 1 for v in code.roots], n)]
    if shape.s:
        digits.append(code.roots.index(code.final_root))
    root_set = set(code.roots)
    working = [v for v in range(1, n + 1) if v not in root_set]
    for blk in code.blocks:  # ordered by smallest label: the canonical walk
        del working[0]
        positions = [bisect_left(working, v) for v in blk[1:]]
        digits.append(_combination_rank(positions, len(working)))
        for c in reversed(positions):
            del working[c]
    digits += [v - 1 for v in code.links]
    for level in _levels(shape)[:-1]:
        combined = [
            high * right + low
            for high, low, right in zip(digits[::2], digits[1::2], level[1::2])
        ]
        if len(level) % 2:
            combined.append(digits[-1])
        digits = combined
    return digits[0]


def _check_seed(seed: int) -> None:
    if seed < 0 or seed >= _SEED_LIMIT:
        raise ParameterRangeError(f"seed {seed} outside 0..2^64-1")


def _uniform_below(rng: random.Random, bound: int) -> int:
    """Uniform integer in 0..bound-1 by rejection on getrandbits."""
    bits = bound.bit_length()
    while True:
        value = rng.getrandbits(bits)
        if value < bound:
            return value


def _shuffle(rng: random.Random, values: list[int]) -> None:
    """Fisher-Yates, descending positions.

    Each position is _uniform_below(rng, i + 1), inlined: the same bits and
    the same rejections, so the same draws, with fewer Python calls.
    """
    getrandbits = rng.getrandbits
    for i in range(len(values) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
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
    final_root = roots[_uniform_below(rng, k + 1)] if s else None
    pool = sorted(labels[k + 1 :])
    _shuffle(rng, pool)
    blocks = tuple(
        tuple(pool[i * (b - 1) : (i + 1) * (b - 1)]) for i in range(s)
    )
    # each link is 1 + _uniform_below(rng, n), inlined as in _shuffle
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    links = []
    for _ in range(s - 1):
        link = getrandbits(bits)
        while link >= n:
            link = getrandbits(bits)
        links.append(link + 1)
    return ForestCode(shape, roots, final_root, blocks, tuple(links))


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
    return list(_sample_stream(shape, seed, m))


def _sample_stream(shape: ForestShape, seed: int, m: int) -> Iterator[RootedForest]:
    """sample_forests one forest at a time.  The seed and m are checked on
    the call, before the first draw; each forest is drawn and decoded as it
    is read, so a reader holds one forest at a time."""
    _check_seed(seed)
    if m < 0:
        raise ParameterRangeError(f"draw count m={m} must be at least 0")
    rng = random.Random(seed)
    return (decode_code(_draw_code(shape, rng)) for _ in range(m))


def generate_ids(shape: ForestShape, m: int) -> list[ForestCode]:
    """The first m codes of the shape in canonical order.

    Distinct by construction, with no repetition check needed; decoding them
    yields m distinct forests, usable as structured unique identifiers.
    """
    return list(_id_stream(shape, m))


def _id_stream(shape: ForestShape, m: int) -> Iterator[ForestCode]:
    """generate_ids one code at a time.  m is checked against the code count
    on the call, and the radices' product tree is built once for all m
    unranks; each code is unranked as it is read."""
    if m < 0:
        raise ParameterRangeError(f"id count m={m} must be at least 0")
    levels = _levels(shape)
    total = levels[-1][0]
    if m > total:
        raise ParameterRangeError(
            f"requested {m} ids but the shape has only {total} codes"
        )
    return (_unrank(i, shape, levels) for i in range(m))
