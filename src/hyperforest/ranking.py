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
lexicographic rank comb(L, r) - 1 - sum_i comb(L-1-c_i, r-i).  The s block
digits are worked as columns, one per member, the roots' as one-entry ones;
unranking searches entry by entry for the members before the last three and
maps the last three's exact closed forms over their columns.  Both
directions walk the non-root labels once with a head index: block j's
smallest label stays at position j, and only its other members are deleted.

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

sample_code puts a draw's parts in a canonical ForestCode.  The forest
stream does not: it hands each draw's raw parts to decode's replay, which
reads blocks in any order.  The draws, and every seed's forests, are
unchanged: each forest is the one its drawn code decodes to.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from itertools import islice, product, repeat
from math import comb, isqrt
from operator import add, floordiv, le, mul, sub

from .codec import ForestCode, ForestShape, _replay, ensure_valid_code, product_levels
from .errors import ParameterRangeError, _ensure_fits, _words
from .forest import RootedForest

_SEED_LIMIT = 1 << 64


def _rank_columns(columns: list[list[int]], pools: Sequence[int], size: int) -> list[int]:
    """Lexicographic rank of each entry j's size-combination of pools[j] labels,
    whose i-th ascending position is columns[i][j]."""
    tops = list(map(sub, pools, repeat(1)))
    ranks = list(map(sub, map(comb, pools, repeat(size)), repeat(1)))
    for r, column in zip(range(size, 0, -1), columns):
        ranks = list(map(sub, ranks, map(comb, map(sub, tops, column), repeat(r))))
    return ranks


def _unrank_columns(indices: list[int], pools: Sequence[int], size: int) -> list[list[int]]:
    """The columns _rank_columns maps to the indices, greedily.  With
    m = pool-1-c, each member is the first position c past the previous one
    with comb(m, r) <= rest, the largest such m; taking it leaves
    rest < comb(m, r-1), so the next member lies further on.

    For r >= 4 a search finds the member, entry by entry: the position right
    after the previous member is tried first, its value derived from the
    member's as comb(m-1, r-1) = comb(m, r)*r/m (m >= r-1 >= 3, so never over
    zero); past it a galloping search and then bisection find the member.

    The last three members are exact integer closed forms, each mapped over
    its whole column.  At r = 3, with t = m-1, 6*comb(m, 3) = t^3 - t, so the
    floor c of the cube root of 6*rest has t^3 - t <= 6*rest < (c+1)^3, which
    leaves t = c or c+1: m = c+1, or c+2 when comb(c+2, 3) <= rest.  At r = 2,
    comb(m, 2) <= rest is (2m-1)^2 <= 8*rest + 1, and isqrt is the exact floor
    of a square root at any size, so m = (1 + isqrt(1 + 8*rest)) // 2.  At
    r = 1, comb(m, 1) = m, so m = rest.
    """
    tops = list(map(sub, pools, repeat(1)))
    rests = list(map(sub, map(sub, map(comb, pools, repeat(size)), repeat(1)), indices))
    columns: list[list[int]] = [[] for _ in range(size - 3)]
    for j, (top, rest) in enumerate(zip(tops, rests) if size > 3 else ()):
        c, value = -1, rest + 1  # no member yet: search from position 0
        for r, column in zip(range(size, 3, -1), columns):
            if value > rest:
                low = high = c + 1
                step = 1
                while (value := comb(top - high, r)) > rest:
                    low, high, step = high + 1, min(high + step, top + 1 - r), step * 2
                while low < high:
                    middle = (low + high) // 2
                    probe = comb(top - middle, r)
                    if probe > rest:
                        low = middle + 1
                    else:
                        high, value = middle, probe
                c = high
            rest -= value
            column.append(c)
            value = value * r // (top - c)
            c += 1
        rests[j] = rest
    if size >= 3:
        floors = list(map(_icbrt, map(mul, rests, repeat(6))))
        above = map(le, map(comb, map(add, floors, repeat(2)), repeat(3)), rests)
        ms = list(map(add, map(add, floors, repeat(1)), above))
        columns.append(list(map(sub, tops, ms)))
        rests = list(map(sub, rests, map(comb, ms, repeat(3))))
    if size >= 2:
        sqrts = map(isqrt, map(add, map(mul, rests, repeat(8)), repeat(1)))
        ms = list(map(floordiv, map(add, sqrts, repeat(1)), repeat(2)))
        columns.append(list(map(sub, tops, ms)))
        rests = list(map(sub, rests, map(comb, ms, repeat(2))))
    if size >= 1:
        columns.append(list(map(sub, tops, rests)))
    return columns


def _icbrt(x: int) -> int:
    """Floor of the cube root of x >= 0, exact at any size.

    Newton's step y -> (2y + x // y^2) // 3 never falls below the floor
    (the arithmetic-geometric mean inequality, and floors keep it), and
    from any y above the floor it goes strictly down, since then y^3 > x.
    So from a power of two above the root the steps fall to the floor and
    stop there.
    """
    if not x:
        return 0
    y = 1 << -(-x.bit_length() // 3)
    while True:
        z = (2 * y + x // (y * y)) // 3
        if z >= y:
            return y
        y = z


def _levels(shape: ForestShape) -> list[list[int]]:
    """Product tree of the digit radices, most significant first (module docstring)."""
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    radices = [comb(n, k + 1)]
    if s:
        radices.append(k + 1)
        radices += map(comb, _block_pools(b, s), repeat(b - 2))
        radices += [n] * (s - 1)
    return product_levels(radices)


def _block_pools(b: int, s: int) -> range:
    """Each block digit's pool size, left-1 for the left unassigned labels."""
    return range(s * (b - 1) - 1, -1, 1 - b)


def code_space_size(shape: ForestShape) -> int:
    """Number of codes of the shape: the product of the digit radices.

    Always equals count_forests(b, s, k); computed from the radices here so
    tests can compare the two routes.  It is the root of the radices'
    product tree, the tree that rank and unrank combine and split along.
    """
    _ensure_fits(8 * (2 * shape.s + 1))  # a list of the radices: 8-byte slots
    return _levels(shape)[-1][0]


def unrank_code(index: int, shape: ForestShape) -> ForestCode:
    """The index-th code of the shape in canonical order.

    The index is split top-down over the radices' product tree: a node's
    value divided by the product of its right subtree's radices gives the
    left child's value as quotient and the right child's as remainder, so
    every division meets a divisor about half its dividend's size.
    """
    _ensure_fits(8 * shape.n)  # a list of the n labels: 8-byte slots
    return _unrank(index, shape, _levels(shape))


def _unrank(index: int, shape: ForestShape, levels: list[list[int]]) -> ForestCode:
    """unrank_code over the shape's radix product tree, built by the caller."""
    if not 0 <= index < levels[-1][0]:
        raise ParameterRangeError(
            f"index {_words(index)} outside 0..{_words(levels[-1][0] - 1)} for shape "
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
    roots = tuple(column[0] + 1 for column in _unrank_columns(digits[:1], [n], k + 1))
    root_set = set(roots)
    working = [v for v in range(1, n + 1) if v not in root_set]
    blocks = []
    columns = _unrank_columns(digits[2 : s + 2], _block_pools(b, s), b - 2)
    # block j's head is working[j] (no columns at b = 2: a block is its head)
    for start, positions in enumerate(zip(*columns) if columns else repeat((), s), 1):
        blocks.append((working[start - 1], *[working[start + c] for c in positions]))
        for c in reversed(positions):
            del working[start + c]
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
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    digits = _rank_columns([[v - 1] for v in code.roots], [n], k + 1)
    if s:
        digits.append(code.roots.index(code.final_root))
    root_set = set(code.roots)
    working = [v for v in range(1, n + 1) if v not in root_set]
    found = []
    # blocks come by smallest label, the canonical walk: block j's is working[j]
    for start, blk in enumerate(code.blocks, 1):
        found.append([bisect_left(working, v, start) for v in blk[1:]])
        for c in reversed(found[-1]):
            del working[c]
    columns = [list(map(sub, column, range(1, s + 1))) for column in zip(*found)]
    digits += _rank_columns(columns, _block_pools(b, s), b - 2)
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


def _rng(seed: int) -> random.Random:
    if seed < 0 or seed >= _SEED_LIMIT:
        raise ParameterRangeError(f"seed {_words(seed)} outside 0..2^64-1")
    return random.Random(seed)


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
    the same rejections, so the same draws, with fewer Python calls.  The
    positions are walked one band at a time, the band of the i sharing
    (i + 1).bit_length(), so that width is worked out once per band; the
    getrandbits calls, and their order, are those of a per-position walk.
    """
    getrandbits = rng.getrandbits
    top = len(values) - 1
    for bits in range(len(values).bit_length(), 1, -1):
        low = (1 << (bits - 1)) - 1  # the smallest i with (i + 1).bit_length() == bits
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            values[i], values[j] = values[j], values[i]
        top = low - 1


def sample_code(shape: ForestShape, seed: int) -> ForestCode:
    """Draw a uniformly random code of the shape, deterministic in the seed."""
    _ensure_fits(8 * shape.n)
    return ForestCode(shape, *_draw(shape, _rng(seed)))


def _draw(
    shape: ForestShape, rng: random.Random
) -> tuple[tuple[int, ...], int | None, list[tuple[int, ...]], list[int]]:
    """One draw's raw parts: the sorted roots, the final root, the shuffled
    pool's consecutive chunks of b-1 as blocks, and the links.  The blocks
    are in draw order and unsorted; ForestCode or _replay reads them."""
    b, s, k, n = shape.b, shape.s, shape.k, shape.n
    labels = list(range(1, n + 1))
    for i in range(k + 1):
        j = i + _uniform_below(rng, n - i)
        labels[i], labels[j] = labels[j], labels[i]
    roots = tuple(sorted(labels[: k + 1]))
    final_root = roots[_uniform_below(rng, k + 1)] if s else None
    pool = sorted(labels[k + 1 :])
    _shuffle(rng, pool)
    blocks = list(zip(*[iter(pool)] * (b - 1)))
    # each link is 1 + _uniform_below(rng, n), inlined as in _shuffle
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    links = []
    for _ in range(s - 1):
        link = getrandbits(bits)
        while link >= n:
            link = getrandbits(bits)
        links.append(link + 1)
    return roots, final_root, blocks, links


def sample_forest(shape: ForestShape, seed: int) -> RootedForest:
    """Draw a uniformly random forest of the shape, deterministic in the seed.

    Uniform because the code parts are drawn uniformly and independently and
    the decoder is a bijection onto the forests of the shape.  It is the
    first forest of the seed's stream.
    """
    return next(_sample_stream(shape, seed, 1))


def sample_forests(shape: ForestShape, seed: int, m: int) -> list[RootedForest]:
    """m successive uniform draws from a single stream seeded once.

    The whole sequence is deterministic in the seed; sample_forest(shape, s)
    equals the first entry of sample_forests(shape, s, m).
    """
    return list(_sample_stream(shape, seed, m))


def _sample_stream(shape: ForestShape, seed: int, m: int) -> Iterator[RootedForest]:
    """sample_forests one forest at a time.  The seed and m are checked on
    the call, before the first draw; each forest is drawn and decoded as it
    is read, so a reader holds one forest at a time.

    Each draw's parts go straight to decode's replay, with no code built in
    between: the stream made them, so they are valid by construction and
    the replay refuses none."""
    rng = _rng(seed)
    if m < 0:
        raise ParameterRangeError(f"draw count m={_words(m)} must be at least 0")
    _ensure_fits(8 * shape.n)
    n, b, s = shape.n, shape.b, shape.s

    def forests() -> Iterator[RootedForest]:
        for _ in range(m):
            roots, final_root, blocks, links = _draw(shape, rng)
            edges = _replay(n, s, roots, final_root, blocks, links)
            yield RootedForest(n=n, b=b, edges=edges, roots=roots)

    return forests()


def generate_ids(shape: ForestShape, m: int) -> list[ForestCode]:
    """The first m codes of the shape in canonical order.

    Distinct by construction, with no repetition check needed; decoding them
    yields m distinct forests, usable as structured unique identifiers.
    """
    return [
        ForestCode(shape, code.roots, code.final_root, code.blocks, links)
        for code, links in _id_stream(shape, m)
    ]


def _id_stream(
    shape: ForestShape, m: int
) -> Iterator[tuple[ForestCode, tuple[int, ...]]]:
    """generate_ids one step at a time, as parts: the code last unranked and
    the links of this one.  m is checked against the code count on the call,
    before the first step; each step is made as it is read.

    The s-1 links are the numeral's last digits, so code i+1 is code i with
    its link numeral stepped by one in base n: the links run through
    itertools.product of 1..n in order, and the roots, final root and
    blocks stay.  Only the first code, and a code reached by a carry out of
    the first link, is unranked over the radices' product tree.  A step
    builds no code: generate_ids puts each in a ForestCode, and the CLI
    encodes an unranked code's head once and prints each step's links
    after it.
    """
    if m < 0:
        raise ParameterRangeError(f"id count m={_words(m)} must be at least 0")
    _ensure_fits(8 * shape.n)
    levels = _levels(shape)
    total = levels[-1][0]
    if m > total:
        raise ParameterRangeError(
            f"requested {_words(m)} ids but the shape has only {_words(total)} codes"
        )
    return _odometer(shape, levels, m)


def _odometer(
    shape: ForestShape, levels: list[list[int]], m: int
) -> Iterator[tuple[ForestCode, tuple[int, ...]]]:
    """The first m steps of _id_stream.  An unranked code's links are all
    ones, so its steps are the link tuples in order, up to the carry that
    leaves the links and unranks the next code."""
    labels, width, i = range(1, shape.n + 1), max(shape.s - 1, 0), 0
    while i < m:
        code = _unrank(i, shape, levels)
        for links in islice(product(labels, repeat=width), m - i):
            i += 1
            yield code, links
