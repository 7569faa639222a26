"""Exact big-integer arithmetic for the code-space numeral and the counts."""

from itertools import compress, repeat
from operator import and_, rshift


def product_levels(factors: list[int]) -> list[list[int]]:
    """Levels of a balanced product tree over non-empty factors, leaves first:
    each the pairwise products of the one below, an odd last entry moving up
    as it is, up to [product].  Each big product then meets an operand of its
    own size, where a running product is quadratic (Bernstein, "Fast
    multiplication and its applications", 2008)."""
    levels = [factors]
    while len(factors) > 1:
        pairs = [x * y for x, y in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            pairs.append(factors[-1])
        factors = pairs
        levels.append(factors)
    return levels


def _split(index: int, levels: list[list[int]]) -> list[int]:
    """The digits of index in the radices levels[0], most significant first,
    top-down: a node's value divided by its right subtree's product gives the
    left child's value as quotient and the right child's as remainder, so
    every division meets a divisor about half its dividend's size."""
    digits = [index]
    for level in reversed(levels[:-1]):
        split = []
        for value, right in zip(digits, level[1::2]):
            split += divmod(value, right) if value else (0, 0)
        if len(level) % 2:
            split.append(digits[-1])
        digits = split
    return digits


def _combine(digits: list[int], levels: list[list[int]]) -> int:
    """The numeral of the digits in the radices levels[0], bottom-up: a node's
    value is its left child's times its right subtree's product plus its
    right child's, so every multiplication meets operands of one size."""
    for level in levels[:-1]:
        combined = [
            high * right + low
            for high, low, right in zip(digits[::2], digits[1::2], level[1::2])
        ]
        if len(level) % 2:
            combined.append(digits[-1])
        digits = combined
    return digits[0]


def _power_product(primes: list[int], exponents: list[int]) -> int:
    """The product of each prime to its exponent >= 0, by squaring over the
    exponents' bits from the top: square, then multiply in the product tree of
    the primes with that bit set (Borwein, J. Algorithms 6, 1985).  Each bit's
    primes are picked from those whose exponents reach it: most are small."""
    layers = []
    while exponents:
        layers.append(list(compress(primes, map(and_, exponents, repeat(1)))))
        exponents = list(map(rshift, exponents, repeat(1)))
        primes = list(compress(primes, exponents))
        exponents = list(filter(None, exponents))
    result = 1
    for chosen in reversed(layers):
        result *= result
        if chosen:
            result *= product_levels(chosen)[-1][0]
    return result
