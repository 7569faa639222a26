"""Exact counts of uniform hypertree forests, hypertrees, and hypercycles.

Every function works in exact integer arithmetic; no floating point is
used anywhere in this module.  The forest and hypertree counts are products
of factorials and powers of n, so they are computed from the exponent of
each prime p <= n, all primes' at once as maps over the list of primes, and
multiplied out by _bigint's power product; a negative exponent fails their
integrality assertion.  Both hypercycle forms are one prefactor from the
same prime exponents, times an integer numerator, divided once by 2s; the
count per cycle length is its factorials' quotient from the same prime
exponents, times j*(b-1), halved.  A remainder fails the same assertion.
A count, or a sieve, that memory could not hold is refused before any work
starts.  fractions.Fraction appears only in a failed division's message and
in :func:`cycle_sum_identity`, the one caller of math.factorial.

With n = s*(b-1) + k + 1, forests of k+1 rooted hypertrees with s edges
number (n!/k!) * n^(s-1) / (s! * (b-1)!^s).  A rooted hypertree is a forest
of one tree, so its count is the forest count at k = 0, which equals
(n-1)! * n^s / (s! * (b-1)!^s): Cayley's n^(n-1) at b = 2.

With n = s*(b-1), for connected hypergraphs of excess 0 (hypercycles):

* closed form:  ((b-1) * n! * n^(s-1) / (2 * (b-1)!^s)) * 1 / (s * (s-2)!)
* sum form:     same prefactor times sum over j in 2..s of j / (s^j * (s-j)!)
* by cycle length j:
    C(n, j*(b-1)) * j*(b-1) * ((s-j)*(b-1))! / ((s-j)! * (b-1)!^(s-j))
      * (1/2) * (j*(b-1))! / (b-2)!^j

The closed and sum hypercycle forms agree for every s (their equality is
the identity checked by :func:`cycle_sum_identity`), while the by-length
counts do not sum to either of them in general; see the oracle module's
audit, which reports all three families side by side without reconciling
them.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import compress, repeat
from math import factorial, isqrt
from operator import add, floordiv, lt, mod, mul, not_
from typing import Literal, NamedTuple

from ._bigint import _power_product
from .codec import ForestShape, check_shape
from .errors import InvariantViolation, ParameterRangeError, _ensure_fits, _words

HypercycleForm = Literal["closed", "sum"]


def _as_count(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator (> 0) as a non-negative integer count, exactly."""
    count, remainder = divmod(numerator, denominator)
    if remainder or count < 0:
        problem = "is not an integer" if remainder else "is negative"
        raise InvariantViolation(f"{what} {problem}: {Fraction(numerator, denominator)}")
    return count


def _ensure_holdable(bits: int, factorials: list[tuple[int, int]]) -> None:
    """Refuse a count that memory could not hold, before its primes are sieved.

    The count is at least 2**bits * prod(m! ** weight for m, weight in
    factorials).  With L = m.bit_length(), (m/e)^m <= m! <= m^m puts log2(m!)
    between m*(L-3) and m*L: the low end for a factorial the count
    multiplies by and the high end for one it divides by bound its bits.
    """
    for m, weight in factorials:
        bits += weight * m * (m.bit_length() - (3 if weight > 0 else 0))
    _ensure_fits(bits // 8)


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, for n >= 1, by the sieve of Eratosthenes; refused
    first if memory could not hold its n+1 bytes and the 8-byte slots of
    more than n/log2(n) primes (pi(n) > n/ln(n) for n >= 17)."""
    _ensure_fits(n + 8 * (n // n.bit_length()))
    sieve = bytearray([1])
    sieve *= n + 1  # in place: a failed repeat of a temporary also prints a SystemError
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _factorial_quotient(
    n: int, power: int, factorials: list[tuple[int, int]], what: str
) -> int:
    """n**power * prod(m! ** weight for m, weight in factorials), exactly.

    For n >= 2 and every m <= n, so only primes p <= n occur.  Each prime's
    exponent sums Legendre's formula over the factorials, m // p for every
    prime p <= m at once and then m // p^t for t >= 2, looped only over the
    p <= isqrt(m), and power times its exponent in n.  The smallest prime
    with a negative exponent, a quotient the counts' proofs rule out, raises
    InvariantViolation before _bigint._power_product multiplies the p^e.
    """
    # refused before the sieve: n^power >= 2^((L-1)*power), L = n's bits
    _ensure_holdable(power * (n.bit_length() - 1), factorials)
    primes = _primes_upto(n)
    exponents = [0] * len(primes)
    for m, weight in factorials:
        counts = list(map(floordiv, repeat(m), primes[: bisect_right(primes, m)]))
        for i, p in enumerate(primes[: bisect_right(primes, isqrt(m))]):
            q = counts[i]
            while q >= p:
                q //= p
                counts[i] += q
        exponents[: len(counts)] = map(add, exponents, map(mul, counts, repeat(weight)))
    for i in compress(range(len(primes)), map(not_, map(mod, repeat(n), primes))):
        q = n
        while q % primes[i] == 0:
            q //= primes[i]
            exponents[i] += power
    for p, e in compress(zip(primes, exponents), map(lt, exponents, repeat(0))):
        raise InvariantViolation(f"{what} is not an integer: prime {p} has exponent {e}")
    return _power_product(primes, exponents)


def count_forests(b: int, s: int, k: int) -> int:
    """Number of forests of k+1 labelled rooted b-uniform hypertrees with s edges.

    Evaluates (n!/k!) * n^(s-1) / (s! * (b-1)!^s) on n = s*(b-1) + k + 1
    vertices from its prime exponents.  For s = 0 the only forest is the
    one whose k+1 vertices are all isolated roots, and the formula reduces
    to 1 as well.
    """
    n = ForestShape(b=b, s=s, k=k).n
    if s == 0:
        return 1
    factorials = [(n, 1), (k, -1), (s, -1), (b - 1, -s)]
    return _factorial_quotient(n, s - 1, factorials, f"forest count for b={b}, s={s}, k={k}")


def count_rooted_hypertrees(b: int, s: int) -> int:
    """Number of labelled rooted b-uniform hypertrees with s edges.

    A rooted hypertree is a forest of one tree: count_forests(b, s, 0), that
    is (n-1)! * n^s / (s! * (b-1)!^s) on n = s*(b-1) + 1 vertices.  At b = 2
    this is Cayley's n^(n-1) count of rooted labelled trees.
    """
    check_shape(b, s, min_s=1)
    return count_forests(b, s, 0)


def count_hypercycles(b: int, s: int, form: HypercycleForm = "closed") -> int:
    """Number of labelled b-uniform hypercycles with s edges, two ways.

    A hypercycle is a connected b-uniform hypergraph of excess 0 on
    n = s*(b-1) vertices.  The two forms share the prefactor and differ in
    the factor that multiplies it: 1/(s*(s-2)!) in the closed form,
    sum(j / (s^j * (s-j)!) for j in 2..s) in the sum form.  The two factors
    are computed independently so their agreement stays a meaningful check.
    As n^(s-1) = s^(s-1) * (b-1)^(s-1), a factor's numerator over s^s * s!,
    times the prefactor n! / ((b-2)!^s * s!), is 2s times the count.
    """
    check_shape(b, s, min_s=2)
    n = s * (b - 1)
    # both forms are the closed form's value: (b-1) * n! * n^(s-1) over
    # 2 * (b-1)!^s * s * (s-2)!, with n^(s-1) >= 2^((L-1)*(s-1)), L = n's bits
    _ensure_holdable(
        (s - 1) * (n.bit_length() - 1) - 1 - s.bit_length(), [(n, 1), (b - 1, -s), (s - 2, -1)]
    )
    if form == "closed":
        numerator = (s - 1) * s**s
    elif form == "sum":
        numerator = _cycle_numerator(s)
    else:
        raise ParameterRangeError(f"unknown hypercycle form {form!r}")
    what = f"hypercycle count for b={b}, s={s}, form={form}"
    prefactor = _factorial_quotient(n, 0, [(n, 1), (b - 2, -s), (s, -1)], what)
    return _as_count(prefactor * numerator, 2 * s, what)


def _cycle_numerator(s: int) -> int:
    """sum(j * s!/(s-j)! * s^(s-j) for j in 2..s), by Horner's rule in s:
    the sum form's factor sum(j / (s^j * (s-j)!)) times s^s * s!."""
    total, falling = 0, s
    for j in range(2, s + 1):
        falling *= s - j + 1  # s!/(s-j)!
        total = total * s + j * falling
    return total


def hypercycle_class_count(b: int, s: int, j: int) -> int:
    """Number of labelled b-uniform hypercycles with s edges and cycle length j.

    Evaluates, on n = s*(b-1) vertices,
    C(n, j*(b-1)) * j*(b-1) * ((s-j)*(b-1))! / ((s-j)! * (b-1)!^(s-j))
    times (1/2) * (j*(b-1))! / (b-2)!^j, for 2 <= j <= s.  With m = j*(b-1),
    C(n, m) * m! * (n-m)! = n!, so this is n! / ((s-j)! * (b-1)!^(s-j) *
    (b-2)!^j) from its prime exponents, times j*(b-1), divided once by 2.
    """
    check_shape(b, s, min_s=2)
    if j < 2 or j > s:
        raise ParameterRangeError(f"cycle length j={_words(j)} must lie in 2..{_words(s)}")
    n = s * (b - 1)
    what = f"hypercycle class count for b={b}, s={s}, j={j}"
    factorials = [(n, 1), (s - j, -1), (b - 1, j - s), (b - 2, -j)]
    return _as_count(_factorial_quotient(n, 0, factorials, what) * j * (b - 1), 2, what)


class CycleSumIdentity(NamedTuple):
    """Both sides of the hypercycle sum identity, as exact rationals."""

    lhs: Fraction
    rhs: Fraction
    equal: bool


def cycle_sum_identity(s: int) -> CycleSumIdentity:
    """Evaluate sum(j / (s^j * (s-j)!) for j in 2..s) against 1 / (s * (s-2)!).

    These are the sum-form and closed-form factors of
    :func:`count_hypercycles`.  The two sides are equal for every s >= 2;
    the result carries both exact rationals so callers can verify rather
    than trust.
    """
    check_shape(b=2, s=s, min_s=2)  # the identity has no edge size
    lhs = Fraction(_cycle_numerator(s), s**s * factorial(s))
    rhs = Fraction(1, s * factorial(s - 2))
    return CycleSumIdentity(lhs, rhs, lhs == rhs)
