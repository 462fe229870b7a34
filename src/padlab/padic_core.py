"""Exact arithmetic modulo odd prime powers.

A residue is a plain int in [0, p^M), and a modulus is the pair of ints
(p, M), with p an odd prime that the caller has checked.  Rationals are
reduced mod p^M by inverting the denominator, and the cyclic unit group
(Z/p^M)^*, of order p^(M-1)(p-1), is exposed through primitive roots,
element orders and roots of unity.  Everything is big-integer exact;
there is no floating point anywhere.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for q in range(3, isqrt(n) + 1, 2):
        if n % q == 0:
            return False
    return True


def is_odd_prime(p: int) -> bool:
    return p >= 3 and is_prime(p)


def is_prime_gt3(p: int) -> bool:
    return p > 3 and is_prime(p)


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer: the largest e with p^e | n."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def vp_rational(q: Fraction, p: int) -> int:
    """Valuation of a nonzero rational; negative when p divides the denominator."""
    return vp(q.numerator, p) - vp(q.denominator, p)


def unit_group_order(p: int, M: int) -> int:
    """|(Z/p^M)^*| = p^(M-1)(p-1)."""
    return p ** (M - 1) * (p - 1)


def unit_group_factors(p: int, M: int) -> dict[int, int]:
    """unit_group_order(p, M) factorised, as {prime: exponent}."""
    factors = factorize(p - 1)
    if M > 1:
        factors[p] = M - 1
    return factors


def reduce_rational(q: Fraction | int, p: int, M: int) -> int:
    """Reduce a p-integral rational mod p^M, into [0, p^M).

    Multiplying the result by the denominator recovers the numerator
    mod p^M.  Rationals with p in the denominator (after cancellation)
    are rejected.
    """
    if q.denominator % p == 0:
        raise ValueError(f"not p-integral: {q} has denominator divisible by {p}")
    pM = p**M
    return q.numerator * pow(q.denominator, -1, pM) % pM


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for q in [2] + list(range(3, isqrt(n) + 1, 2)):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        if n == 1:
            break
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def primitive_root(p: int, M: int) -> int:
    """A generator of the cyclic unit group (Z/p^M)^*."""
    g = next(r for r in range(2, p) if element_order(r, p, 1) == p - 1)
    if M > 1 and pow(g, p - 1, p * p) == 1:
        # g generates mod p but not mod p^2; g + p always does (p odd).
        g += p
    return g


def element_order(g: int, p: int, M: int) -> int:
    """Multiplicative order of the unit g mod p^M, by stripping primes from the group order."""
    if g % p == 0:
        raise ValueError(f"non-invertible residue: {p} divides {g}")
    order = unit_group_order(p, M)
    for q in unit_group_factors(p, M):
        while order % q == 0 and pow(g, order // q, p**M) == 1:
            order //= q
    return order


def roots_of_unity(dd: int, p: int, M: int) -> set[int]:
    """All x mod p^M with x^dd = 1, for dd dividing p-1.

    These form the cyclic subgroup of order dd generated by
    h^(|group|/dd) for a primitive root h.
    """
    if dd < 1 or (p - 1) % dd != 0:
        raise ValueError(f"{dd} does not divide p-1 = {p - 1}")
    h = primitive_root(p, M)
    step = unit_group_order(p, M) // dd
    pM = p**M
    return {pow(h, i * step, pM) for i in range(dd)}
