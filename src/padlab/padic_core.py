"""Exact arithmetic modulo odd prime powers.

Residues carry their modulus p^M explicitly, rationals are reduced into
residues via modular inversion of the denominator, and the cyclic structure
of the unit group (Z/p^M)^* is exposed through primitive roots, element
orders and roots of unity.  Everything is big-integer exact; there is no
floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

# Exact arbitrary-precision rational; stdlib Fraction is always canonical
# (gcd(num, den) = 1, den > 0), which is exactly the invariant we need.
BigRational = Fraction


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


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer: the largest e with p^e | n."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def vp_rational(q: BigRational, p: int) -> int:
    """Valuation of a nonzero rational; negative when p divides the denominator."""
    if q == 0:
        raise ValueError("valuation of zero is infinite")
    return vp(q.numerator, p) - vp(q.denominator, p)


@dataclass(frozen=True)
class PrimePowerModulus:
    """The modulus p^exponent with p an odd prime, both carried explicitly."""

    p: int
    exponent: int
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"modulus base {self.p} is not an odd prime")
        if self.exponent < 1:
            raise ValueError(f"modulus exponent must be >= 1, got {self.exponent}")
        object.__setattr__(self, "modulus", self.p**self.exponent)

    def residue(self, value: int) -> "Residue":
        return Residue(value, self)

    def unit_group_order(self) -> int:
        return self.p ** (self.exponent - 1) * (self.p - 1)

    def __str__(self):
        return f"{self.p}^{self.exponent}"


@dataclass(frozen=True)
class Residue:
    """An integer reduced into [0, p^M), tied to its PrimePowerModulus.

    Arithmetic between residues with different moduli is a contract
    violation and raises; there is never a silent coercion.  Plain ints
    are accepted and reduced.
    """

    value: int
    modulus: PrimePowerModulus

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.modulus.modulus)

    def _coerce(self, other) -> int:
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"cross-modulus arithmetic: {self.modulus} vs {other.modulus}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.modulus.modulus
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(v - self.value, self.modulus)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def is_unit(self) -> bool:
        return self.value % self.modulus.p != 0

    def __int__(self):
        return self.value

    def __str__(self):
        return str(self.value)


def reduce_rational(q: BigRational, m: PrimePowerModulus) -> Residue:
    """Reduce a p-integral rational mod p^M.

    Multiplying the result by the denominator recovers the numerator
    mod p^M.  Rationals with p in the denominator (after cancellation)
    are rejected.
    """
    q = Fraction(q)
    if q == 0:
        return m.residue(0)
    if q.denominator % m.p == 0:
        raise ValueError(f"not p-integral: {q} has denominator divisible by {m.p}")
    return m.residue(q.numerator) * mod_inverse(m.residue(q.denominator))


def mod_pow(base: Residue, e: int) -> Residue:
    """base^e mod p^M by square-and-multiply; e = 0 gives 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative; invert explicitly")
    return base.modulus.residue(pow(base.value, e, base.modulus.modulus))


def mod_inverse(x: Residue) -> Residue:
    if not x.is_unit():
        raise ValueError(f"non-invertible residue: {x.modulus.p} divides {x.value}")
    return x.modulus.residue(pow(x.value, -1, x.modulus.modulus))


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
def _primitive_root_mod_p(p: int) -> int:
    qs = factorize(p - 1)
    for r in range(2, p):
        if all(pow(r, (p - 1) // q, p) != 1 for q in qs):
            return r
    raise AssertionError(f"no primitive root mod {p}")  # unreachable for prime p


@lru_cache(maxsize=None)
def primitive_root(m: PrimePowerModulus) -> Residue:
    """A generator of the cyclic unit group (Z/p^M)^*."""
    g = _primitive_root_mod_p(m.p)
    if m.exponent > 1 and pow(g, m.p - 1, m.p * m.p) == 1:
        # g generates mod p but not mod p^2; g + p always does (p odd).
        g += m.p
    return m.residue(g)


def element_order(g: Residue) -> int:
    """Multiplicative order of a unit, by stripping primes from the group order."""
    if not g.is_unit():
        raise ValueError(f"non-invertible residue: {g.modulus.p} divides {g.value}")
    m = g.modulus
    order = m.unit_group_order()
    factors = dict(factorize(m.p - 1))
    if m.exponent > 1:
        factors[m.p] = m.exponent - 1
    for q in factors:
        while order % q == 0 and pow(g.value, order // q, m.modulus) == 1:
            order //= q
    return order


def roots_of_unity(dd: int, m: PrimePowerModulus) -> set[Residue]:
    """All x mod p^M with x^dd = 1, for dd dividing p-1.

    These form the cyclic subgroup of order dd generated by
    h^(|group|/dd) for a primitive root h.
    """
    if dd < 1 or (m.p - 1) % dd != 0:
        raise ValueError(f"{dd} does not divide p-1 = {m.p - 1}")
    h = primitive_root(m)
    step = m.unit_group_order() // dd
    return {mod_pow(h, i * step) for i in range(dd)}
