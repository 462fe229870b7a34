"""The standing parameter tuple (p, a, t, k) and its derived quantities.

Hypotheses are enforced eagerly at construction, so every checker
downstream may assume them.  Theorem 2 and the case2/case3 reduction
steps also need the sharper 2p^(2a+1) | k and (p-1) ∤ k, which those
checkers test first with check_strong.  Derived fields:

    d      = (p-1) / gcd(k, p-1)
    v      = min(vp(k) - 2a - 1, t)
    M      = 3a + t + v + 2          (the working modulus exponent)
    kprime = k / p^vp(k)             (the prime-to-p part of k)

The exponent pair of f(n) = n^((k+p^a(p-1))p^t) + n^((k-p^a(p-1))p^t)
comes from f_exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .padic_core import is_odd_prime, vp


@dataclass(frozen=True)
class ParameterSet:
    """(p, a, t, k) with p an odd prime, a,t >= 0, and p^(2a+1) | k."""

    p: int
    a: int
    t: int
    k: int
    d: int = field(init=False)
    v: int = field(init=False)
    M: int = field(init=False)
    kprime: int = field(init=False)

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p = {self.p} is not an odd prime")
        if self.a < 0 or self.t < 0:
            raise ValueError("a and t must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.k % self.p ** (2 * self.a + 1) != 0:
            raise ValueError(
                f"k = {self.k} is not divisible by p^(2a+1) = {self.p ** (2 * self.a + 1)}"
            )
        vk = vp(self.k, self.p)
        object.__setattr__(self, "d", (self.p - 1) // gcd(self.k, self.p - 1))
        object.__setattr__(self, "v", min(vk - 2 * self.a - 1, self.t))
        object.__setattr__(self, "M", 3 * self.a + self.t + self.v + 2)
        object.__setattr__(self, "kprime", self.k // self.p**vk)

    def as_dict(self) -> dict[str, int]:
        return {
            "p": self.p,
            "a": self.a,
            "t": self.t,
            "k": self.k,
            "d": self.d,
            "v": self.v,
            "M": self.M,
        }

    def check_strong(self) -> None:
        """Raise unless the sharper hypotheses 2p^(2a+1) | k and (p-1) ∤ k hold."""
        if self.k % (2 * self.p ** (2 * self.a + 1)) != 0:
            raise ValueError(
                f"k = {self.k} is not divisible by 2p^(2a+1) = {2 * self.p ** (2 * self.a + 1)}"
            )
        if self.k % (self.p - 1) == 0:
            raise ValueError(f"k = {self.k} must not be divisible by p-1 = {self.p - 1}")


def f_exponents(ps: ParameterSet) -> tuple[int, int]:
    """The exponent pair ((k + p^a(p-1))p^t, (k - p^a(p-1))p^t).

    Both are positive: p^(2a+1) | k forces k > p^a(p-1).
    """
    shift = ps.p**ps.a * (ps.p - 1)
    return (ps.k + shift) * ps.p**ps.t, (ps.k - shift) * ps.p**ps.t
