"""The standing parameter tuple (p, a, t, k) and its derived quantities.

Hypotheses are enforced eagerly at construction, so every checker
downstream may assume them.  Theorem 2 and the case2/case3 reduction
steps also need the sharper 2p^(2a+1) | k and (p-1) ∤ k, which those
checkers test first with check_strong.  Derived fields:

    d      = (p-1) / gcd(k, p-1)
    v      = min(vp(k) - 2a - 1, t)
    M      = 3a + t + v + 2          (the working modulus exponent)
    kprime = k / p^vp(k)             (the prime-to-p part of k)
    e_plus, e_minus = (k ± p^a(p-1))p^t   (f(n) = n^e+ + n^e-; both > 0, as p^(2a+1) | k)

A ParameterSet is immutable, and equal to and hashed like any other with
the same (p, a, t, k).
"""

from math import gcd

from .padic_core import is_odd_prime, vp
from .report import Record


class ParameterSet(Record):
    """(p, a, t, k) with p an odd prime, a,t >= 0, and p^(2a+1) | k;
    immutable, and equal and hashed by (p, a, t, k)."""

    def __init__(self, p: int, a: int, t: int, k: int):
        if not is_odd_prime(p):
            raise ValueError(f"p = {p} is not an odd prime")
        if a < 0 or t < 0:
            raise ValueError("a and t must be nonnegative")
        if k < 1:
            raise ValueError("k must be a positive integer")
        if k % p ** (2 * a + 1) != 0:
            raise ValueError(f"k = {k} is not divisible by p^(2a+1) = {p ** (2 * a + 1)}")
        vk = vp(k, p)
        v = min(vk - 2 * a - 1, t)
        d, M, kprime = (p - 1) // gcd(k, p - 1), 3 * a + t + v + 2, k // p**vk
        shift = p**a * (p - 1)
        e_plus, e_minus = (k + shift) * p**t, (k - shift) * p**t
        vars(self).update(p=p, a=a, t=t, k=k, d=d, v=v, M=M, kprime=kprime, e_plus=e_plus, e_minus=e_minus)

    def __setattr__(self, name, *_):
        raise AttributeError(f"ParameterSet is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash((self.p, self.a, self.t, self.k))

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

