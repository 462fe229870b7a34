"""Power sums over initial segments, modularly and exactly.

power_sum_mod evaluates sum_{n=1}^{N} n^e mod p^M term by term with
modular exponentiation.  The two checkers compare such sums against
Bernoulli data:

    lemma1:  sum_{n=1}^{p^a} n^r  vs  p^a * B_r     mod p^(2a+vp(r)+1)
    lemma2:  sum_{n=1}^{p^a} n^k  vs  0             mod p^(r+a)

Both evaluate their sum once, mod p^(E + MARGIN_WINDOW), which gives the
reported side and the saturated margin alike.  power_sum_exact is the
exact reference the modular kernel is tested against.

lemma1 is a reporter, not an assertion: the stated congruence has
documented failures (r = 2, and more generally small-a points where
(p-1) | r-2), so the report records holds/fails plus the margin and the
caller maps the validity region.
"""

from __future__ import annotations

from .bernoulli import bernoulli
from .padic_core import is_odd_prime, vp
from .report import MARGIN_WINDOW, CheckReport, congruence_report, timed_check


def power_sum_mod(n_max: int, e: int, modulus: int) -> int:
    """sum_{n=1}^{n_max} n^e mod modulus, in [0, modulus)."""
    if n_max < 0 or e < 0:
        raise ValueError("power_sum_mod expects nonnegative bound and exponent")
    total = 0
    for n in range(1, n_max + 1):
        total += pow(n, e, modulus)
    return total % modulus


def power_sum_exact(n_max: int, e: int) -> int:
    """The same sum as an exact big integer."""
    return sum(n**e for n in range(1, n_max + 1))


@timed_check
def lemma1_check(p: int, a: int, r: int) -> CheckReport:
    """Report on  sum_{n=1}^{p^a} n^r  ≡  p^a B_r  (mod p^(2a+vp(r)+1))."""
    if not is_prime_gt3(p):
        raise ValueError(f"p must be a prime greater than 3, got {p}")
    if a < 1:
        raise ValueError("a must be a positive integer")
    if r < 2 or r % 2 != 0:
        raise ValueError(f"r must be even and positive, got {r}")

    exponent = 2 * a + vp(r, p) + 1
    lhs = power_sum_mod(p**a, r, p ** (exponent + MARGIN_WINDOW))
    rhs = p**a * bernoulli(r)  # p-integral: vp(B_r) >= -1
    return congruence_report("lemma1", {"p": p, "a": a, "r": r}, lhs, rhs, p, exponent)


@timed_check
def lemma2_check(p: int, a: int, rr: int, kk: int) -> CheckReport:
    """Check  sum_{n=1}^{p^a} n^kk  ≡  0  (mod p^(rr+a))."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if a < 1:
        raise ValueError("a must be a positive integer")
    if rr < 1:
        raise ValueError("rr must be a positive integer")
    if kk < rr + a:
        raise ValueError(f"k = {kk} must be at least rr + a = {rr + a}")
    if kk % (p - 1) == 0:
        raise ValueError(f"(p-1) = {p - 1} must not divide k = {kk}")
    if kk % p**rr != 0:
        raise ValueError(f"p^rr = {p**rr} must divide k = {kk}")

    exponent = rr + a
    lhs = power_sum_mod(p**a, kk, p ** (exponent + MARGIN_WINDOW))
    return congruence_report("lemma2", {"p": p, "a": a, "rr": rr, "kk": kk}, lhs, 0, p, exponent)


def is_prime_gt3(p: int) -> bool:
    return p > 3 and is_odd_prime(p)
