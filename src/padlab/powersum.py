"""Power sums over initial segments, modularly and exactly.

power_sum_mod(N, e, p, M) is the one power-sum kernel: sum_{n=1}^{N} n^e
mod p^M.  Writing n = r + p*q with 0 <= r < p,

    (r + p q)^e ≡ sum_{i<M} C(e, i) r^(e-i) p^i q^i      (mod p^M),

so the full p-blocks reduce to the sums sum_{q<N/p} q^i mod p^(M-i),
which recurse on a bound p times smaller, plus a tail of at most p terms.
That costs about p * M^3 * log_p(N) modular operations instead of N
modular powers; bounds up to p*M are summed directly.  The two checkers
here compare such sums against Bernoulli data:

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

from .bernoulli import bernoulli
from .padic_core import is_odd_prime, is_prime, vp
from .report import MARGIN_WINDOW, CheckReport, congruence_report


def power_sum_mod(n_max: int, e: int, p: int, M: int) -> int:
    """sum_{n=1}^{n_max} n^e mod p^M, in [0, p^M)."""
    if n_max < 0 or e < 0:
        raise ValueError("power_sum_mod expects nonnegative bound and exponent")
    if M < 1:
        raise ValueError(f"power_sum_mod expects a modulus exponent M >= 1, got {M}")
    if e == 0:
        return n_max % p**M
    return _power_sum(n_max, e, p, M, {})


def _power_sum(n_max: int, e: int, p: int, M: int, memo: dict) -> int:
    """power_sum_mod for e >= 1, memoized on (n_max, e, M) within one call."""
    mod = p**M
    if n_max <= p * M:
        return sum(pow(n, e, mod) for n in range(1, n_max + 1)) % mod
    key = (n_max, e, M)
    if key in memo:
        return memo[key]
    blocks = n_max // p  # n = r + p*q over q < blocks, then the tail q = blocks
    top = min(e, M - 1)
    # residue_sums[i] = sum_{r<p} r^(e-i) mod p^M; r = 0 counts only as 0^0
    residue_sums = [0] * (top + 1)
    if top == e:
        residue_sums[top] = 1
    for r in range(1, p):
        x = pow(r, e - top, mod)
        for i in range(top, -1, -1):
            residue_sums[i] += x
            x = x * r % mod
    total = blocks * residue_sums[0]  # i = 0: sum_{q<blocks} q^0 = blocks
    binom = 1
    for i in range(1, top + 1):
        binom = binom * (e - i + 1) // i
        q_sum = _power_sum(blocks - 1, i, p, M - i, memo)
        total += binom * p**i * residue_sums[i] % mod * q_sum
    total += sum(pow(n, e, mod) for n in range(p * blocks, n_max + 1))
    memo[key] = total = total % mod
    return total


def power_sum_exact(n_max: int, e: int) -> int:
    """The same sum as an exact big integer."""
    return sum(n**e for n in range(1, n_max + 1))


def lemma1_check(p: int, a: int, r: int) -> CheckReport:
    """Report on  sum_{n=1}^{p^a} n^r  ≡  p^a B_r  (mod p^(2a+vp(r)+1))."""
    if p <= 3 or not is_prime(p):
        raise ValueError(f"p must be a prime greater than 3, got {p}")
    if a < 1:
        raise ValueError("a must be a positive integer")
    if r < 2 or r % 2 != 0:
        raise ValueError(f"r must be even and positive, got {r}")

    exponent = 2 * a + vp(r, p) + 1
    lhs = power_sum_mod(p**a, r, p, exponent + MARGIN_WINDOW)
    rhs = p**a * bernoulli(r)  # p-integral: vp(B_r) >= -1
    return congruence_report("lemma1", {"p": p, "a": a, "r": r}, lhs, rhs, p, exponent)


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
    lhs = power_sum_mod(p**a, kk, p, exponent + MARGIN_WINDOW)
    return congruence_report("lemma2", {"p": p, "a": a, "rr": rr, "kk": kk}, lhs, 0, p, exponent)
