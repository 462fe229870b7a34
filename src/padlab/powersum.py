"""Power sums over initial segments, modularly and exactly.

power_sum_mod(N, e, p, M) is the one power-sum kernel: sum_{n=1}^{N} n^e
mod p^M.  Writing n = r + p*q with 0 <= r < p,

    (r + p q)^e ≡ sum_{i<M} C(e, i) r^(e-i) p^i q^i      (mod p^M),

so the B = N // p full p-blocks reduce to the residue sums
R_i = sum_{r<p} r^(e-i) mod p^M and the block-index sums S_i = sum_{q<B} q^i,
plus a tail of at most p terms.  The S_i are exact ints, from the
telescoping identity B^(i+1) = sum_{j<=i} C(i+1, j) S_j and an exact
division by i+1: p may divide i+1, so no modular inverse can replace it.
That costs about p*M modular operations plus M^2/2 exact ones on ints of
about M*log2(N) bits, instead of N modular powers.  Bounds up to p*M are
summed directly, with a modular power only at primes up to TABLE_BOUND
(n -> n^e is completely multiplicative; a composite is one product, which
beats a power from exponents of about 64 up) and at every n above it, so
a large p keeps no table of p residues.  The two checkers here compare
such sums against Bernoulli data:

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

from math import comb

from .bernoulli import bernoulli
from .padic_core import is_odd_prime, is_prime, vp
from .report import MARGIN_WINDOW, CheckReport, congruence_report

TABLE_BOUND = 1024  # the last n whose residue a direct sum keeps, however far its bound


def power_sum_mod(n_max: int, e: int, p: int, M: int) -> int:
    """sum_{n=1}^{n_max} n^e mod p^M, in [0, p^M)."""
    if n_max < 0 or e < 0:
        raise ValueError("power_sum_mod expects nonnegative bound and exponent")
    if M < 1:
        raise ValueError(f"power_sum_mod expects a modulus exponent M >= 1, got {M}")
    mod = p**M
    if e == 0:
        return n_max % mod
    if n_max <= p * M:
        # up to TABLE_BOUND, a composite n is the product of the values at its
        # least prime factor q and at n // q, and only a prime takes a power
        values, primes = [0, 1][: n_max + 1], []
        for n in range(2, min(n_max, TABLE_BOUND) + 1):
            for q in primes:
                if q * q > n:
                    break
                if n % q == 0:
                    values.append(values[q] * values[n // q] % mod)
                    break
            if len(values) == n:  # no prime up to sqrt(n) divides n
                primes.append(n)
                values.append(pow(n, e, mod))
        return (sum(values) + sum(pow(n, e, mod) for n in range(TABLE_BOUND + 1, n_max + 1))) % mod
    blocks = n_max // p  # n = r + p*q over q < blocks, then the tail q = blocks
    top = min(e, M - 1)
    # residue_sums[i] = sum_{r<p} r^(e-i) mod p^M; r = 0 counts only as 0^0
    residue_sums = [0] * top + [int(top == e)]
    for r in range(1, p):
        x = pow(r, e - top, mod)
        for i in range(top, -1, -1):
            residue_sums[i] += x
            x = x * r % mod
    # index_sums[i] = sum_{q<blocks} q^i, exactly: telescoped, then divided by i + 1
    index_sums = []
    for i in range(top + 1):
        rest = sum(comb(i + 1, j) * s for j, s in enumerate(index_sums))
        index_sums.append((blocks ** (i + 1) - rest) // (i + 1))
    total = sum(pow(n, e, mod) for n in range(p * blocks, n_max + 1))
    binom = 1
    for i in range(top + 1):
        total += binom * p**i * residue_sums[i] % mod * index_sums[i]
        binom = binom * (e - i) // (i + 1)
    return total % mod


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
