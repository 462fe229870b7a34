"""The headline checkers.

theorem2_check: the linearity
    sum n^((k+p^a(p-1)r)p^t) ≡ r * sum n^((k+p^a(p-1))p^t)   mod p^(3a+t+v+2)
corollary2_check: the vanishing
    sum n^b (n^(p^(a+t)(p-1)) - 1)^2 ≡ 0                     mod p^(3a+t+v+2)
case1/case2/case3: the three Bernoulli reduction steps
    B_{r+p^a(p-1)} ≡ (r+p^a(p-1)) B_r/r - p^(r-1) B_r        mod p^(a+vp(r)+1)
    (k+p^a(p-1)) B_{(k+b p^a(p-1))p^t}
        ≡ (k+b p^a(p-1)) B_{(k+p^a(p-1))p^t}                 mod p^(3a+t+1)
    sum n^((k+p^a(p-1))p^t) ≡ p * sum n^((k+p^a(p-1))p^(t-1)) mod p^(3a+t+2)
kummer_check: the Euler-factor-corrected congruence
    (1-p^(r-1)) B_r/r ≡ (1-p^(s-1)) B_s/s                    mod p^(a+1)
for even r ≡ s mod p^a(p-1) with (p-1) ∤ r.  theorem2 and case2/3 first
test the sharper 2p^(2a+1) | k and (p-1) ∤ k with ParameterSet.check_strong.

Bernoulli comparisons are exact rational arithmetic; power-sum
comparisons take powersum.power_sum_mod mod p^(M + MARGIN_WINDOW).  Both
go through report.congruence_report, except corollary2, which reports the
unsaturated margin and sum_valuation of its exact sum, read from residues
mod p^K with K doubled until the sum is nonzero.
"""

from .bernoulli import bernoulli
from .padic_core import is_odd_prime, is_prime_gt3, vp
from .params import ParameterSet
from .powersum import power_sum_mod
from .report import MARGIN_WINDOW, CheckReport, congruence_report


def theorem2_check(ps: ParameterSet, r: int) -> CheckReport:
    """Check the linearity of sum n^((k+p^a(p-1)r)p^t) in r, mod p^M."""
    ps.check_strong()
    shift = ps.p**ps.a * (ps.p - 1)
    if ps.k + shift * r <= 0:
        raise ValueError(f"k + p^a(p-1)r = {ps.k + shift * r} must be positive")

    exponent = ps.M
    window = exponent + MARGIN_WINDOW
    n_max = ps.p ** (ps.a + 1)
    sum_r = power_sum_mod(n_max, (ps.k + shift * r) * ps.p**ps.t, ps.p, window)
    sum_1 = power_sum_mod(n_max, (ps.k + shift) * ps.p**ps.t, ps.p, window)
    return congruence_report("theorem2", {**ps.as_dict(), "r": r}, sum_r, r * sum_1, ps.p, exponent)


def corollary2_check(p: int, a: int, t: int, b: int, v: int | None = None) -> CheckReport:
    """Check sum_{n<=p^(a+1)} n^b (n^(p^(a+t)(p-1)) - 1)^2 ≡ 0 mod p^(3a+t+v+2).

    v may be given explicitly to map the validity region.  When omitted it
    is derived by treating c = b/p^t in the role of k: v = min(vp(c)-2a-1, t)
    if p^(2a+1) | c, else 0.  The report records the exact valuation of the
    sum, read from residues: the sum is a positive integer (every term is
    nonnegative, the n = 2 term positive), so it is taken mod p^K from
    K = E + MARGIN_WINDOW, doubling K while the residue is 0.
    """
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if a < 0 or t < 0:
        raise ValueError("a and t must be nonnegative")
    if b < 1:
        raise ValueError("b must be a positive integer")
    if b % p ** (a + t) != 0:
        raise ValueError(f"b = {b} is not divisible by p^(a+t) = {p ** (a + t)}")
    if b % (p - 1) == 0:
        raise ValueError(f"(p-1) = {p - 1} must not divide b = {b}")
    if v is None:
        v = max(0, min(vp(b, p) - t - 2 * a - 1, t))
    if not 0 <= v <= t:
        raise ValueError(f"v must satisfy 0 <= v <= t = {t}, got {v}")

    exponent = 3 * a + t + v + 2
    inner = p ** (a + t) * (p - 1)
    n_max = p ** (a + 1)
    K = exponent + MARGIN_WINDOW
    while True:  # n^b (n^inner - 1)^2 = n^(b+2 inner) - 2 n^(b+inner) + n^b
        total = (
            power_sum_mod(n_max, b + 2 * inner, p, K)
            - 2 * power_sum_mod(n_max, b + inner, p, K)
            + power_sum_mod(n_max, b, p, K)
        ) % p**K
        if total:
            break
        K *= 2
    val = vp(total, p)
    return CheckReport(
        name="corollary2",
        inputs={"p": p, "a": a, "t": t, "b": b, "v": v},
        holds=val >= exponent,
        lhs=str(total % p**exponent),
        rhs="0",
        modulus=(p, exponent),
        margin=val - exponent,
        details={"sum_valuation": val},
    )


def case1_step_check(p: int, a: int, r: int) -> CheckReport:
    """Check B_{r+p^a(p-1)} ≡ (r+p^a(p-1)) B_r/r - p^(r-1) B_r mod p^(a+vp(r)+1).

    The step presumes the congruences one level down, so the mod-p^a
    layer is verified too and reported alongside.
    """
    if not is_prime_gt3(p):
        raise ValueError(f"p must be a prime greater than 3, got {p}")
    if a < 1:
        raise ValueError("a must be a positive integer")
    if r < 2 or r % 2 != 0:
        raise ValueError(f"r must be even and positive, got {r}")
    if r % (p - 1) == 0:
        raise ValueError(f"(p-1) = {p - 1} must not divide r = {r}")
    if vp(r, p) >= a:
        raise ValueError(f"vp(r) = {vp(r, p)} must be smaller than a = {a}")

    exponent = a + vp(r, p) + 1
    shift = p**a * (p - 1)
    lhs_q = bernoulli(r + shift)
    rhs_q = (r + shift) * bernoulli(r) / r - p ** (r - 1) * bernoulli(r)
    # the layer below: the corrected B_r/r is constant on the index
    # class r + i*p^(a-1)(p-1) mod p^a
    sub = []
    step = p ** (a - 1) * (p - 1)
    for i in range(1, p):
        rep = kummer_check(p, a - 1, r, r + i * step)
        sub.append({"s": r + i * step, "holds": rep.holds})
    details = {"hypothesis": sub, "hypothesis_holds": all(entry["holds"] for entry in sub)}
    return congruence_report("case1", {"p": p, "a": a, "r": r}, lhs_q, rhs_q, p, exponent, details)


def case2_check(ps: ParameterSet, b: int) -> CheckReport:
    """Check (k+p^a(p-1)) B_{(k+b p^a(p-1))p^t} ≡ (k+b p^a(p-1)) B_{(k+p^a(p-1))p^t}
    mod p^(3a+t+1)."""
    ps.check_strong()
    shift = ps.p**ps.a * (ps.p - 1)
    index_b = (ps.k + b * shift) * ps.p**ps.t
    index_1 = (ps.k + shift) * ps.p**ps.t
    # check_strong makes both indices even and ≡ k ≢ 0 mod p-1, and index_1 > 0
    if index_b < 2:
        raise ValueError(f"Bernoulli index {index_b} must be even and positive")

    exponent = 3 * ps.a + ps.t + 1
    lhs_q = (ps.k + shift) * bernoulli(index_b)
    rhs_q = (ps.k + b * shift) * bernoulli(index_1)
    details = {"index_lhs": index_b, "index_rhs": index_1}
    return congruence_report(
        "case2", {**ps.as_dict(), "b": b}, lhs_q, rhs_q, ps.p, exponent, details
    )


def case3_branch_check(ps: ParameterSet) -> CheckReport:
    """Check sum n^((k+p^a(p-1))p^t) ≡ p * sum n^((k+p^a(p-1))p^(t-1)) mod p^(3a+t+2)."""
    ps.check_strong()
    if ps.t < 1:
        raise ValueError("t must be >= 1 for the branching step")

    exponent = 3 * ps.a + ps.t + 2
    window = exponent + MARGIN_WINDOW
    n_max = ps.p ** (ps.a + 1)
    base = ps.k + ps.p**ps.a * (ps.p - 1)
    sum_t = power_sum_mod(n_max, base * ps.p**ps.t, ps.p, window)
    sum_t1 = power_sum_mod(n_max, base * ps.p ** (ps.t - 1), ps.p, window)
    return congruence_report("case3", ps.as_dict(), sum_t, ps.p * sum_t1, ps.p, exponent)


def kummer_check(p: int, a: int, r: int, s: int) -> CheckReport:
    """Check (1-p^(r-1)) B_r/r ≡ (1-p^(s-1)) B_s/s mod p^(a+1)."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if a < 0:
        raise ValueError("a must be nonnegative")
    for idx in (r, s):
        if idx < 2 or idx % 2 != 0:
            raise ValueError(f"index {idx} must be even and positive")
    if r % (p - 1) == 0:
        raise ValueError(f"(p-1) = {p - 1} must not divide r = {r}")
    step = p**a * (p - 1)
    if (r - s) % step != 0:
        raise ValueError(f"r = {r} and s = {s} must be congruent mod p^a(p-1) = {step}")

    exponent = a + 1
    lhs_q = (1 - p ** (r - 1)) * bernoulli(r) / r
    rhs_q = (1 - p ** (s - 1)) * bernoulli(s) / s
    return congruence_report("kummer", {"p": p, "a": a, "r": r, "s": s}, lhs_q, rhs_q, p, exponent)

