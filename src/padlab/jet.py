"""Derivatives of the two-monomial f and their p-adic valuations.

f^(m)(n) has the falling-factorial closed form

    FF(e+, m) * n^(e+ - m)  +  FF(e-, m) * n^(e- - m),
    FF(e, m) = e (e-1) ... (e-m+1) = math.perm(e, m),

for the order m >= 0 (m = 0 gives f itself; beyond min(e+, e-) a
monomial just vanishes).  derivative_values is the one place f and f^(m)
are evaluated: spectrum's value multisets, lemma5's count and the point
form derivative_mod all go through it.  A valuation computed mod p^cap
that meets 0 reports as ">= cap" (valuations of polynomial values at
residue classes are minima over the class, so saturation is the honest
answer).  On top of that sit the valuation claim matrix for f^(m), the
first-order Taylor truncation check, and the count of near-critical
points of f'.
"""

from collections.abc import Iterable, Iterator
from math import perm

from .padic_core import vp
from .params import ParameterSet, f_exponents
from .report import MARGIN_WINDOW, CheckReport, rational_margin


def derivative_values(ps: ParameterSet, m: int, ns: Iterable[int], modulus: int) -> Iterator[int]:
    """f^(m)(n) mod modulus for each n in ns, in order.

    The coefficients and exponents are computed once, at call time, as is
    the check on m; each n then costs two modular powers.  A monomial with
    m > e has FF(e, m) = 0, so its exponent is clamped at 0, not branched on.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    (c_plus, x_plus), (c_minus, x_minus) = ((perm(e, m), max(e - m, 0)) for e in f_exponents(ps))
    return ((c_plus * pow(n, x_plus, modulus) + c_minus * pow(n, x_minus, modulus)) % modulus for n in ns)


def derivative_mod(ps: ParameterSet, m: int, n: int, modulus: int) -> int:
    """f^(m)(n) mod modulus."""
    return next(derivative_values(ps, m, (n,), modulus))


def derivative_valuation(ps: ParameterSet, m: int, n: int, cap: int) -> int:
    """vp(f^(m)(n)) computed mod p^cap; a return of cap means ">= cap"."""
    if m < 1:
        raise ValueError("derivative order must be >= 1")
    p = ps.p
    if n % p == 0:
        raise ValueError(f"n = {n} must be invertible mod p = {p}")
    value = derivative_mod(ps, m, n, p**cap)
    return cap if value == 0 else vp(value, p)


def lemma4_check(ps: ParameterSet, m: int, n: int) -> CheckReport:
    """Check the valuation claim matrix for f^(m)(n), n a unit.

    Floor for every m >= 1: vp >= 2a+t+v.  Sharper claims:
      m=1: vp >= 2a+t+v+1, with equality whenever v < t;
      m=2: vp = 2a+2t if v = t, vp >= 2a+t+v+1 if v < t;
      m=3: if v = t, vp = 2a+2t except p = 3 where vp >= 2a+2t+1;
           if v < t, vp >= 2a+t+v+1.
    """
    a, t, v, p = ps.a, ps.t, ps.v, ps.p
    floor = 2 * a + t + v
    cap = 2 * a + 2 * t + MARGIN_WINDOW
    val = derivative_valuation(ps, m, n, cap)
    saturated = val == cap

    claims: dict[str, bool] = {"floor": val >= floor}
    if m == 1:
        claims["first_order_bound"] = val >= floor + 1
        if v < t:
            claims["first_order_equality"] = val == 2 * a + t + v + 1
    elif m == 2:
        if v == t:
            claims["second_order_equality"] = val == 2 * a + 2 * t
        else:
            claims["second_order_bound"] = val >= 2 * a + t + v + 1
    elif m == 3:
        if v == t:
            if p == 3:
                claims["third_order_bound_p3"] = val >= 2 * a + 2 * t + 1
            else:
                claims["third_order_equality"] = val == 2 * a + 2 * t
        else:
            claims["third_order_bound"] = val >= 2 * a + t + v + 1

    return CheckReport(
        name="lemma4",
        inputs={**ps.as_dict(), "m": m, "n": n},
        holds=all(claims.values()),
        lhs=f">={cap}" if saturated else str(val),
        rhs=f"floor {floor}",
        modulus=(p, floor),
        margin=min(val - floor, MARGIN_WINDOW),
        details={"valuation": val, "saturated": saturated, "claims": claims},
    )


def corollary3_check(ps: ParameterSet, s0: int, kk: int, x: int) -> CheckReport:
    """Check f(s + p^kk x) ≡ f(s) + f'(s) p^kk x mod p^(2a+t+v+2kk) at s = s0.

    When v < t the congruence is also claimed one exponent higher; both
    verdicts are reported and the overall verdict includes the strong
    form exactly when it applies.
    """
    p = ps.p
    if s0 % p == 0:
        raise ValueError(f"s = {s0} must be invertible mod p = {p}")
    if kk < 1:
        raise ValueError("kk must be >= 1")

    weak_exp = 2 * ps.a + ps.t + ps.v + 2 * kk
    strong_exp = weak_exp + 1
    cap = strong_exp + MARGIN_WINDOW
    big = p**cap

    lhs_big = derivative_mod(ps, 0, s0 + p**kk * x, big)
    rhs_big = (derivative_mod(ps, 0, s0, big) + derivative_mod(ps, 1, s0, big) * p**kk * x) % big

    diff = (lhs_big - rhs_big) % big
    val = cap if diff == 0 else vp(diff, p)
    weak_holds = val >= weak_exp
    strong_holds = val >= strong_exp
    strong_applies = ps.v < ps.t

    return CheckReport(
        name="corollary3",
        inputs={**ps.as_dict(), "s": s0, "kk": kk, "x": x},
        holds=weak_holds and (strong_holds or not strong_applies),
        lhs=str(lhs_big % p**weak_exp),
        rhs=str(rhs_big % p**weak_exp),
        modulus=(p, weak_exp),
        margin=rational_margin(diff, p, weak_exp),
        details={
            "weak_holds": weak_holds,
            "strong_holds": strong_holds,
            "strong_applies": strong_applies,
            "difference_valuation": val,
            "saturated": val == cap,
        },
    )


def lemma5_count(ps: ParameterSet, s: int) -> CheckReport:
    """Count units u <= p^(a+1) with vp(f'(u)) >= 2a+2t+s+1; expect p^(a-s)(p-1).

    Only stated for v = t and 0 <= s <= a.
    """
    if ps.v != ps.t:
        raise ValueError(f"lemma5 requires v = t, got v = {ps.v}, t = {ps.t}")
    if not 0 <= s <= ps.a:
        raise ValueError(f"s must satisfy 0 <= s <= a = {ps.a}, got {s}")

    threshold = 2 * ps.a + 2 * ps.t + s + 1
    # vp(f'(u)) >= threshold exactly when f'(u) ≡ 0 mod p^threshold
    units = (u for u in range(1, ps.p ** (ps.a + 1) + 1) if u % ps.p)
    count = sum(v == 0 for v in derivative_values(ps, 1, units, ps.p**threshold))
    expected = ps.p ** (ps.a - s) * (ps.p - 1)
    return CheckReport(
        name="lemma5",
        inputs={**ps.as_dict(), "s": s},
        holds=count == expected,
        lhs=str(count),
        rhs=str(expected),
        modulus=(ps.p, threshold),
        details={"count": count, "expected": expected},
    )
