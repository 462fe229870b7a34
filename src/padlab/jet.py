"""Derivatives of the two-monomial f and their p-adic valuations.

f^(m)(n) has the falling-factorial closed form

    FF(e+, m) * n^(e+ - m)  +  FF(e-, m) * n^(e- - m),
    FF(e, m) = e (e-1) ... (e-m+1) = math.perm(e, m),

for the order m >= 0 (m = 0 gives f itself; beyond min(e+, e-) a monomial
just vanishes).  derivative_values is the one place f and f^(m) are
evaluated, and derivative_mod is its point form.  A valuation computed mod
p^cap that meets 0 reports as ">= cap" (valuations of polynomial values at
residue classes are minima over the class, so saturation is the honest
answer).  On top sit the valuation claim matrix for f^(m), the first-order
Taylor truncation check and the count of near-critical points of f'.

unit_values walks the units n = r + p*q <= p^(a+1) of one class r mod p.
With x± = e± - m and B±_i = FF(e±, m) C(x±, i), f^(m) mod p^N on class r
is the polynomial in q with coefficients c_i(r) = p^i r^(x- - i) (B+_i
r^δ + B-_i), δ = x+ - x-, of degree exactly degree_bound's D in every
class: the largest i < N with p^(N-i) ∤ B+_i + B-_i, or 0.  Proof: r = ω +
p*s, ω the Teichmüller lift of r mod p (Washington, Introduction to
Cyclotomic Fields, ch. 5), s in Z_p.  As ω^(p-1) = 1 and p - 1 | δ = e+ -
e- while m <= e-, c_i(ω) is a unit times p^i (B+_i + B-_i), as it is past
e-, where B-_i = 0; f^(m)(r + p*q) = g(q + s) for g(q) = f^(m)(ω + p*q),
and a translate of q keeps degree and leading coefficient mod p^N.  A class
is walked in increasing n: min(p^a, D+1) values from derivative_values,
the rest from a (D+1)-row difference table, at a cost of D + 1 evaluations
of f^(m) and (p^a - D - 1) D additions.

The orbit checks and lemma5 walk class 1 alone.  A unit n is ζu mod
p^(a+1), ζ the Teichmüller lift of n mod p and u = 1 + p*q, q < p^a, which
maps each class onto class 1.  Needing only p - 1 | e+ - e-, f(ζu) =
ζ^e+ f(u) and f'(ζu) = ζ^(e+ - 1) f'(u).  And f is p^(a+1)-periodic mod
p^M on units: in f(n + p^(a+1) z) - f(n) = Σ_{m>=1} f^(m)(n) (p^(a+1) z)^m
/ m!, lemma4's floors give vp >= 2a+t+v+1 + a+1 = M at m = 1, and 2a+t+v +
m(a+1) - vp(m!) >= M at m >= 2, as vp(m!) <= (m-1)/2.  One order up, f' is
p^(a+1)-periodic mod p^(M-1), which p^(2a+2t+s+1) divides when v = t and
s <= a.  So f(n) ≡ ζ^e+ f(u) mod p^M, which spectrum reads as S built from
S_1, and lemma5's count is p - 1 times its count on class 1.
"""

from collections.abc import Iterable, Iterator
from itertools import accumulate, islice, repeat
from math import comb, perm

from .padic_core import vp
from .params import ParameterSet
from .report import MARGIN_WINDOW, CheckReport, congruence_report


def _terms(ps: ParameterSet, m: int) -> list[tuple[int, int]]:
    """f^(m)'s terms (FF(e, m), e - m) for e = e+, e-; past e, FF(e, m) = 0
    and the exponent is clamped at 0, not branched on."""
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    return [(perm(e, m), max(e - m, 0)) for e in (ps.e_plus, ps.e_minus)]


def derivative_values(ps: ParameterSet, m: int, ns: Iterable[int], modulus: int) -> Iterator[int]:
    """f^(m)(n) mod modulus for each n in ns, in order.

    The terms are computed once, at call time, as is the check on m; each
    n then costs two modular powers.
    """
    (c_plus, x_plus), (c_minus, x_minus) = _terms(ps, m)
    return ((c_plus * pow(n, x_plus, modulus) + c_minus * pow(n, x_minus, modulus)) % modulus for n in ns)


def degree_bound(ps: ParameterSet, m: int, n_exp: int) -> int:
    """The degree D in q of f^(m)(r + p*q) mod p^n_exp, exact in every unit class r (proof above)."""
    (b_plus, x_plus), (b_minus, x_minus) = _terms(ps, m)
    for i in range(n_exp - 1, 0, -1):
        if (b_plus * comb(x_plus, i) + b_minus * comb(x_minus, i)) % ps.p ** (n_exp - i):
            return i
    return 0


def unit_values(ps: ParameterSet, m: int, r: int, n_exp: int) -> Iterator[int]:
    """f^(m)(n) mod p^n_exp at the units n = r + p*q <= p^(a+1) of the one
    class r mod p (1 <= r < p), in increasing n: the first min(p^a, D+1)
    values from derivative_values, which _stepped extends to all p^a."""
    rows, modulus = ps.p**ps.a, ps.p**n_exp
    head = min(rows, degree_bound(ps, m, n_exp) + 1)
    values = derivative_values(ps, m, range(r, r + ps.p * head, ps.p), modulus)
    return _stepped(list(values), rows, modulus)


def _stepped(head: list[int], rows: int, modulus: int) -> Iterator[int]:
    """g(q) mod modulus for 0 <= q < rows, where head = g(0), ..., g(D) of
    an integer polynomial g of degree <= D: the (D+1)-row difference table
    at q = 0, each row the running sum of the row below it, in C.  Rows
    <= D + 1 give head's own first values, reduced."""
    diffs = [head[0]]
    while len(head) > 1:
        head = [y - x for x, y in zip(head, head[1:])]
        diffs.append(head[0])
    seq = repeat(diffs.pop())
    for d in reversed(diffs):
        seq = accumulate(seq, initial=d)
    return map(modulus.__rmod__, islice(seq, rows))


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
    verdicts are reported, and the weak report from congruence_report
    takes on the strong form exactly when it applies.
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

    lhs = derivative_mod(ps, 0, s0 + p**kk * x, big)
    rhs = (derivative_mod(ps, 0, s0, big) + derivative_mod(ps, 1, s0, big) * p**kk * x) % big
    diff = (lhs - rhs) % big
    val = cap if diff == 0 else vp(diff, p)
    strong_applies = ps.v < ps.t
    details = {
        "weak_holds": val >= weak_exp,
        "strong_holds": val >= strong_exp,
        "strong_applies": strong_applies,
        "difference_valuation": val,
        "saturated": val == cap,
    }
    inputs = {**ps.as_dict(), "s": s0, "kk": kk, "x": x}
    report = congruence_report("corollary3", inputs, lhs, rhs, p, weak_exp, details)
    report.holds = val >= weak_exp and (val >= strong_exp or not strong_applies)
    return report


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
    count = (ps.p - 1) * sum(v == 0 for v in unit_values(ps, 1, 1, threshold))
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
