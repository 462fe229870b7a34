"""The value multiset S of f(n) = n^((k+p^a(p-1))p^t) + n^((k-p^a(p-1))p^t)
mod p^M over the units n <= p^(a+1), the unit action on it, and stabilizers.

build_S walks all p - 1 unit classes mod p and build_S_x one, each through
jet.unit_values; the checks read S_1 = build_S_x(ps, 1), 1/(p-1) of the
walk.  By jet's proof, a unit n ≡ ζu mod p^(a+1) has f(n) ≡ ζ^e+ f(u) mod
p^M, and ζ^e+ runs over mu_d, (p-1)/d times each (gcd(e+, p-1) = gcd(k,
p-1)): S is (p-1)/d copies of the sum of η*S_1 over η in mu_d.  As S_1 ≡
f(1) = 2 mod p, the d translates lie in distinct cosets mod p, so a unit
ωu (ω Teichmüller, u ≡ 1 mod p) fixes S iff ω is in mu_d and u fixes S_1,
and a unit ≢ 1 mod p moves S_1.  So |Stab(S)| = d*stabilizer(S_1), S has
d*len(S_1) keys and (p-1)*S_1.total() values, and S is j-balanced iff S_1
is, as a fiber mod p^(M-j) lies in one coset and η maps fibers onto fibers.
The unit group is cyclic, so Stab(S) = mu_n is fixed by n = |Stab(S)|.
theorem1_check reports mu_d in Stab(S) without a scan, as each g in mu_d
permutes the d translates (tests/oracles.py keeps the full walk as its
independent route), theorem3_check compares n against d*p^a (v < t) or d
(v = t) and reports the generator h^(n0/n) of mu_n (h the primitive root,
n0 the unit group order), and balance_check verifies that j_balanced, the
fiber-equidistribution diagnostic, agrees with the p-part of n, j by j.

Two ResidueMultisets are equal when their moduli and multiplicities
agree: corollary1's verdict on S_x = S_y, and what "g fixes s" means,
act(g, s) == s.
"""

from collections import Counter
from itertools import chain
from math import gcd

from .jet import derivative_mod, unit_values
from .padic_core import factorize, primitive_root, unit_group_order
from .params import ParameterSet
from .report import CheckReport, Record


class ResidueMultiset(Record):
    """Map from invertible residue value mod p^M to positive multiplicity;
    two are equal when p, M and every multiplicity agree."""

    def __init__(self, p: int, M: int, counts: dict[int, int]):
        pM = p**M
        for key, c in counts.items():
            if not 0 <= key < pM:
                raise ValueError(f"residue {key} out of range for modulus {p}^{M}")
            if key % p == 0:
                raise ValueError(f"residue {key} is not invertible mod {p}^{M}")
            if c < 1:
                raise ValueError(f"multiplicity of {key} must be positive, got {c}")
        self.p = p
        self.M = M
        self.counts = counts

    def total(self) -> int:
        return sum(self.counts.values())

    def __len__(self):
        return len(self.counts)


def build_S(ps: ParameterSet) -> ResidueMultiset:
    """The multiset of f(n) mod p^M over the units n <= p^(a+1), all p - 1
    classes: p^(a+1) - p^a values, invertible as f(n) ≡ 2n^(kp^t) mod p."""
    walks = (unit_values(ps, 0, r, ps.M) for r in range(1, ps.p))
    return ResidueMultiset(ps.p, ps.M, Counter(chain.from_iterable(walks)))


def build_S_x(ps: ParameterSet, x: int) -> ResidueMultiset:
    """As build_S but over the one class n ≡ x (mod p); total multiplicity p^a."""
    if x % ps.p == 0:
        raise ValueError(f"x = {x} must be invertible mod p = {ps.p}")
    return ResidueMultiset(ps.p, ps.M, Counter(unit_values(ps, 0, x % ps.p, ps.M)))


def act(g: int, s: ResidueMultiset) -> ResidueMultiset:
    """The multiset {g*x : x in s}, multiplicities carried along."""
    if g % s.p == 0:
        raise ValueError(f"non-invertible residue: {s.p} divides {g}")
    pM = s.p**s.M
    return ResidueMultiset(s.p, s.M, {(g * k) % pM: c for k, c in s.counts.items()})


def theorem1_check(ps: ParameterSet) -> CheckReport:
    """Check that every d-th root of unity g satisfies g*S = S.  S is
    (p-1)/d copies of the translates η*S_1, η in mu_d (module docstring),
    which g permutes, so the verdict holds by construction and no root is
    scanned; acceptance criteria 1 and 8 check it on the full walk."""
    s1 = build_S_x(ps, 1)
    total = (ps.p - 1) * s1.total()
    return CheckReport(
        name="theorem1",
        inputs=ps.as_dict(),
        holds=True,
        lhs="g*S for all d-th roots g",
        rhs="S",
        modulus=(ps.p, ps.M),
        details={
            "roots_tested": ps.d,
            "failing_roots": [],
            "support_size": ps.d * len(s1),
            "total_multiplicity": total,
            "dropped_values": ps.p ** (ps.a + 1) - total,
        },
    )


def transport_check(ps: ParameterSet, g: int, xprime: int, n: int) -> CheckReport:
    """Check f(n') ≡ g*f(n) mod p^M for n' ≡ n*x' mod p^(a+1), x'^k' ≡ g mod p^(a+1)."""
    pM = ps.p**ps.M
    p_a1 = ps.p ** (ps.a + 1)
    g %= pM
    if pow(g, ps.d, pM) != 1:
        raise ValueError(f"g = {g} is not a {ps.d}-th root of unity mod {ps.p}^{ps.M}")
    if pow(xprime, ps.kprime, p_a1) != g % p_a1:
        raise ValueError(
            f"x'^k' = {xprime}^{ps.kprime} is not ≡ g = {g} mod p^(a+1) = {p_a1}"
        )
    if n % ps.p == 0:
        raise ValueError(f"n = {n} must be invertible mod p = {ps.p}")

    nprime = (n * xprime - 1) % p_a1 + 1  # representative in [1, p^(a+1)]
    lhs = derivative_mod(ps, 0, nprime, pM)
    rhs = g * derivative_mod(ps, 0, n, pM) % pM
    return CheckReport(
        name="transport",
        inputs={**ps.as_dict(), "g": g, "xprime": xprime, "n": n},
        holds=lhs == rhs,
        lhs=str(lhs),
        rhs=str(rhs),
        modulus=(ps.p, ps.M),
        details={"nprime": nprime},
    )


def corollary1_check(ps: ParameterSet, x: int, mu: int) -> CheckReport:
    """Check S_x = S_y for y = x*mu, mu a gcd(k,p-1)-th root of unity mod p."""
    gk = (ps.p - 1) // ps.d
    if pow(mu, gk, ps.p) != 1:
        raise ValueError(f"mu = {mu} is not a {gk}-th root of unity mod {ps.p}")
    y = x * mu % ps.p
    s_x = build_S_x(ps, x)
    s_y = build_S_x(ps, y)
    return CheckReport(
        name="corollary1",
        inputs={**ps.as_dict(), "x": x, "mu": mu},
        holds=s_x == s_y,
        lhs=f"S_{x % ps.p}",
        rhs=f"S_{y}",
        modulus=(ps.p, ps.M),
        details={"y": y, "total_multiplicity": s_x.total()},
    )


def stabilizer(s: ResidueMultiset) -> int:
    """|Stab(s)|, the order of the stabilizer of s under unit multiplication.

    Stab(s) maps each level of s (its keys of one multiplicity) to itself
    and acts on it freely, so |Stab(s)| divides the gcd of the level sizes.
    The unit group is cyclic: its g of order q^j fixes s, act(g, s) == s,
    iff q^j divides |Stab(s)|, so each q^e in that gcd is tried from j = e
    down.  A scan cannot exit early; the level bound keeps failing ones rare.
    """
    if not s.counts:
        raise ValueError("stabilizer of an empty multiset is undefined")
    pM = s.p**s.M
    n0 = unit_group_order(s.p, s.M)
    h = primitive_root(s.p, s.M)
    order = 1
    for q, e in factorize(gcd(n0, *Counter(s.counts.values()).values())).items():
        j = e
        while j and act(pow(h, n0 // q**j, pM), s) != s:
            j -= 1
        order *= q**j
    return order


def theorem3_check(ps: ParameterSet) -> CheckReport:
    """Check Stab(S) = mu_n with n = d*p^a when v < t and n = d when v = t."""
    order = ps.d * stabilizer(build_S_x(ps, 1))
    expected = ps.d * ps.p**ps.a if ps.v < ps.t else ps.d
    pM = ps.p**ps.M
    generator = pow(primitive_root(ps.p, ps.M), unit_group_order(ps.p, ps.M) // order, pM)
    is_root_group = pow(generator, expected, pM) == 1
    return CheckReport(
        name="theorem3",
        inputs=ps.as_dict(),
        holds=order == expected,
        lhs=str(order),
        rhs=str(expected),
        modulus=(ps.p, ps.M),
        details={
            "generator": generator,
            "branch": "v<t" if ps.v < ps.t else "v=t",
            "generator_is_nth_root": is_root_group,
        },
    )


def _check_j(j: int, M: int) -> None:
    if not 1 <= j < M:
        raise ValueError(f"j must satisfy 1 <= j < M = {M}, got {j}")


def j_balanced(s: ResidueMultiset, j: int) -> bool:
    """True iff every fiber of reduction mod p^(M-j) that meets s holds all
    p^j lifts of its base, each with the same multiplicity."""
    _check_j(j, s.M)
    base_mod = s.p ** (s.M - j)
    fibers: dict[int, list[int]] = {}
    for key, c in s.counts.items():
        fibers.setdefault(key % base_mod, []).append(c)
    return all(len(cs) == s.p**j and len(set(cs)) == 1 for cs in fibers.values())


def balance_check(ps: ParameterSet, j: int) -> CheckReport:
    """Check that S is j-balanced exactly when p^j divides |Stab(S)|: the
    units' subgroup of order p^j is {x ≡ 1 mod p^(M-j)}, whose orbits are
    the fibers of reduction mod p^(M-j)."""
    _check_j(j, ps.M)  # before S_1, which costs far more than the check
    s1 = build_S_x(ps, 1)
    balanced = j_balanced(s1, j)
    order = ps.d * stabilizer(s1)
    divides = order % ps.p**j == 0
    return CheckReport(
        name="balance",
        inputs={**ps.as_dict(), "j": j},
        holds=balanced == divides,
        lhs=str(balanced).lower(),  # S is j-balanced
        rhs=str(divides).lower(),  # p^j divides the stabilizer order
        modulus=(ps.p, ps.M),
        details={"balanced": balanced, "stabilizer_order": order},
    )
