"""The value multiset of f(n) = n^((k+p^a(p-1))p^t) + n^((k-p^a(p-1))p^t)
mod p^M, the multiplication action of the unit group on it, and stabilizer
classification.

build_S collects f(1..p^(a+1)) keeping invertible values only, with
multiplicity; f itself is evaluated in jet.derivative_values, here as
everywhere.  theorem1_check verifies that every d-th root of unity
fixes the multiset; stabilizer computes the full stabilizer subgroup
(cyclic, so it is determined by the largest stabilizing prime-power
orders); theorem3_check compares the stabilizer order against d*p^a
(v < t) or d (v = t).  j_balanced is the fiber-equidistribution
diagnostic that controls the p-part of the stabilizer; balance_check
verifies that it agrees with the stabilizer order, j by j.

Two ResidueMultisets are equal when their moduli and multiplicities
agree, which is corollary1's verdict on S_x = S_y.  A SubgroupDescriptor
checks at construction that its generator has the order it states.
"""

from collections import Counter
from math import gcd

from .jet import derivative_mod, derivative_values
from .padic_core import element_order, primitive_root, roots_of_unity, unit_group_factors, unit_group_order
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


class SubgroupDescriptor(Record):
    """A cyclic subgroup of the unit group mod p^M: its order and a generator."""

    def __init__(self, order: int, generator: int, p: int, M: int):
        if element_order(generator, p, M) != order:
            raise ValueError(f"generator {generator} does not have order {order}")
        self.order = order
        self.generator = generator
        self.p = p
        self.M = M


def _f_multiset(ps: ParameterSet, ns: range) -> ResidueMultiset:
    """The multiset of invertible values f(n) mod p^M over n in ns."""
    counts = Counter(v for v in derivative_values(ps, 0, ns, ps.p**ps.M) if v % ps.p)
    return ResidueMultiset(ps.p, ps.M, dict(counts))


def build_S(ps: ParameterSet) -> ResidueMultiset:
    """The multiset of invertible values f(n) mod p^M for n = 1..p^(a+1).

    Values divisible by p (exactly the n with p | n) are dropped, so the
    total multiplicity is p^(a+1) - p^a.
    """
    return _f_multiset(ps, range(1, ps.p ** (ps.a + 1) + 1))


def build_S_x(ps: ParameterSet, x: int) -> ResidueMultiset:
    """As build_S but restricted to n ≡ x (mod p); total multiplicity p^a."""
    if x % ps.p == 0:
        raise ValueError(f"x = {x} must be invertible mod p = {ps.p}")
    return _f_multiset(ps, range(x % ps.p, ps.p ** (ps.a + 1) + 1, ps.p))


def act(g: int, s: ResidueMultiset) -> ResidueMultiset:
    """The multiset {g*x : x in s}, multiplicities carried along."""
    if g % s.p == 0:
        raise ValueError(f"non-invertible residue: {s.p} divides {g}")
    pM = s.p**s.M
    return ResidueMultiset(s.p, s.M, {(g * k) % pM: c for k, c in s.counts.items()})


def _stabilizes(gval: int, s: ResidueMultiset) -> bool:
    # g*S and S have equal totals and g acts injectively, so checking the
    # counts of all images of the support decides multiset equality
    pM = s.p**s.M
    counts = s.counts
    for key, c in counts.items():
        if counts.get((gval * key) % pM, 0) != c:
            return False
    return True


def theorem1_check(ps: ParameterSet) -> CheckReport:
    """Check that every d-th root of unity g satisfies g*S = S."""
    s = build_S(ps)
    roots = roots_of_unity(ps.d, ps.p, ps.M)
    failing = sorted(g for g in roots if not _stabilizes(g, s))
    dropped = ps.p ** (ps.a + 1) - s.total()
    return CheckReport(
        name="theorem1",
        inputs=ps.as_dict(),
        holds=not failing,
        lhs="g*S for all d-th roots g",
        rhs="S",
        modulus=(ps.p, ps.M),
        details={
            "roots_tested": len(roots),
            "failing_roots": failing,
            "support_size": len(s),
            "total_multiplicity": s.total(),
            "dropped_values": dropped,
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
    gk = gcd(ps.k, ps.p - 1)
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


def stabilizer(s: ResidueMultiset) -> SubgroupDescriptor:
    """The full stabilizer of s under unit multiplication.

    The ambient group is cyclic of order p^(M-1)(p-1), so the stabilizer
    is the unique cyclic subgroup whose order is the product, over primes
    q dividing the group order, of the largest q-power q^f such that the
    canonical element of order q^f fixes s.
    """
    if not s.counts:
        raise ValueError("stabilizer of an empty multiset is undefined")
    p, M = s.p, s.M
    pM = p**M
    n0 = unit_group_order(p, M)
    h = primitive_root(p, M)
    order = 1
    for q, e in unit_group_factors(p, M).items():
        for j in range(1, e + 1):
            if not _stabilizes(pow(h, n0 // q**j, pM), s):
                break
            order *= q
    return SubgroupDescriptor(order, pow(h, n0 // order, pM), p, M)


def theorem3_check(ps: ParameterSet) -> CheckReport:
    """Check Stab(S) = mu_n with n = d*p^a when v < t and n = d when v = t."""
    s = build_S(ps)
    sub = stabilizer(s)
    expected = ps.d * ps.p**ps.a if ps.v < ps.t else ps.d
    is_root_group = pow(sub.generator, expected, ps.p**ps.M) == 1
    return CheckReport(
        name="theorem3",
        inputs=ps.as_dict(),
        holds=sub.order == expected,
        lhs=str(sub.order),
        rhs=str(expected),
        modulus=(ps.p, ps.M),
        details={
            "generator": sub.generator,
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
    _check_j(j, ps.M)  # before S, which costs far more than the check
    s = build_S(ps)
    balanced = j_balanced(s, j)
    order = stabilizer(s).order
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
