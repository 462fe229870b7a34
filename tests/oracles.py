"""Independent oracles the tests compare padlab's fast paths against."""

from collections import Counter

from padlab.jet import unit_values
from padlab.padic_core import primitive_root, roots_of_unity, unit_group_order, vp
from padlab.params import ParameterSet, f_exponents
from padlab.report import CheckReport
from padlab.spectrum import ResidueMultiset, act, build_S, j_balanced, stabilizer


def stabilizer_brute_force(s: ResidueMultiset) -> int:
    """|Stab(s)| by scanning every unit; the oracle for small moduli.

    Membership is whole-multiset equality u*S == S, not the counting
    shortcut that spectrum.stabilizer takes."""
    if not s.counts:
        raise ValueError("stabilizer of an empty multiset is undefined")
    return sum(act(u, s) == s for u in range(1, s.p**s.M) if u % s.p != 0)


def j_balanced_brute_force(s: ResidueMultiset, j: int) -> bool:
    """j_balanced by walking all p^j lifts of every fiber that s meets; the
    reference for the grouping pass that spectrum.j_balanced takes."""
    if not 1 <= j < s.M:
        raise ValueError(f"j must satisfy 1 <= j < M = {s.M}, got {j}")
    base_mod = s.p ** (s.M - j)
    seen: set[int] = set()
    for key in s.counts:
        base = key % base_mod
        if base in seen:
            continue
        seen.add(base)
        fiber = {s.counts.get(base + i * base_mod, 0) for i in range(s.p**j)}
        if len(fiber) != 1:
            return False
    return True


def f_multiset_exact(ps: ParameterSet, ns: range) -> Counter:
    """The invertible values f(n) mod p^M over n in ns, with multiplicity,
    from exact integer powers; the reference for build_S and build_S_x at
    exponents small enough to expand."""
    e_plus, e_minus = f_exponents(ps)
    values = ((n**e_plus + n**e_minus) % ps.p**ps.M for n in ns)
    return Counter(v for v in values if v % ps.p)


def lemma5_count_exact(ps: ParameterSet, s: int) -> int:
    """The units u <= p^(a+1) with vp(f'(u)) >= 2a+2t+s+1, counted from the
    exact integer f'(u) (positive, so its valuation is finite); the
    reference for lemma5_count's count of zeros mod p^(2a+2t+s+1)."""
    e_plus, e_minus = f_exponents(ps)
    threshold = 2 * ps.a + 2 * ps.t + s + 1
    units = (u for u in range(1, ps.p ** (ps.a + 1) + 1) if u % ps.p)
    return sum(vp(e_plus * u ** (e_plus - 1) + e_minus * u ** (e_minus - 1), ps.p) >= threshold for u in units)


# The orbit checkers' reports from the full walk of S over all p - 1 unit
# classes: the reference for spectrum's and lemma5_count's one-class route,
# and the route on which theorem1's mu_d part is not true by construction.


def theorem1_full_walk(ps: ParameterSet) -> CheckReport:
    """theorem1_check's report, with S = build_S(ps) walked whole."""
    s = build_S(ps)
    roots = roots_of_unity(ps.d, ps.p, ps.M)
    order = stabilizer(s)
    failing = sorted(g for g in roots if pow(g, order, ps.p**ps.M) != 1)
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
            "dropped_values": ps.p ** (ps.a + 1) - s.total(),
        },
    )


def theorem3_full_walk(ps: ParameterSet) -> CheckReport:
    """theorem3_check's report, with |Stab(S)| read off build_S(ps)."""
    order = stabilizer(build_S(ps))
    expected = ps.d * ps.p**ps.a if ps.v < ps.t else ps.d
    pM = ps.p**ps.M
    generator = pow(primitive_root(ps.p, ps.M), unit_group_order(ps.p, ps.M) // order, pM)
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
            "generator_is_nth_root": pow(generator, expected, pM) == 1,
        },
    )


def balance_full_walk(ps: ParameterSet, j: int) -> CheckReport:
    """balance_check's report, with S = build_S(ps) walked whole."""
    s = build_S(ps)
    balanced = j_balanced(s, j)
    order = stabilizer(s)
    divides = order % ps.p**j == 0
    return CheckReport(
        name="balance",
        inputs={**ps.as_dict(), "j": j},
        holds=balanced == divides,
        lhs=str(balanced).lower(),
        rhs=str(divides).lower(),
        modulus=(ps.p, ps.M),
        details={"balanced": balanced, "stabilizer_order": order},
    )


def lemma5_full_walk(ps: ParameterSet, s: int) -> CheckReport:
    """lemma5_count's report, with the zeros of f' counted in every unit class."""
    threshold = 2 * ps.a + 2 * ps.t + s + 1
    count = sum(v == 0 for r in range(1, ps.p) for v in unit_values(ps, 1, r, ps.p**threshold))
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


def jsonify(v):
    """v with every int that is not a bool as a decimal string and tuples as
    lists; json.dumps(..., sort_keys=True) of jsonify_report's dict is the
    reference for CheckReport.to_json's one-pass text."""
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, dict):
        return {k: jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonify(x) for x in v]
    return v


def jsonify_report(report: CheckReport) -> dict:
    """The report's JSON object built field by field, with margin,
    elapsed_ms and modulus.exp left as numbers."""
    return {
        "name": report.name,
        "inputs": {k: jsonify(v) for k, v in report.inputs.items()},
        "modulus": None if report.modulus is None else {"p": str(report.modulus[0]), "exp": report.modulus[1]},
        "lhs": report.lhs,
        "rhs": report.rhs,
        "holds": report.holds,
        "margin": report.margin,
        "elapsed_ms": report.elapsed_ms,
        "error": report.error,
        "details": jsonify(report.details),
    }
