"""Independent oracles the tests compare padlab's fast paths against."""

from collections import Counter

from padlab.padic_core import vp
from padlab.params import ParameterSet, f_exponents
from padlab.report import CheckReport
from padlab.spectrum import ResidueMultiset, act


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
