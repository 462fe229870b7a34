"""Acceptance suite.

Each criterion runs on its full stated grid at exact tolerance and prints
one PASS/FAIL line.  The grids:

  * theorem-1 grid: p in {5, 7}, a in {0, 1}, t in {0, 1}, and for each
    achievable value of gcd(k, p-1) the two smallest valid multiples of
    p^(2a+1);
  * strong grid: same shape over multiples of 2p^(2a+1) with (p-1) never
    dividing k.

  * one-class grid: p in {3, 5, 7, 11, 13}, a, t <= 2, k = c * p^(2a+1+x)
    for c in {1, 2, 3, 4, 6} and x <= 2 with vp(k) - 2a - 1 <= 2, and
    p^(a+1) <= 3000: 621 distinct points.

Criterion 6a maps the validity region of lemma1 on its grid.  The
congruence misses by one valuation exactly where a = 1, (p-1) | r-2 and p
does not divide r-1 (Faulhaber plus von Staudt-Clausen, derived in
lemma1_predicted_margin and in README, "Lemma 1 validity region"); the test
asserts that the observed failures equal that derived set.
"""

import json
import random
from math import gcd
from pathlib import Path

from padlab.bernoulli import prewarm, von_staudt_clausen_check
from padlab.cli import canonical_body, main
from padlab.congruence_suite import corollary2_check, kummer_check, theorem2_check
from padlab.jet import corollary3_check, lemma4_check, lemma5_count
from padlab.padic_core import roots_of_unity, unit_group_order, vp
from padlab.params import ParameterSet
from padlab.powersum import lemma1_check, lemma2_check
from padlab.spectrum import act, balance_check, build_S, stabilizer, theorem1_check, theorem3_check

from oracles import (
    balance_full_walk,
    lemma5_full_walk,
    stabilizer_brute_force,
    theorem1_full_walk,
    theorem3_full_walk,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "acceptance_sweep.json"


def smallest_multiples_per_gcd_class(p: int, a: int, base_factor: int = 1, exclude_full: bool = False):
    """The two smallest valid multiples of base_factor * p^(2a+1) for each
    achievable value of gcd(k, p-1)."""
    base = base_factor * p ** (2 * a + 1)
    classes = {}
    m = 0
    while min((len(v) for v in classes.values()), default=0) < 2 or len(classes) < _n_classes(p, base, exclude_full):
        m += 1
        k = base * m
        g = gcd(k, p - 1)
        if exclude_full and g == p - 1:
            continue
        classes.setdefault(g, [])
        if len(classes[g]) < 2:
            classes[g].append(k)
        if m > 20 * (p - 1):
            break
    return sorted(k for ks in classes.values() for k in ks)


def _n_classes(p, base, exclude_full):
    seen = {gcd(base * m, p - 1) for m in range(1, 4 * (p - 1))}
    if exclude_full:
        seen.discard(p - 1)
    return len(seen)


def theorem1_grid() -> list[ParameterSet]:
    return [
        ParameterSet(p, a, t, k)
        for p in (5, 7)
        for a in (0, 1)
        for t in (0, 1)
        for k in smallest_multiples_per_gcd_class(p, a)
    ]


def strong_grid() -> list[ParameterSet]:
    return [
        ParameterSet(p, a, t, k)
        for p in (5, 7)
        for a in (0, 1)
        for t in (0, 1)
        for k in smallest_multiples_per_gcd_class(p, a, base_factor=2, exclude_full=True)
    ]


def one_class_grid() -> list[ParameterSet]:
    points = {
        (p, a, t, c * p ** (2 * a + 1 + x))
        for p in (3, 5, 7, 11, 13)
        for a in (0, 1, 2)
        for t in (0, 1, 2)
        for x in (0, 1, 2)
        for c in (1, 2, 3, 4, 6)
        if p ** (a + 1) <= 3000
    }
    return [ParameterSet(*pt) for pt in sorted(points) if vp(pt[3], pt[0]) - 2 * pt[1] - 1 <= 2]


def _report(criterion: str, failures: list) -> None:
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"ACCEPTANCE {criterion}: {verdict}")


def test_criterion_1_theorem1_suite():
    # theorem1_check holds by construction, so here every d-th root g must
    # fix the full walk of S, and the report must equal the full walk's
    grid = theorem1_grid()
    assert len(grid) == 56
    failures = []
    for ps in grid:
        s = build_S(ps)
        moved = [g for g in roots_of_unity(ps.d, ps.p, ps.M) if act(g, s) != s]
        if moved:
            failures.append(("moved", ps.as_dict(), moved))
        if theorem1_check(ps).to_json() != theorem1_full_walk(ps).to_json():
            failures.append(("oracle-mismatch", ps.as_dict()))
    _report("1 theorem1 multiset stability", failures)
    assert not failures, failures


def test_criterion_2_theorem3_suite():
    failures = []
    for ps in theorem1_grid():
        rep = theorem3_check(ps)
        if not rep.holds:
            failures.append(("order", ps.as_dict(), rep.lhs, rep.rhs))
        group_order = unit_group_order(ps.p, ps.M)
        assert group_order <= 10**6  # entire grid is within oracle reach
        s = build_S(ps)
        if stabilizer(s) != stabilizer_brute_force(s):
            failures.append(("oracle-mismatch", ps.as_dict()))
    _report("2 theorem3 stabilizer classification", failures)
    assert not failures, failures


def test_criterion_3_theorem2_suite():
    failures = []
    for ps in strong_grid():
        shift = ps.p**ps.a * (ps.p - 1)
        for r in range(-6, 7):
            if ps.k + shift * r <= 0:
                continue
            rep = theorem2_check(ps, r)
            if not rep.holds:
                failures.append((ps.as_dict(), r))
    _report("3 theorem2 linearity", failures)
    assert not failures, failures


def test_criterion_4_kummer_suite():
    prewarm(120)
    vsc_failures = [n for n in range(2, 121, 2) if not von_staudt_clausen_check(n).holds]
    failures = []
    count = 0
    for p in (5, 7, 11, 13):
        for a in (0, 1):
            step = p**a * (p - 1)
            for r in range(2, 121, 2):
                if r % (p - 1) == 0:
                    continue
                for s in range(r + step, 121, step):
                    if s % 2:
                        continue
                    count += 1
                    if not kummer_check(p, a, r, s).holds:
                        failures.append((p, a, r, s))
    _report(f"4 kummer congruences ({count} pairs)", failures + vsc_failures)
    assert not vsc_failures, vsc_failures
    assert count == 1421
    assert not failures, failures


def test_criterion_5_lemma_suites():
    failures = []

    for p in (5, 7):
        for a in (1, 2):
            for rr in (1, 2):
                for kk in range(1, 201):
                    if kk < rr + a or kk % p**rr or kk % (p - 1) == 0:
                        continue
                    if not lemma2_check(p, a, rr, kk).holds:
                        failures.append(("lemma2", p, a, rr, kk))

    grid = theorem1_grid()
    for ps in grid:
        for m in (1, 2, 3):
            for n in range(1, ps.p ** (ps.a + 1) + 1):
                if n % ps.p == 0:
                    continue
                if not lemma4_check(ps, m, n).holds:
                    failures.append(("lemma4", ps.as_dict(), m, n))

    for ps in grid:
        if ps.v != ps.t:
            continue
        for s in range(ps.a + 1):
            if not lemma5_count(ps, s).holds:
                failures.append(("lemma5", ps.as_dict(), s))

    rng = random.Random(20260811)
    for ps in grid:
        for _ in range(100):
            s = rng.randint(1, ps.p ** (ps.a + 2))
            while s % ps.p == 0:
                s = rng.randint(1, ps.p ** (ps.a + 2))
            kk = rng.randint(1, 3)
            x = rng.randint(-50, 50)
            rep = corollary3_check(ps, s, kk, x)
            if not rep.holds:
                failures.append(("corollary3", ps.as_dict(), s, kk, x))

    _report("5 lemma suites (lemma2/lemma4/lemma5/corollary3)", failures)
    assert not failures, failures[:10]


def lemma1_predicted_margin(p: int, a: int, r: int) -> int | None:
    """Margin by which lemma1 misses at (p, a, r), or None where it holds.

    The Faulhaber tail r(r-1)/6 * B_{r-2} * p^(3a) has valuation
    3a + vp(r) + vp(r-1) - 1 when (p-1) | r-2 (von Staudt-Clausen pole of
    B_{r-2}); against the required exponent 2a + vp(r) + 1 that leaves a
    margin of a + vp(r-1) - 2, negative only for a = 1 and p not dividing r-1.
    """
    if a == 1 and (r - 2) % (p - 1) == 0 and (r - 1) % p != 0:
        return a + vp(r - 1, p) - 2
    return None


def test_criterion_6a_lemma1_validity_region():
    # the r = 2 anomaly must reproduce exactly as documented
    rep = lemma1_check(5, 1, 2)
    anomaly_ok = (not rep.holds) and rep.lhs == "55" and rep.rhs == "105" and rep.modulus == (5, 3)

    # the README worked example inside the derived failure region
    rep = lemma1_check(5, 1, 14)
    example_ok = (not rep.holds) and rep.lhs == "60" and rep.rhs == "110" and rep.modulus == (5, 3)

    # derived region: on p in {5,7}, a in {1,2}, even 4 <= r <= 40 the
    # congruence fails exactly at the predicted points, by the predicted margin
    grid = [(p, a, r) for p in (5, 7) for a in (1, 2) for r in range(4, 41, 2)]
    assert len(grid) == 76
    expected = set()
    observed = set()
    for p, a, r in grid:
        margin = lemma1_predicted_margin(p, a, r)
        if margin is not None:
            expected.add((p, a, r, margin))
        out = lemma1_check(p, a, r)
        if not out.holds:
            observed.add((p, a, r, out.margin))

    failures = [] if anomaly_ok else ["r=2 anomaly not reproduced"]
    failures += [] if example_ok else ["p=5, a=1, r=14 example not reproduced"]
    failures += sorted(expected ^ observed)
    _report("6a lemma1 validity region", failures)
    print(f"  derived counterexamples (p, a, r, margin): {sorted(observed)}")
    assert anomaly_ok
    assert example_ok
    assert observed == expected, (
        f"unpredicted failures: {sorted(observed - expected)}; "
        f"predicted failures that held or changed margin: {sorted(expected - observed)}"
    )


def test_criterion_6b_corollary2_validity_region():
    rep = corollary2_check(5, 0, 0, 1, 0)
    b1_ok = (not rep.holds) and rep.lhs == "5" and rep.modulus == (5, 2)

    failures = [] if b1_ok else ["b=1 failure not reproduced"]
    for ps in strong_grid():
        b = (ps.k - ps.p**ps.a * (ps.p - 1)) * ps.p**ps.t
        out = corollary2_check(ps.p, ps.a, ps.t, b, ps.v)
        if not out.holds:
            failures.append((ps.as_dict(), b))
    _report("6b corollary2 validity region", failures)
    assert not failures, failures


def test_criterion_7_sweep_determinism(tmp_path):
    bodies = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.json"
        code = main(["sweep", "--config", str(CONFIG), "--out", str(out)])
        assert code == 0
        raw = json.loads(out.read_text())
        bodies.append(json.dumps(canonical_body(raw), sort_keys=True))
    same = bodies[0] == bodies[1]
    _report("7 sweep determinism", [] if same else ["bodies differ"])
    assert same


def test_criterion_8_one_class_route_matches_the_full_walk():
    # theorem1, theorem3, balance and lemma5 read class 1 alone and turn it
    # by the Teichmüller roots; the full walk of all p - 1 classes is the
    # independent route, on which theorem1's mu_d part is not true by
    # construction, and every report must match it byte for byte
    grid = one_class_grid()
    failures = []
    pairs = {"theorem1": 0, "theorem3": 0, "balance": 0, "lemma5": 0}
    for ps in grid:
        runs = [(theorem1_check(ps), theorem1_full_walk(ps)), (theorem3_check(ps), theorem3_full_walk(ps))]
        runs += [(balance_check(ps, j), balance_full_walk(ps, j)) for j in range(1, ps.M)]
        if ps.v == ps.t:
            runs += [(lemma5_count(ps, s), lemma5_full_walk(ps, s)) for s in range(ps.a + 1)]
        for fast, full in runs:
            pairs[fast.name] += 1
            if fast.to_json() != full.to_json():
                failures.append((fast.name, fast.inputs))
    _report("8 one-class route matches the full walk", failures)
    assert not failures, failures[:10]
    assert pairs == {"theorem1": 621, "theorem3": 621, "balance": 3450, "lemma5": 828}
