import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padlab.jet as jet_module
from padlab.jet import derivative_mod, lemma5_count
from padlab.padic_core import element_order, roots_of_unity
import padlab.spectrum as spectrum_module
from padlab.params import ParameterSet
from padlab.spectrum import (
    ResidueMultiset,
    act,
    balance_check,
    build_S,
    build_S_x,
    corollary1_check,
    j_balanced,
    stabilizer,
    theorem1_check,
    theorem3_check,
    transport_check,
)

from oracles import f_multiset_exact, j_balanced_brute_force, stabilizer_brute_force

PS = ParameterSet(5, 0, 0, 10)
M25 = (5, 2)


class TestMultiset:
    def test_rejects_non_invertible_key(self):
        with pytest.raises(ValueError, match="not invertible"):
            ResidueMultiset(*M25, {10: 1})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ResidueMultiset(*M25, {30: 1})

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError, match="positive"):
            ResidueMultiset(*M25, {2: 0})

    def test_from_values(self):
        s = ResidueMultiset(*M25, {2: 2, 23: 1})
        assert s.counts == {2: 2, 23: 1}
        assert s.total() == 3 and len(s) == 2

    def test_equality_is_by_modulus_and_multiplicities(self):
        s = ResidueMultiset(*M25, {2: 2, 23: 1})
        assert s == ResidueMultiset(5, 2, {23: 1, 2: 2})
        assert s != ResidueMultiset(*M25, {2: 1, 23: 2})
        assert s != ResidueMultiset(*M25, {2: 2})
        assert s != ResidueMultiset(5, 3, {2: 2, 23: 1})
        assert s != {2: 2, 23: 1}


class TestEvalF:
    def test_examples(self):
        # f(n) = n^14 + n^6 mod 25 is derivative_mod's order 0
        assert derivative_mod(PS, 0, 2, 25) == 23
        assert derivative_mod(PS, 0, 1, 25) == 2
        assert derivative_mod(PS, 0, 5, 25) == 0


class TestBuildS:
    def test_example(self):
        assert build_S(PS).counts == {2: 2, 23: 2}

    def test_total_multiplicity(self):
        for args in [(5, 0, 0, 10), (5, 0, 1, 10), (5, 1, 0, 125), (7, 0, 0, 14), (7, 1, 1, 343), (5, 0, 0, 5)]:
            ps = ParameterSet(*args)
            assert build_S(ps).total() == ps.p ** (ps.a + 1) - ps.p**ps.a

    @pytest.mark.parametrize("args", [(5, 0, 0, 10), (5, 1, 0, 125), (7, 1, 1, 343)])
    def test_evaluates_f_only_at_units(self, monkeypatch, args):
        # f(n) ≡ 2n^(kp^t) mod p is a unit exactly when n is, so a multiple
        # of p would be evaluated only for its value to be dropped
        ps = ParameterSet(*args)
        seen = []
        real = jet_module.derivative_values

        def spy(ps_, m, ns, modulus):
            ns = list(ns)
            seen.extend(ns)
            return real(ps_, m, ns, modulus)

        monkeypatch.setattr(jet_module, "derivative_values", spy)
        rep = theorem1_check(ps)
        # the walk evaluates f only at the first min(p^a, D + 1) units of
        # class 1, which the Teichmüller roots turn into the other classes
        head = min(ps.p**ps.a, jet_module.degree_bound(ps, 0, ps.p**ps.M) + 1)
        assert seen == [1 + ps.p * q for q in range(head)]
        assert rep.details["dropped_values"] == ps.p**ps.a
        # lemma5 walks the same units of f'; k * p^t makes v = t, which it requires
        seen.clear()
        ps5 = ParameterSet(ps.p, ps.a, ps.t, ps.k * ps.p**ps.t)
        lemma5_count(ps5, 0)
        head = min(ps.p**ps.a, jet_module.degree_bound(ps5, 1, ps.p ** (2 * ps.a + 2 * ps.t + 1)) + 1)
        assert seen == [1 + ps.p * q for q in range(head)]

    def test_class_walk_evaluates_d_plus_one_rows(self, monkeypatch):
        # an orbit-wall point with 13^4 - 13^3 = 26364 units: a lazy spy
        # records the n that unit_values draws, in the order drawn, so it
        # sees the D + 1 head rows of class 1, the one class theorem3 walks
        ps = ParameterSet(13, 3, 0, 13**7 * 67)
        drawn = []
        real = jet_module.derivative_values

        def spy(ps_, m, ns, modulus):
            return real(ps_, m, (drawn.append(n) or n for n in ns), modulus)

        monkeypatch.setattr(jet_module, "derivative_values", spy)
        rep = theorem3_check(ps)
        bound = jet_module.degree_bound(ps, 0, ps.p**ps.M)
        assert rep.holds and rep.lhs == rep.rhs == "12"
        assert bound < ps.p**ps.a
        assert drawn == [1 + ps.p * q for q in range(bound + 1)]

    def test_restricted_example(self):
        assert build_S_x(PS, 2).counts == {23: 1}

    def test_restriction_partitions(self):
        for args in [(5, 0, 0, 10), (5, 0, 1, 10), (7, 0, 0, 14)]:
            ps = ParameterSet(*args)
            union = Counter()
            for x in range(1, ps.p):
                union.update(build_S_x(ps, x).counts)
            assert dict(union) == build_S(ps).counts

    @pytest.mark.parametrize("args", [(5, 0, 0, 5), (5, 0, 1, 10), (3, 0, 2, 3), (5, 1, 0, 125), (7, 1, 1, 343)])
    def test_matches_exact_powers(self, args):
        ps = ParameterSet(*args)
        top = ps.p ** (ps.a + 1)
        assert build_S(ps).counts == f_multiset_exact(ps, range(1, top + 1))
        for x in range(1, ps.p):
            assert build_S_x(ps, x).counts == f_multiset_exact(ps, range(x, top + 1, ps.p))

    def test_restricted_total(self):
        ps = ParameterSet(5, 1, 0, 125)
        assert build_S_x(ps, 1).total() == 5

    def test_rejects_non_unit_class(self):
        with pytest.raises(ValueError, match="invertible"):
            build_S_x(PS, 10)


class TestAct:
    def test_identity(self):
        s = build_S(PS)
        assert act(1, s) == s

    def test_example_swap(self):
        s = ResidueMultiset(*M25, {2: 2, 23: 2})
        assert act(24, s).counts == {23: 2, 2: 2}
        assert act(-1, s) == act(24, s)

    def test_action_law(self):
        s = build_S(ParameterSet(5, 1, 0, 125))
        for g in (7, 11, 13):
            for h in (3, 9):
                assert act(g, act(h, s)) == act(g * h % s.p**s.M, s)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="non-invertible"):
            act(5, build_S(PS))


class TestTheorem1:
    def test_example(self):
        rep = theorem1_check(PS)
        assert rep.holds
        assert rep.details["roots_tested"] == 2
        assert rep.details["dropped_values"] == 1

    def test_d1_vacuous(self):
        ps = ParameterSet(5, 0, 0, 20)
        assert ps.d == 1
        rep = theorem1_check(ps)
        assert rep.holds and rep.details["roots_tested"] == 1

    def test_larger_point(self):
        ps = ParameterSet(5, 1, 0, 125)
        assert (ps.d, ps.M) == (4, 5)
        assert theorem1_check(ps).holds

    def test_minimal_k(self):
        assert theorem1_check(ParameterSet(5, 0, 0, 5)).holds


class TestTransport:
    def test_trivial(self):
        assert transport_check(PS, 1, 1, 1).holds

    def test_example(self):
        # 2^kprime = 4 ≡ 24 mod 5, and f(2) ≡ 24*f(1) mod 25
        rep = transport_check(PS, 24, 2, 1)
        assert rep.holds and rep.details["nprime"] == 2
        assert rep.lhs == "23" and rep.rhs == "23"

    def test_example_wraps(self):
        rep = transport_check(PS, 24, 2, 3)
        assert rep.holds and rep.details["nprime"] == 1
        assert rep.lhs == "2"

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError, match=r"g = 2 is not a 2-th root of unity mod 5\^2"):
            transport_check(PS, 2, 2, 1)

    def test_rejects_mismatched_xprime(self):
        # 1^kprime = 1 while g ≡ 4 mod 5
        with pytest.raises(ValueError, match="x'"):
            transport_check(PS, 24, 1, 1)

    def test_rejects_non_unit_n(self):
        with pytest.raises(ValueError, match="invertible"):
            transport_check(PS, 24, 2, 5)

    def test_across_all_units(self):
        # the identity behind corollary1: every unit n transports
        for n in (1, 2, 3, 4, 6, 7, 8, 9):
            assert transport_check(PS, 24, 2, n).holds


class TestCorollary1:
    def test_trivial_mu(self):
        assert corollary1_check(PS, 3, 1).holds

    def test_examples(self):
        assert corollary1_check(PS, 1, 4).holds
        assert corollary1_check(PS, 2, 4).holds
        assert build_S_x(PS, 1).counts == {2: 1}
        assert build_S_x(PS, 4).counts == {2: 1}

    def test_rejects_non_root_mu(self):
        with pytest.raises(ValueError, match="root of unity"):
            corollary1_check(PS, 1, 2)

    def test_rejects_non_unit_x(self):
        with pytest.raises(ValueError, match=r"^x = 5 must be invertible mod p = 5$"):
            corollary1_check(PS, 5, 1)

    def test_verdict_is_multiset_equality(self, monkeypatch):
        # y = 2*4 = 3 mod 5 shares S_2; S_1 differs from S_2, so a corollary1
        # that is handed S_1 for S_3 must fail on ResidueMultiset's !=
        assert build_S_x(PS, 2) == build_S_x(PS, 3) and build_S_x(PS, 2) is not build_S_x(PS, 3)
        assert build_S_x(PS, 1) != build_S_x(PS, 2)
        assert corollary1_check(PS, 2, 4).holds
        real = spectrum_module.build_S_x
        monkeypatch.setattr(spectrum_module, "build_S_x", lambda ps, x: real(ps, 1 if x == 3 else x))
        rep = corollary1_check(PS, 2, 4)
        assert rep.status == "failed" and rep.rhs == "S_3"


class TestStabilizer:
    def test_example(self):
        assert stabilizer(ResidueMultiset(*M25, {2: 2, 23: 2})) == 2
        # that multiset is build_S(PS), whose stabilizer mu_2 theorem3 generates by -1
        assert build_S(PS).counts == {2: 2, 23: 2}
        assert theorem3_check(PS).details["generator"] == 24

    def test_singleton(self):
        assert stabilizer(ResidueMultiset(5, 1, {1: 1})) == 1

    def test_full_unit_set(self):
        s = ResidueMultiset(7, 1, {u: 1 for u in range(1, 7)})
        assert stabilizer(s) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stabilizer(ResidueMultiset(*M25, {}))

    @pytest.mark.parametrize(
        "args",
        [
            (5, 0, 0, 10),
            (5, 0, 0, 5),
            (5, 0, 1, 10),
            (5, 1, 0, 125),
            (5, 0, 1, 25),
            (7, 0, 1, 14),
            # -1 swaps 1 and 24 but not their multiplicities: the order is 1
            ResidueMultiset(5, 2, {1: 2, 24: 1}),
            # one level of 4 keys bounds |Stab| by 4, but no unit other than 1
            # fixes it: the descent runs from order 4 down to 1
            ResidueMultiset(13, 1, {1: 1, 2: 1, 3: 1, 5: 1}),
            # the bound is 4 and -1 fixes the set, but neither 5 nor 8 (order 4) does
            ResidueMultiset(13, 1, {1: 1, 12: 1, 2: 1, 11: 1}),
        ],
    )
    def test_matches_brute_force(self, args):
        s = args if isinstance(args, ResidueMultiset) else build_S(ParameterSet(*args))
        assert stabilizer(s) == stabilizer_brute_force(s)

    @settings(deadline=None)  # the brute force scans 2028 units at 13^3
    @given(st.data())
    def test_matches_brute_force_on_unions_of_cosets(self, data):
        # a union of cosets of a random subgroup H, one random multiplicity
        # per coset, so H fixes it; one extra key sometimes leaves a rare
        # level, and then the level-size bound need not be tight
        p = data.draw(st.sampled_from([3, 5, 7, 13]))
        M = data.draw(st.integers(1, 3))
        pM = p**M
        units = [u for u in range(1, pM) if u % p]
        m = data.draw(st.sampled_from([m for m in range(1, len(units) + 1) if len(units) % m == 0]))
        subgroup = [u for u in units if pow(u, m, pM) == 1]
        counts = {}
        for x in data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=3)):
            counts.update(dict.fromkeys((x * u % pM for u in subgroup), data.draw(st.integers(1, 3))))
        if data.draw(st.booleans()):
            counts[data.draw(st.sampled_from(units))] = data.draw(st.integers(1, 4))
        s = ResidueMultiset(p, M, counts)
        assert stabilizer(s) == stabilizer_brute_force(s)

    @settings(deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 13]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([1, 2, 3]),
    )
    def test_verdicts_do_not_depend_on_key_order(self, p, a, t, extra, cofactor):
        # S's keys come in the order the walk meets them (p^(a+1) <= 13^3
        # here); the same multiset with its keys sorted, or reversed, must
        # give the same stabilizer and the same j-balance at every j
        ps = ParameterSet(p, a, t, cofactor * p ** (2 * a + 1 + extra))
        s = build_S(ps)
        order = stabilizer(s)
        balanced = [j_balanced(s, j) for j in range(1, ps.M)]
        for keys in (sorted(s.counts), sorted(s.counts, reverse=True)):
            copy = ResidueMultiset(p, ps.M, {key: s.counts[key] for key in keys})
            assert list(copy.counts) == keys and copy == s
            assert stabilizer(copy) == order
            assert [j_balanced(copy, j) for j in range(1, ps.M)] == balanced

    def test_orbit_consistency(self):
        ps = ParameterSet(5, 1, 0, 125)
        s = build_S(ps)
        order = stabilizer(s)
        pM = s.p**s.M
        g = theorem3_check(ps).details["generator"]
        acc = 1
        for _ in range(order):
            acc = acc * g % pM
            assert act(acc, s) == s
        # elements outside the stabilizer move the multiset
        outside = [u for u in range(2, 40) if u % 5 and pow(u, order, pM) != 1]
        assert any(act(u, s) != s for u in outside)


class TestTheorem3:
    def test_v_equals_t(self):
        rep = theorem3_check(PS)
        assert rep.holds and rep.lhs == "2" and rep.rhs == "2"
        assert rep.details["branch"] == "v=t"

    def test_v_less_than_t(self):
        ps = ParameterSet(5, 1, 1, 125)
        assert (ps.v, ps.t) == (0, 1)
        rep = theorem3_check(ps)
        assert rep.holds and rep.rhs == "20"

    def test_v_equals_t_positive(self):
        ps = ParameterSet(5, 0, 1, 25)
        assert ps.v == ps.t == 1
        rep = theorem3_check(ps)
        assert rep.holds and rep.rhs == "4"

    @pytest.mark.parametrize(
        "args, passing",
        [
            # |Stab(S)| = 12 = d: Stab(S_1) is trivial and its level sizes
            # have gcd 1, so S_1 is not scanned at all
            ((13, 3, 0, 13**7 * 67), 0),
            # |Stab(S)| = 21 = 3 * 7, d = 3: the element of order 7 fixes S_1
            ((7, 1, 1, 686), 1),
        ],
    )
    def test_scans_S_once_per_prime_of_stab(self, monkeypatch, args, passing):
        # theorem3 reads d times the stabilizer of S_1, the values on class
        # 1, whose level-size bound is |Stab(S_1)| here: it scans S_1 once
        # per prime of |Stab(S_1)|, from that prime's top power, and every
        # scan passes, so the descent never steps down
        real = spectrum_module._stabilizes
        results = []

        def spy(gval, s):
            results.append(real(gval, s))
            return results[-1]

        monkeypatch.setattr(spectrum_module, "_stabilizes", spy)
        assert theorem3_check(ParameterSet(*args)).holds
        assert results.count(True) == passing
        assert results.count(False) == 0

    def test_mu_d_contained(self):
        # the theorem1 containment restated at stabilizer level
        for args in [(5, 0, 0, 10), (5, 0, 1, 10), (7, 0, 0, 14), (5, 1, 0, 125)]:
            ps = ParameterSet(*args)
            assert stabilizer(build_S(ps)) % ps.d == 0
            for g in roots_of_unity(ps.d, ps.p, ps.M):
                assert act(g, build_S(ps)) == build_S(ps)

    @settings(deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 13]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([1, 2, 3]),
    )
    def test_reports_a_generator_of_the_stabilizer(self, p, a, t, extra, cofactor):
        # the generator h^(n0/|Stab(S)|) has order lhs and fixes S; it is
        # an rhs-th root of unity exactly when lhs divides rhs
        ps = ParameterSet(p, a, t, cofactor * p ** (2 * a + 1 + extra))
        rep = theorem3_check(ps)
        generator = int(rep.details["generator"])
        assert element_order(generator, p, ps.M) == int(rep.lhs)
        assert act(generator, build_S(ps)) == build_S(ps)
        assert rep.details["generator_is_nth_root"] == (int(rep.rhs) % int(rep.lhs) == 0)

    @pytest.mark.parametrize("order, is_root", [(1, True), (4, False)])
    def test_reports_an_unexpected_order(self, monkeypatch, order, is_root):
        # theorem3 reads d times the stabilizer of S_1; at (5, 1, 1, 500)
        # d = 1, the expected order is d*p^a = 5 and n0 = 12500, so the
        # injected order is the one checked; another order than 5 fails the
        # check, and its generator, of that order, is reported all the same
        # (order 1: the generator "1", a 5th root of unity)
        ps = ParameterSet(5, 1, 1, 500)
        assert (ps.d, ps.v, ps.M) == (1, 0, 6)
        monkeypatch.setattr(spectrum_module, "stabilizer", lambda s: order)
        rep = theorem3_check(ps)
        generator = int(rep.to_json_dict()["details"]["generator"])
        assert not rep.holds and (rep.lhs, rep.rhs) == (str(order), "5")
        assert element_order(generator, 5, 6) == order
        assert rep.details["generator_is_nth_root"] == is_root


class TestJBalanced:
    def test_example_false(self):
        s = ResidueMultiset(*M25, {2: 2, 23: 2})
        assert not j_balanced(s, 1)

    def test_full_fiber_true(self):
        s = ResidueMultiset(*M25, {2 + 5 * i: 3 for i in range(5)})
        assert j_balanced(s, 1)

    def test_every_fiber_is_checked(self):
        # the fiber of 2 mod 5 is full with one count; the fiber of 3 is not
        s = ResidueMultiset(5, 2, {2: 1, 7: 1, 12: 1, 17: 1, 22: 1, 3: 1})
        assert not j_balanced(s, 1)

    @given(st.data())
    def test_matches_brute_force(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        M = data.draw(st.integers(2, 3))
        j = data.draw(st.integers(1, M - 1))
        base_mod = p ** (M - j)
        counts = {}
        for base in data.draw(st.sets(st.sampled_from([b for b in range(base_mod) if b % p]), max_size=4)):
            lifts = [base + i * base_mod for i in range(p**j)]
            if data.draw(st.booleans()):  # a full fiber with one count
                counts.update(dict.fromkeys(lifts, data.draw(st.integers(1, 3))))
            else:
                for key in data.draw(st.sets(st.sampled_from(lifts), min_size=1)):
                    counts[key] = data.draw(st.integers(1, 3))
        s = ResidueMultiset(p, M, counts)
        for jj in range(1, M):
            assert j_balanced(s, jj) == j_balanced_brute_force(s, jj), jj

    def test_grid_point_balanced(self):
        s = build_S(ParameterSet(5, 1, 1, 125))
        assert j_balanced(s, 1)
        assert not j_balanced(s, 2)

    def test_bounds_checked(self):
        s = ResidueMultiset(*M25, {2: 1})
        with pytest.raises(ValueError, match="1 <= j < M"):
            j_balanced(s, 2)
        with pytest.raises(ValueError, match="1 <= j < M"):
            j_balanced(s, 0)

    @pytest.mark.parametrize("args", [(5, 0, 0, 10), (5, 1, 1, 125), (5, 0, 1, 25), (5, 1, 0, 125)])
    def test_boundary_matches_stabilizer_p_part(self, args):
        # S is j-balanced up to the p-part exponent of its stabilizer and
        # no further
        ps = ParameterSet(*args)
        s = build_S(ps)
        order = stabilizer(s)
        e = 0
        while order % ps.p == 0:
            order //= ps.p
            e += 1
        for j in range(1, e + 1):
            assert j_balanced(s, j)
        if e + 1 < ps.M:
            assert not j_balanced(s, e + 1)


class TestBalance:
    def test_example(self):
        rep = balance_check(ParameterSet(5, 1, 1, 125), 2)
        assert rep.holds and (rep.lhs, rep.rhs) == ("false", "false")
        assert rep.details == {"balanced": False, "stabilizer_order": 20}

    def test_invalid_j_is_rejected_before_S_is_built(self, monkeypatch):
        def build_S_x(ps, x):
            raise AssertionError("S_1 was built for an invalid j")

        monkeypatch.setattr(spectrum_module, "build_S_x", build_S_x)
        ps = ParameterSet(31, 2, 0, 2 * 31**5)
        for j in (0, ps.M):
            with pytest.raises(ValueError, match=rf"^j must satisfy 1 <= j < M = {ps.M}, got {j}$"):
                balance_check(ps, j)

    def test_holds_on_theorem3_grid(self):
        # the benchmark region-map's theorem3 grid, k = p^3 * i for i <= 5,
        # at every 1 <= j < M: S is j-balanced at some points and not others
        seen = Counter()
        for p, a, t, i in itertools.product((3, 5, 7, 11, 13), (0, 1), (0, 1, 2), range(1, 6)):
            ps = ParameterSet(p, a, t, p**3 * i)
            for j in range(1, ps.M):
                rep = balance_check(ps, j)
                assert rep.holds, rep.inputs
                seen[rep.details["balanced"]] += 1
        assert sum(seen.values()) == 604 and seen[True] and seen[False]
