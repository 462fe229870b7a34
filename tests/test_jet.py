import random
from math import comb, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padlab.jet as jet
from padlab.cli import run_check
from padlab.jet import (
    corollary3_check,
    degree_bound,
    derivative_mod,
    derivative_valuation,
    derivative_values,
    lemma4_check,
    lemma5_count,
    unit_values,
)
from padlab.params import ParameterSet
from padlab.report import MARGIN_WINDOW

from oracles import lemma5_count_exact

PS = ParameterSet(5, 0, 0, 10)  # f = x^14 + x^6
PS_T1 = ParameterSet(5, 0, 1, 10)  # f = x^70 + x^30, v=0 < t=1


def poly_derivative(terms, order):
    # oracle: m-fold differentiation on (coefficient, exponent) pairs
    for _ in range(order):
        terms = [(c * e, e - 1) for c, e in terms if e > 0]
    return terms


def poly_eval(terms, x):
    return sum(c * x**e for c, e in terms)


class TestDerivative:
    def test_falling_factorial(self):
        # f^(m)(1) = FF(14, m) + FF(6, m), and FF(e, m) = 0 once m > e
        big = 5**12
        assert derivative_mod(PS, 1, 1, big) == 14 + 6
        assert derivative_mod(PS, 2, 1, big) == 14 * 13 + 6 * 5
        assert derivative_mod(PS, 7, 1, big) == 14 * 13 * 12 * 11 * 10 * 9 * 8
        assert derivative_mod(PS, 15, 3, big) == 0

    def test_exact_values(self):
        # f'(1) = 14 + 6, f''(1) = 182 + 30, f'''(1) = 2184 + 120
        big = 5**12
        assert derivative_mod(PS, 1, 1, big) == 20
        assert derivative_mod(PS, 2, 1, big) == 212
        assert derivative_mod(PS, 3, 1, big) == 2304

    def test_valuation_examples(self):
        assert derivative_valuation(PS, 1, 1, 10) == 1
        assert derivative_valuation(PS, 2, 1, 10) == 0
        assert derivative_valuation(PS, 3, 1, 10) == 0

    def test_saturation_reports_cap(self):
        ps = ParameterSet(5, 1, 0, 125)
        # f'(u) ≡ 0 mod 5 for every unit; with cap 1 every value saturates
        assert derivative_valuation(ps, 1, 1, 1) == 1

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="invertible"):
            derivative_valuation(PS, 1, 5, 4)

    def test_rejects_zeroth_order(self):
        with pytest.raises(ValueError, match=">= 1"):
            derivative_valuation(PS, 0, 1, 4)

    def test_rejects_negative_order(self):
        assert derivative_mod(PS, 0, 2, 5**6) == (2**14 + 2**6) % 5**6
        with pytest.raises(ValueError, match="nonnegative"):
            derivative_mod(PS, -1, 1, 5**6)
        with pytest.raises(ValueError, match="nonnegative"):
            derivative_values(PS, -1, range(1, 4), 5**6)  # at the call, before any value is drawn

    def test_matches_polynomial_differentiation(self):
        rng = random.Random(7)
        for ps in (PS, PS_T1, ParameterSet(7, 0, 0, 14)):
            e_plus, e_minus = ps.e_plus, ps.e_minus
            for m in range(1, 5):
                terms = poly_derivative([(1, e_plus), (1, e_minus)], m)
                for _ in range(5):
                    n = rng.randint(1, 30)
                    big = ps.p**10
                    assert derivative_mod(ps, m, n, big) == poly_eval(terms, n) % big

    # t >= 1, and a = 0 with k = p, where e- = p^t: at t = 0 the orders
    # m = 2, 3 exceed e- = 1 and that monomial vanishes
    @given(
        st.sampled_from([(5, 0, 0, 5), (3, 0, 0, 3), (5, 0, 1, 5), (3, 0, 2, 3), (5, 0, 1, 10), (5, 1, 1, 125)]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-20, max_value=40),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=12),
    )
    def test_values_over_a_range_match_points(self, args, m, start, length, step, cap):
        ps = ParameterSet(*args)
        ns = range(start, start + length * step, step)
        modulus = ps.p**cap
        terms = poly_derivative([(1, ps.e_plus), (1, ps.e_minus)], m)
        values = list(derivative_values(ps, m, ns, modulus))
        assert values == [derivative_mod(ps, m, n, modulus) for n in ns]
        assert values == [poly_eval(terms, n) % modulus for n in ns]

    # (p, a) with a <= 2, where exact powers of n <= p^(a+1) stay cheap
    @settings(deadline=None)
    @given(
        st.sampled_from([(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (7, 0), (7, 1)]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([0, 1]),
        st.data(),
    )
    def test_unit_values_match_exact_derivatives(self, pa, t, multiple, m, data):
        p, a = pa
        ps = ParameterSet(p, a, t, multiple * p ** (2 * a + 1))
        r = data.draw(st.integers(min_value=1, max_value=p - 1), label="class")
        # the orbit checkers' modulus, or lemma5's p^(2a+2t+s+1)
        s = data.draw(st.integers(min_value=0, max_value=a), label="s")
        n_exp = data.draw(st.sampled_from([ps.M, 2 * a + 2 * t + s + 1]), label="n_exp")
        modulus = p**n_exp
        ns = range(r, p ** (a + 1), p)
        terms = poly_derivative([(1, ps.e_plus), (1, ps.e_minus)], m)
        assert list(unit_values(ps, m, r, n_exp)) == [poly_eval(terms, n) % modulus for n in ns]


# p <= 13, a <= 2, t <= 2 and 2a+1 <= vp(k) <= 2a+3, at the orbit checkers'
# modulus p^M or lemma5's p^(2a+2t+s+1); the class walked is r mod p, or 1
CLASS_WALK_GRID = dict(
    p=st.sampled_from([3, 5, 7, 11, 13]),
    a=st.integers(min_value=0, max_value=2),
    t=st.integers(min_value=0, max_value=2),
    extra=st.integers(min_value=0, max_value=2),
    cofactor=st.sampled_from([1, 2, 4]),
    m=st.integers(min_value=0, max_value=2),
    r=st.integers(min_value=0, max_value=12),
    s=st.integers(min_value=0, max_value=2),
    at_pm=st.booleans(),
)


def class_walk_point(p, a, t, extra, cofactor, s, at_pm):
    ps = ParameterSet(p, a, t, cofactor * p ** (2 * a + 1 + extra))
    return ps, (ps.M if at_pm else 2 * a + 2 * t + min(s, a) + 1)


class TestClassWalk:
    @settings(deadline=None)
    @given(**CLASS_WALK_GRID)
    @example(p=3, a=0, t=1, extra=0, cofactor=1, m=0, r=1, s=0, at_pm=True)
    @example(p=3, a=2, t=2, extra=1, cofactor=2, m=1, r=2, s=2, at_pm=False)
    @example(p=13, a=2, t=0, extra=0, cofactor=1, m=0, r=12, s=0, at_pm=True)
    @example(p=3, a=1, t=0, extra=0, cofactor=1, m=1, r=1, s=0, at_pm=True)
    def test_bound_and_walk(self, p, a, t, extra, cofactor, m, r, s, at_pm):
        ps, n_exp = class_walk_point(p, a, t, extra, cofactor, s, at_pm)
        modulus = p**n_exp
        bound = degree_bound(ps, m, n_exp)
        # c_i(r) = p^i * sum of FF(e, m) C(e - m, i) r^(e - m - i), exactly,
        # vanishes mod p^N above the bound in every class, and not at a bound >= 1
        for unit in range(1, p):
            for i in range(max(bound, 1), n_exp):
                terms = (perm(e, m) * comb(e - m, i) * pow(unit, e - m - i, modulus) for e in (ps.e_plus, ps.e_minus) if e - m >= i)
                assert (p**i * sum(terms) % modulus == 0) == (i > bound), (unit, i)
        r = r % p or 1
        ns = range(r, p ** (a + 1), p)
        assert list(unit_values(ps, m, r, n_exp)) == list(derivative_values(ps, m, ns, modulus))
        # seen on this grid, not assumed by the walk: p = 3 and the other
        # orders and moduli reach a + 2
        if m == 0 and at_pm and p >= 5:
            assert bound <= a + 1

    @given(
        st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=10**12),
    )
    # rows == len(head), a whole class from derivative_values, and rows == 1
    @example(coefficients=[7, -3, 5, 1], rows=4, modulus=9)
    @example(coefficients=[-11], rows=1, modulus=5)
    @example(coefficients=[4, -9, 2], rows=1, modulus=7)
    def test_stepped_reproduces_its_polynomial(self, coefficients, rows, modulus):
        # g of degree D = len(coefficients) - 1 <= 4, stepped from g(0), ..., g(D)
        def g(q):
            return sum(c * q**i for i, c in enumerate(coefficients))

        head = [g(q) for q in range(len(coefficients))]
        assert list(jet._stepped(head, rows, modulus)) == [g(q) % modulus for q in range(rows)]

    def test_negative_order_rejected(self):
        # the walk and its degree bound name the derivative order, as
        # derivative_values does, not math.perm's argument
        with pytest.raises(ValueError, match="^derivative order must be nonnegative$"):
            unit_values(PS, -1, 1, PS.M)
        with pytest.raises(ValueError, match="^derivative order must be nonnegative$"):
            degree_bound(PS, -1, PS.M)


class TestLemma4:
    def test_example_first_order(self):
        rep = lemma4_check(PS, 1, 1)
        assert rep.holds and rep.details["valuation"] == 1

    def test_example_second_order_exact(self):
        # f''(3) = 14*13*3^12 + 6*5*3^4, a unit mod 5
        rep = lemma4_check(PS, 2, 3)
        assert rep.holds and rep.details["valuation"] == 0

    def test_equality_when_v_below_t(self):
        rep = lemma4_check(PS_T1, 1, 1)
        assert rep.holds
        assert rep.details["valuation"] == 2  # f'(1) = 70 + 30 = 100
        assert rep.details["claims"]["first_order_equality"]

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="invertible"):
            lemma4_check(PS, 1, 10)
        # derivative_valuation's guards, in its order, seen through the checker and the dispatcher
        for n in (1, 10):
            with pytest.raises(ValueError, match="derivative order must be >= 1"):
                lemma4_check(PS, 0, n)
        rep = run_check("lemma4", {"p": 5, "a": 0, "t": 0, "k": 10, "m": 0, "n": 1})
        assert rep.error == "derivative order must be >= 1" and not rep.holds

    def test_floor_only_for_higher_orders(self):
        rep = lemma4_check(PS, 4, 2)
        assert set(rep.details["claims"]) == {"floor"}
        assert rep.holds

    def test_claim_matrix_across_sample(self):
        for args in [(5, 0, 0, 10), (5, 0, 1, 10), (5, 1, 0, 125), (7, 0, 1, 14), (5, 0, 1, 25)]:
            ps = ParameterSet(*args)
            for m in (1, 2, 3, 4):
                for n in range(1, ps.p ** (ps.a + 1) + 1):
                    if n % ps.p:
                        assert lemma4_check(ps, m, n).holds, (args, m, n)


class TestCorollary3:
    def test_x_zero_trivial(self):
        rep = corollary3_check(PS, 1, 1, 0)
        assert rep.holds and rep.details["saturated"]

    def test_example(self):
        # f(6) ≡ f(1) + f'(1)*5 ≡ 2 mod 25
        rep = corollary3_check(PS, 1, 1, 1)
        assert rep.holds
        assert rep.lhs == "2" and rep.rhs == "2"
        assert rep.modulus == (5, 2)

    def test_strong_form_example(self):
        rep = corollary3_check(PS_T1, 2, 1, 3)
        assert rep.holds
        assert rep.details["strong_applies"] and rep.details["strong_holds"]
        assert rep.details["difference_valuation"] >= 4

    def test_weak_form_alone_at_v_equal_t(self):
        rep = corollary3_check(PS, 2, 1, 3)
        assert rep.holds and rep.margin == 0
        assert not rep.details["strong_applies"] and not rep.details["strong_holds"]

    def test_verdict_needs_strong_form_at_v_below_t(self, monkeypatch):
        # raise f(s0 + p^kk x) by p^weak_exp: the weak congruence then holds
        # at margin 0 and the strong one fails, so the verdict must fail
        s0, kk, x = 2, 1, 3
        weak_exp = 2 * PS_T1.a + PS_T1.t + PS_T1.v + 2 * kk
        real = jet.derivative_mod

        def shifted(ps, m, n, modulus):
            bump = PS_T1.p**weak_exp if (m, n) == (0, s0 + PS_T1.p**kk * x) else 0
            return (real(ps, m, n, modulus) + bump) % modulus

        monkeypatch.setattr(jet, "derivative_mod", shifted)
        rep = corollary3_check(PS_T1, s0, kk, x)
        assert rep.margin == 0 and rep.details["strong_applies"]
        assert not rep.details["strong_holds"] and not rep.holds

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="invertible"):
            corollary3_check(PS, 5, 1, 1)
        with pytest.raises(ValueError, match="kk"):
            corollary3_check(PS, 1, 0, 1)

    def test_finite_difference_oracle(self):
        # the truncation error as an exact integer has the claimed valuation
        rng = random.Random(11)
        for ps in (PS, PS_T1):
            e_plus, e_minus = ps.e_plus, ps.e_minus
            for _ in range(10):
                s = rng.choice([1, 2, 3, 4, 6, 7, 8, 9])
                kk = rng.randint(1, 2)
                x = rng.randint(-6, 6)
                f = lambda y: y**e_plus + y**e_minus
                fp = lambda y: e_plus * y ** (e_plus - 1) + e_minus * y ** (e_minus - 1)
                diff = f(s + ps.p**kk * x) - f(s) - fp(s) * ps.p**kk * x
                bound = 2 * ps.a + ps.t + ps.v + 2 * kk
                assert diff % ps.p**bound == 0
                rep = corollary3_check(ps, s, kk, x)
                assert rep.holds
                if diff != 0:
                    expect = 0
                    d = abs(diff)
                    while d % ps.p == 0:
                        d //= ps.p
                        expect += 1
                    assert rep.details["difference_valuation"] == min(
                        expect, rep.modulus[1] + 1 + 8
                    )


@pytest.mark.parametrize(
    "check,args",
    [
        # saturated valuation 11 against weak exponent 2: the unclamped margin was 9
        (corollary3_check, (ParameterSet(5, 0, 0, 5), 1, 1, 0)),
        # saturated valuation 2a+2t+8 = 12 against floor 2a+t+v = 2: it was 10
        (lemma4_check, (ParameterSet(5, 0, 2, 5), 10**6, 1)),
    ],
)
def test_margin_saturates_at_window(check, args):
    rep = check(*args)
    assert rep.holds and rep.details["saturated"]
    assert rep.margin == MARGIN_WINDOW


class TestLemma5:
    def test_base_example(self):
        rep = lemma5_count(PS, 0)
        assert rep.holds and rep.lhs == "4"

    def test_deeper_counts(self):
        ps = ParameterSet(5, 1, 0, 250)
        assert ps.v == ps.t == 0
        assert lemma5_count(ps, 0).lhs == "20"
        assert lemma5_count(ps, 1).lhs == "4"
        assert lemma5_count(ps, 0).holds and lemma5_count(ps, 1).holds

    @pytest.mark.parametrize("args", [(5, 0, 0, 10), (7, 0, 0, 14), (5, 0, 1, 25), (5, 1, 0, 250), (3, 1, 1, 81), (5, 1, 1, 625)])
    def test_matches_exact_valuations(self, args):
        ps = ParameterSet(*args)
        for s in range(ps.a + 1):
            assert lemma5_count(ps, s).details["count"] == lemma5_count_exact(ps, s), s

    def test_requires_v_equal_t(self):
        with pytest.raises(ValueError, match="v = t"):
            lemma5_count(PS_T1, 0)

    def test_s_range_checked(self):
        with pytest.raises(ValueError, match="0 <= s <= a"):
            lemma5_count(PS, 1)
