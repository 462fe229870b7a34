import random

import pytest

from padlab.cli import run_check
from padlab.jet import (
    corollary3_check,
    derivative_mod,
    derivative_valuation,
    lemma4_check,
    lemma5_count,
)
from padlab.params import ParameterSet, f_exponents
from padlab.report import MARGIN_WINDOW

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

    def test_matches_polynomial_differentiation(self):
        rng = random.Random(7)
        for ps in (PS, PS_T1, ParameterSet(7, 0, 0, 14)):
            e_plus, e_minus = f_exponents(ps)
            for m in range(1, 5):
                terms = poly_derivative([(1, e_plus), (1, e_minus)], m)
                for _ in range(5):
                    n = rng.randint(1, 30)
                    big = ps.p**10
                    assert derivative_mod(ps, m, n, big) == poly_eval(terms, n) % big


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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="invertible"):
            corollary3_check(PS, 5, 1, 1)
        with pytest.raises(ValueError, match="kk"):
            corollary3_check(PS, 1, 0, 1)

    def test_finite_difference_oracle(self):
        # the truncation error as an exact integer has the claimed valuation
        rng = random.Random(11)
        for ps in (PS, PS_T1):
            e_plus, e_minus = f_exponents(ps)
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

    def test_requires_v_equal_t(self):
        with pytest.raises(ValueError, match="v = t"):
            lemma5_count(PS_T1, 0)

    def test_s_range_checked(self):
        with pytest.raises(ValueError, match="0 <= s <= a"):
            lemma5_count(PS, 1)
