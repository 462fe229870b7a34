from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab.bernoulli import bernoulli
from padlab.padic_core import vp
from padlab.powersum import lemma1_check, lemma2_check, power_sum_exact, power_sum_mod
from padlab.report import MARGIN_WINDOW, congruence_report, integer_margin, rational_margin

def faulhaber(n_max, e):
    # closed-form oracle: sum_{n=0}^{N-1} n^e + N^e - 0^e, exact rationals
    total = sum(
        Fraction(comb(e + 1, j)) * bernoulli(j) * Fraction(n_max) ** (e + 1 - j)
        for j in range(e + 1)
    ) / (e + 1)
    total += Fraction(n_max) ** e - (1 if e == 0 else 0)
    assert total.denominator == 1
    return total.numerator


def direct_power_sum(n_max, e, p, M):
    # the term-by-term loop the split kernel replaces
    pM = p**M
    return sum(pow(n, e, pM) for n in range(1, n_max + 1)) % pM


@st.composite
def kernel_cases(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    M = draw(st.integers(min_value=1, max_value=16))
    e = draw(st.integers(min_value=0, max_value=10**12))
    n_max = draw(
        st.one_of(
            st.integers(min_value=0, max_value=3000),
            st.integers(min_value=0, max_value=7).map(lambda m: p**m).filter(lambda n: n <= 30000),
            st.integers(min_value=-2, max_value=2).map(lambda d: max(p * M + d, 0)),
        )
    )
    return n_max, e, p, M


class TestPowerSumMod:
    @settings(deadline=None)  # the direct loop runs up to 3e4 modular powers
    @given(kernel_cases())
    def test_split_matches_direct_loop(self, case):
        # bounds up to p*M are the kernel's own direct loop; past it the
        # p-block split sums the block indices exactly, so both sides of
        # p*M are drawn
        assert power_sum_mod(*case) == direct_power_sum(*case)

    @settings(deadline=None)  # Faulhaber's exact sides run to a few thousand bits
    @given(
        st.sampled_from([3, 5, 7, 11, 13]).flatmap(
            lambda p: st.tuples(
                st.one_of(
                    st.integers(min_value=0, max_value=10**15),
                    st.integers(min_value=0, max_value=20).map(lambda m: p**m),
                ),
                st.integers(min_value=0, max_value=40),
                st.just(p),
                st.integers(min_value=1, max_value=30),
            )
        )
    )
    def test_split_matches_faulhaber_far_past_the_direct_loop(self, case):
        n_max, e, p, M = case
        assert power_sum_mod(n_max, e, p, M) == faulhaber(n_max, e) % p**M

    @pytest.mark.parametrize(
        "n_max,e,p,M",
        [
            (10**12 + 7, 3, 5, 9),  # top == e: e < M, so r = 0 adds 0^0 to the last residue sum
            (7**15, 6, 7, 7),  # top == e == M - 1
            (10**13 + 1, 25, 3, 12),  # p | i + 1 at i = 2, 5, 8, 11: the index sums divide by 3, 6, 9, 12
            (5**18 - 3, 29, 5, 30),  # p | i + 1 at i = 4, 9, ..., 29, and 25 | i + 1 at i = 24
            (10**14 + 3, 17, 7, 1),  # M = 1: only the index sum of i = 0, which is the block count
            (11**9, 40, 11, 1),
            (3 * 8, 31, 3, 8),  # n_max = p*M: the last bound the direct loop takes
            (3 * 8 + 1, 31, 3, 8),  # n_max = p*M + 1: the first bound split into blocks
            (13 * 30, 40, 13, 30),
            (13 * 30 + 1, 40, 13, 30),
        ],
    )
    def test_split_edge_rows_match_faulhaber(self, n_max, e, p, M):
        assert power_sum_mod(n_max, e, p, M) == faulhaber(n_max, e) % p**M

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 4, 9, 25, 49, 121, 169, 1021, 1024, 1025, 1031])
    def test_direct_edge_rows_match_the_term_loop(self, n_max, p):
        # the base case takes a power only at primes up to TABLE_BOUND = 1024,
        # found by trial division that stops at q * q > n: prime squares and
        # the primes next to them sit on that test, and 1021 < 1024 < 1025 <
        # 1031 on the table's end.  M = 1 makes the modulus p, where each
        # multiple of p adds 0; the least M with n_max <= p*M is the last
        # bound summed directly, n_max = p*M exactly at n_max = p^2
        least = max(1, -(-n_max // p))
        for M in (1, least, least + 2):
            for e in (1, 2, M, 41):
                assert power_sum_mod(n_max, e, p, M) == direct_power_sum(n_max, e, p, M), (M, e)

    @pytest.mark.parametrize("n_max,e", [(-1, 2), (5, -1)])
    def test_negative_arguments_rejected(self, n_max, e):
        with pytest.raises(ValueError, match="power_sum_mod expects nonnegative bound and exponent"):
            power_sum_mod(n_max, e, 5, 2)

    @pytest.mark.parametrize("M", [0, -1])
    def test_nonpositive_modulus_exponent_rejected(self, M):
        with pytest.raises(ValueError, match="M >= 1"):
            power_sum_mod(10, 3, 5, M)

    def test_examples(self):
        assert power_sum_mod(5, 14, 5, 2) == 10
        assert power_sum_mod(5, 0, 5, 2) == 5
        assert power_sum_mod(5, 2, 5, 3) == 55

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=50))
    def test_matches_exact_sum(self, n_max, e):
        assert power_sum_mod(n_max, e, 7, 3) == power_sum_exact(n_max, e) % 7**3

    @pytest.mark.parametrize("n_max,e", [(10, 3), (49, 14), (120, 7), (30, 0)])
    def test_matches_faulhaber_oracle(self, n_max, e):
        assert power_sum_mod(n_max, e, 11, 4) == faulhaber(n_max, e) % 11**4

    @given(st.integers(min_value=1, max_value=80), st.integers(min_value=0, max_value=30))
    def test_range_additivity(self, n, e):
        pM = 5**4
        whole = power_sum_mod(2 * n, e, 5, 4)
        upper = sum(pow(x, e, pM) for x in range(n + 1, 2 * n + 1))
        assert whole == (power_sum_mod(n, e, 5, 4) + upper) % pM


class TestLemma1:
    def test_holds_example(self):
        rep = lemma1_check(5, 1, 4)
        assert rep.holds
        assert rep.lhs == "104" and rep.rhs == "104"
        assert rep.modulus == (5, 3)
        assert rep.margin >= 0

    def test_r2_anomaly(self):
        rep = lemma1_check(5, 1, 2)
        assert not rep.holds
        assert rep.lhs == "55" and rep.rhs == "105"
        assert rep.margin < 0

    def test_p7_example(self):
        rep = lemma1_check(7, 1, 6)
        assert rep.holds
        assert rep.lhs == rep.rhs == "286"

    def test_preconditions(self):
        with pytest.raises(ValueError, match="greater than 3"):
            lemma1_check(3, 1, 4)
        with pytest.raises(ValueError, match="positive"):
            lemma1_check(5, 0, 4)
        with pytest.raises(ValueError, match="even"):
            lemma1_check(5, 1, 3)

    def test_known_failure_class(self):
        # a = 1 with (p-1) | r-2 and p coprime to r-1 drops one valuation:
        # the Faulhaber tail term r(r-1)/6 * B_{r-2} * p^(3a) has a p in
        # the denominator of B_{r-2} exactly there
        rep = lemma1_check(5, 1, 14)
        assert not rep.holds and rep.margin == -1
        # same class rescued by p | r-1
        assert lemma1_check(5, 1, 6).holds
        assert lemma1_check(5, 1, 26).holds
        # and by a = 2
        assert lemma1_check(5, 2, 14).holds


class TestLemma2:
    def test_examples(self):
        assert lemma2_check(5, 1, 1, 5).holds
        assert lemma2_check(5, 1, 1, 10).holds

    def test_exact_values(self):
        assert power_sum_exact(5, 5) == 4425
        assert power_sum_exact(5, 10) == 10874275

    def test_precondition_p_minus_one(self):
        with pytest.raises(ValueError, match="must not divide"):
            lemma2_check(5, 1, 1, 4)

    def test_precondition_k_lower_bound(self):
        with pytest.raises(ValueError, match="at least"):
            lemma2_check(5, 2, 1, 2)

    def test_precondition_p_power_divides(self):
        with pytest.raises(ValueError, match="must divide"):
            lemma2_check(5, 1, 2, 10)

    def test_margin_sign_matches_verdict(self):
        for kk in (5, 10, 15, 30):
            rep = lemma2_check(5, 1, 1, kk)
            assert rep.holds == (rep.margin >= 0)

    @pytest.mark.parametrize("kk,margin", [(3**8, 7), (3**9, 8), (3**10, 8)])
    def test_windowed_margin_equals_exact_margin(self, kk, margin):
        # the sum is taken mod 3^(2 + MARGIN_WINDOW); at 3^10 the exact
        # margin is 9 and saturates to the window
        rep = lemma2_check(3, 1, 1, kk)
        assert rep.margin == margin
        assert rep.margin == min(vp(power_sum_exact(3, kk), 3) - 2, MARGIN_WINDOW)


class TestCongruenceReport:
    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=-50, max_value=50),
        st.sampled_from([1, 2, 4, 11]),
    )
    def test_windowed_side_gives_same_report(self, p, exponent, lhs, j, u, d):
        # rhs is lhs moved by u p^j / d, so every margin up to saturation occurs
        rhs = lhs + Fraction(u * p**j, d)
        windowed = lhs % p ** (exponent + MARGIN_WINDOW)
        exact = congruence_report("c", {}, lhs, rhs, p, exponent)
        assert congruence_report("c", {}, windowed, rhs, p, exponent) == exact
        if rhs.denominator == 1:
            rhs_windowed = int(rhs) % p ** (exponent + MARGIN_WINDOW)
            assert congruence_report("c", {}, windowed, rhs_windowed, p, exponent) == exact

    def test_rejects_side_that_is_not_p_integral(self):
        with pytest.raises(ValueError, match="not p-integral: 1/5 has denominator divisible by 5"):
            congruence_report("c", {}, 1, Fraction(1, 5), 5, 2)


@given(
    st.sampled_from([3, 5, 7]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=0, max_value=20),
)
def test_integer_margin_is_rational_margin(p, required, u, j):
    # u p^j reaches 0 and multiples of p^(required + MARGIN_WINDOW); the
    # margin reads only diff mod p^(required + MARGIN_WINDOW)
    diff = u * p**j
    margin = rational_margin(Fraction(diff), p, required)
    assert integer_margin(diff, p, required) == margin
    assert integer_margin(diff % p ** (required + MARGIN_WINDOW), p, required) == margin
