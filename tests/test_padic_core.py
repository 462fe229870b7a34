from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padlab.padic_core import (
    element_order,
    factorize,
    is_odd_prime,
    is_prime,
    primitive_root,
    reduce_rational,
    roots_of_unity,
    unit_group_order,
    vp,
    vp_rational,
)


def extgcd(a, b):
    # independent inverse oracle
    if b == 0:
        return a, 1, 0
    g, x, y = extgcd(b, a % b)
    return g, y, x - (a // b) * y


def naive_order(value, modulus):
    x = value % modulus
    e = 1
    while x != 1:
        x = x * value % modulus
        e += 1
    return e


M25 = (5, 2)
M5 = (5, 1)
M125 = (5, 3)


class TestValuation:
    def test_examples(self):
        assert vp(250, 5) == 3
        assert vp(1, 7) == 0
        assert vp(-50, 5) == 2

    def test_zero_is_infinite(self):
        with pytest.raises(ValueError, match="valuation of zero is infinite"):
            vp(0, 5)

    def test_rational_examples(self):
        assert vp_rational(Fraction(1, 6), 5) == 0
        assert vp_rational(Fraction(5, 6), 5) == 1
        assert vp_rational(Fraction(1, 50), 5) == -2

    def test_rational_zero(self):
        with pytest.raises(ValueError, match="infinite"):
            vp_rational(Fraction(0), 5)

    @given(st.integers(min_value=1, max_value=10**9), st.sampled_from([3, 5, 7, 11]))
    def test_definition(self, n, p):
        e = vp(n, p)
        assert n % p**e == 0 and n % p ** (e + 1) != 0


class TestModulus:
    def test_is_odd_prime(self):
        assert is_odd_prime(3) and is_odd_prime(999983)
        assert not is_odd_prime(2) and not is_odd_prime(1) and not is_odd_prime(9)

    def test_is_prime(self):
        assert is_prime(2) and is_prime(3) and is_prime(97)
        assert not any(map(is_prime, (-7, 0, 1, 4, 91)))


class TestReduceRational:
    def test_examples(self):
        assert reduce_rational(Fraction(1, 6), *M25) == 21
        assert reduce_rational(Fraction(1, 252), *M25) == 13
        assert reduce_rational(Fraction(0), *M125) == 0
        assert reduce_rational(Fraction(-1), *M25) == 24
        assert reduce_rational(26, *M25) == 1

    def test_not_p_integral(self):
        with pytest.raises(ValueError, match="not p-integral"):
            reduce_rational(Fraction(1, 10), *M25)

    def test_matches_extgcd_oracle(self):
        for num, den in [(1, 6), (7, 9), (-3, 11), (22, 7)]:
            got = reduce_rational(Fraction(num, den), *M25)
            _, inv, _ = extgcd(den % 25, 25)
            assert got == num * inv % 25

    def test_recovers_numerator(self):
        q = Fraction(7, 66)
        r = reduce_rational(q, *M125)
        assert 0 <= r < 125 and r * 66 % 125 == 7 % 125

    @given(
        st.fractions(max_denominator=500),
        st.fractions(max_denominator=500),
    )
    def test_additivity(self, q, r):
        if q.denominator % 5 == 0 or r.denominator % 5 == 0:
            return
        if (q + r).denominator % 5 == 0:
            return
        left = reduce_rational(q + r, *M125)
        right = (reduce_rational(q, *M125) + reduce_rational(r, *M125)) % 125
        assert left == right


class TestElementOrder:
    def test_examples(self):
        assert element_order(24, *M25) == 2
        assert element_order(1, *M125) == 1
        assert element_order(7, *M25) == 4

    def test_non_invertible(self):
        with pytest.raises(ValueError, match="non-invertible"):
            element_order(10, *M25)

    @pytest.mark.parametrize("m", [M25, M125, (7, 2), (11, 1)])
    def test_matches_naive_order(self, m):
        p, M = m
        for value in range(1, p**M):
            if value % p == 0:
                continue
            assert element_order(value, p, M) == naive_order(value, p**M)

    @given(st.integers(min_value=1, max_value=2400))
    def test_divides_group_order(self, x):
        if x % 7 == 0:
            return
        assert unit_group_order(7, 4) % element_order(x, 7, 4) == 0


class TestRootsOfUnity:
    def test_examples(self):
        assert roots_of_unity(2, *M25) == {1, 24}
        assert roots_of_unity(1, *M125) == {1}
        assert roots_of_unity(4, *M5) == {1, 2, 3, 4}

    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="does not divide"):
            roots_of_unity(3, *M25)

    @pytest.mark.parametrize("dd,m", [(2, M125), (4, M125), (3, (7, 3)), (6, (7, 2))])
    def test_matches_exhaustive_search(self, dd, m):
        p, M = m
        got = roots_of_unity(dd, p, M)
        want = {x for x in range(1, p**M) if x % p and pow(x, dd, p**M) == 1}
        assert got == want

    @pytest.mark.parametrize("dd", [1, 2, 3, 6])
    def test_cardinality_orders_and_injective_reduction(self, dd):
        roots = roots_of_unity(dd, 7, 3)
        assert len(roots) == dd
        assert all(element_order(r, 7, 3) in [d for d in range(1, dd + 1) if dd % d == 0] for r in roots)
        assert len({r % 7 for r in roots}) == dd


class TestFactorize:
    def test_roundtrip(self):
        for n in (1, 2, 97, 360, 2**10 * 3**4 * 11):
            f = factorize(n)
            acc = 1
            for q, e in f.items():
                acc *= q**e
            assert acc == n

    def test_primitive_root_generates(self):
        for m in (M25, M125, (7, 2)):
            g = primitive_root(*m)
            assert element_order(g, *m) == unit_group_order(*m)

    def test_primitive_root_lifts_past_a_non_generator_mod_p_squared(self):
        # 40487 is the least odd prime whose least primitive root, 5, is not
        # one mod p^2 (5^40486 = 1 mod 40487^2), so the root moves to 5 + p
        p = 40487
        assert pow(5, p - 1, p * p) == 1
        assert primitive_root(p, 1) == 5 and primitive_root(p, 2) == 40492
        assert element_order(40492, p, 2) == unit_group_order(p, 2)

    def test_factorize_rejects_nonpositive(self):
        for n in (0, -6):
            with pytest.raises(ValueError, match="factorize expects a positive integer"):
                factorize(n)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestPrimalityAgainstSympy:
    # is_prime reads factorize, so an independent route checks both:
    # sympy's isprime and factorint
    def agrees(self, sympy, n):
        assert is_prime(n) == sympy.isprime(n)
        assert is_odd_prime(n) == (n != 2 and sympy.isprime(n))
        if n >= 1:
            assert factorize(n) == sympy.factorint(n)

    def test_every_n_up_to_20000(self, sympy):
        for n in range(-10, 20001):
            self.agrees(sympy, n)

    @given(st.integers(min_value=-10, max_value=10**7))
    def test_draws_up_to_10_to_the_7(self, sympy, n):
        self.agrees(sympy, n)
