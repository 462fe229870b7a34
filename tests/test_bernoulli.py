from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab.bernoulli import (
    BernoulliTable,
    adams_check,
    bernoulli,
    von_staudt_clausen_check,
)
from padlab.padic_core import primitive_root, reduce_rational


def akiyama_tanigawa(n_max):
    # independent oracle; the triangle gives B_1 = +1/2, flip to our convention
    out = []
    row = [Fraction(0)] * (n_max + 1)
    for m in range(n_max + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(-row[0] if m == 1 else row[0])
    return out


@cache
def fraction_recurrence(n_max):
    # reference: the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0, in Fractions
    values = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, n_max + 1):
        if m % 2 == 1:
            values.append(Fraction(0))
            continue
        acc = sum(comb(m + 1, j) * values[j] for j in range(0, m, 2)) + comb(m + 1, 1) * values[1]
        values.append(-acc / (m + 1))
    return values


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestTable:
    def test_base_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(7) == 0
        assert bernoulli(12) == Fraction(-691, 2730)
        assert bernoulli(26) == Fraction(8553103, 6)

    def test_odd_indices_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 61, 2))

    def test_recurrence_residual_is_zero(self):
        for m in range(1, 61):
            assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0

    def test_matches_akiyama_tanigawa(self):
        oracle = akiyama_tanigawa(30)
        assert [bernoulli(n) for n in range(31)] == oracle

    def test_fresh_table_grows(self):
        table = BernoulliTable()
        assert table.value(40) == bernoulli(40)
        assert len(table) >= 41

    def test_negative_index(self):
        with pytest.raises(ValueError):
            BernoulliTable().value(-1)

    def test_matches_fraction_recurrence_up_to_400(self):
        table = BernoulliTable()
        table.grow(400)
        assert len(table) == 401
        assert [table.value(n) for n in range(401)] == fraction_recurrence(400)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=400), max_size=8))
    def test_staged_growth_matches_one_shot(self, targets):
        # serial sweeps grow the table point by point, in any order of indices
        table = BernoulliTable()
        for i, n in enumerate(targets):
            table.grow(n)
            assert len(table) == max(1, *targets[: i + 1]) + 1
        assert [table.value(n) for n in range(len(table))] == fraction_recurrence(400)[: len(table)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=600))
    def test_even_indices_match_sympy(self, sympy, j):
        # odd indices are left out: sympy >= 1.12 takes B_1 = +1/2
        b = sympy.bernoulli(2 * j)
        assert bernoulli(2 * j) == Fraction(int(b.p), int(b.q))

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_voronoi_congruence(self, p):
        # (g^n - 1) B_n/n == g^(n-1) sum_{x<N} x^(n-1) floor(xg/N)  (mod N = p^m),
        # for even n with (p-1) ∤ n; g a primitive root mod N pins B_n/n mod N
        for m in range(1, 5):
            big_n, g = p**m, primitive_root(p, m)
            sums = [0] * 99  # sums[n // 2 - 1] for even 2 <= n < 200
            for x in range(1, big_n):
                w, x2 = x * (x * g // big_n) % big_n, x * x % big_n
                for i in range(99):
                    sums[i] += w
                    w = w * x2 % big_n
            mismatches = [
                n
                for n in range(2, 200, 2)
                if n % (p - 1)
                and reduce_rational((pow(g, n, big_n) - 1) * bernoulli(n) / n, p, m)
                != pow(g, n - 1, big_n) * sums[n // 2 - 1] % big_n
            ]
            assert mismatches == [], (p, m)


class TestVonStaudtClausen:
    @pytest.mark.parametrize("n,primes", [(2, [2, 3]), (4, [2, 3, 5]), (12, [2, 3, 5, 7, 13])])
    def test_examples(self, n, primes):
        rep = von_staudt_clausen_check(n)
        assert rep.holds
        assert rep.details["primes"] == primes
        assert rep.lhs == "1/1"

    def test_holds_up_to_1200(self):
        assert all(von_staudt_clausen_check(n).holds for n in range(2, 1201, 2))

    def test_denominator_is_squarefree_product(self, sympy):
        # the identity pins the denominator of B_n exactly; sympy picks the
        # primes, so the oracle does not read padlab's is_prime
        for n in range(2, 61, 2):
            den = 1
            for d in range(1, n + 1):
                if n % d == 0 and sympy.isprime(d + 1):
                    den *= d + 1
            assert bernoulli(n).denominator == den


class TestAdams:
    def test_examples(self):
        rep = adams_check(6, 5)
        assert rep.holds and rep.details["valuation"] == 0
        assert adams_check(2, 7).holds

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError, match="Adams hypothesis"):
            adams_check(6, 7)

    @pytest.mark.parametrize("check", [adams_check])
    @pytest.mark.parametrize(
        "r,p,match",
        [
            (5, 7, "even"),
            (0, 7, "even"),
            (6, 9, "not an odd prime"),
            (4, 2, "not an odd prime"),
            (12, 5, "Adams hypothesis"),
        ],
    )
    def test_shared_guards(self, check, r, p, match):
        with pytest.raises(ValueError, match=match):
            check(r, p)

    def test_quotient_residues(self):
        # B_6/6 = 1/252 and B_2/2 = 1/12; B_26/26 ≡ B_6/6 mod 25 by Kummer (26 ≡ 6 mod 20)
        assert reduce_rational(bernoulli(6) / 6, 5, 2) == 13
        assert reduce_rational(bernoulli(26) / 26, 5, 2) == 13
        assert reduce_rational(bernoulli(2) / 2, 5, 1) == 3

    def test_grid(self):
        # p-integrality of B_r/r across the stated desk-scale grid
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            for r in range(2, 201, 2):
                if r % (p - 1) == 0:
                    continue
                assert adams_check(r, p).holds, (r, p)
