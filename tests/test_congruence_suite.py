import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from padlab.congruence_suite import (
    case1_step_check,
    case2_check,
    case3_branch_check,
    corollary2_check,
    kummer_check,
    theorem2_check,
)
from padlab.padic_core import vp
from padlab.params import ParameterSet, f_exponents
from padlab.powersum import power_sum_mod
from padlab.report import MARGIN_WINDOW

SPS = ParameterSet(5, 0, 0, 10)


@st.composite
def strong_params(draw):
    """ParameterSets with p in {5, 7, 11}, a, t <= 1 and a k that passes
    check_strong."""
    p = draw(st.sampled_from((5, 7, 11)))
    a, t = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    ps = ParameterSet(p, a, t, 2 * p ** (2 * a + 1) * draw(st.integers(1, 6)))
    try:
        ps.check_strong()
    except ValueError:
        reject()
    return ps


# theorem2 at r = 1 compares one power sum with itself, and case2 at b = 1
# one Bernoulli product with itself, each side with its own statement of
# e+ = (k + p^a(p-1))p^t: a copy that drifted from f_exponents breaks the
# saturated margin
@settings(max_examples=40, deadline=None)
@given(strong_params())
def test_same_exponent_identities_saturate(ps):
    rep = theorem2_check(ps, 1)
    assert (rep.holds, rep.margin) == (True, MARGIN_WINDOW)
    e_plus = f_exponents(ps)[0]
    if e_plus <= 1400:  # larger Bernoulli indices take seconds to tabulate
        rep = case2_check(ps, 1)
        assert (rep.holds, rep.margin) == (True, MARGIN_WINDOW)
        assert rep.details["index_lhs"] == rep.details["index_rhs"] == e_plus


class TestTheorem2:
    def test_identity_r1(self):
        assert theorem2_check(SPS, 1).holds

    def test_example_r2(self):
        rep = theorem2_check(SPS, 2)
        assert rep.holds
        assert rep.lhs == "20" and rep.rhs == "20"

    def test_example_r0(self):
        rep = theorem2_check(SPS, 0)
        assert rep.holds and rep.lhs == "0"

    def test_negative_r(self):
        assert theorem2_check(SPS, -1).holds
        assert theorem2_check(SPS, -2).holds

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError, match="positive"):
            theorem2_check(SPS, -3)

    def test_rejects_weak_parameters(self):
        with pytest.raises(ValueError, match="2p"):
            theorem2_check(ParameterSet(5, 0, 0, 5), 1)

    def test_second_difference_vanishes(self):
        # S(r+1) - 2 S(r) + S(r-1) ≡ 0 mod p^M, the quadratic-factor form
        for sps in (SPS, ParameterSet(5, 0, 1, 10), ParameterSet(7, 0, 0, 14)):
            pM = sps.p**sps.M
            shift = sps.p**sps.a * (sps.p - 1)
            sums = {
                r: power_sum_mod(sps.p ** (sps.a + 1), (sps.k + shift * r) * sps.p**sps.t, sps.p, sps.M)
                for r in (0, 1, 2)
            }
            assert (sums[2] - 2 * sums[1] + sums[0]) % pM == 0


def corollary2_exact(p, a, t, b, v):
    # reference: the exact big-integer sum, as (lhs, margin, sum_valuation)
    exponent = 3 * a + t + v + 2
    inner = p ** (a + t) * (p - 1)
    total = sum(n**b * (n**inner - 1) ** 2 for n in range(1, p ** (a + 1) + 1))
    val = vp(total, p)
    return str(total % p**exponent), val - exponent, val


COROLLARY2_ORACLE_POINTS = [
    (5, 0, 0, 1, 0),  # the b = 1 failure
    *(
        (p, a, t, p ** (a + t) * j, 0)
        for p in (3, 5, 7)
        for a in (0, 1)
        for t in (0, 1, 2)
        for j in range(1, 5)
        if (p ** (a + t) * j) % (p - 1)
    ),
    (5, 0, 1, 125, 1),
    (7, 1, 1, 7**2 * 2, 1),
    # margin 9, past MARGIN_WINDOW: the residue mod p^(E+8) is 0
    (3, 0, 9, 3**9, 0),
    (3, 0, 9, 3**9 * 23, 0),
]


class TestCorollary2:
    @pytest.mark.parametrize("point", COROLLARY2_ORACLE_POINTS, ids=str)
    def test_matches_exact_sum(self, point):
        lhs, margin, val = corollary2_exact(*point)
        rep = corollary2_check(*point)
        assert (rep.lhs, rep.margin, rep.details["sum_valuation"]) == (lhs, margin, val)
        assert rep.holds == (margin >= 0)

    def test_holds_example(self):
        rep = corollary2_check(5, 0, 0, 6, 0)
        assert rep.holds and rep.lhs == "0"

    def test_b1_failure(self):
        rep = corollary2_check(5, 0, 0, 1, 0)
        assert not rep.holds
        assert rep.lhs == "5"
        assert rep.details["sum_valuation"] == 1
        assert rep.margin == -1

    def test_t1_example(self):
        rep = corollary2_check(5, 0, 1, 10, 0)
        assert rep.holds and rep.modulus == (5, 3)

    def test_derived_v_default(self):
        # b/p^t = 25 has vp = 2 >= 2a+1, so the derived v is min(0, t) with
        # k-role exponent 25: v = min(2-1, 1) = 1
        rep = corollary2_check(5, 0, 1, 125)
        assert rep.inputs["v"] == 1
        rep = corollary2_check(5, 0, 1, 10)
        assert rep.inputs["v"] == 0
        # a = 1, t = 1: v = max(0, min(vp(b/p^t) - 3, t)) on both sides of 2a+1 = 3
        for vc, v in [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1)]:
            assert corollary2_check(5, 1, 1, 5 ** (1 + vc)).inputs["v"] == v

    def test_v_range_checked(self):
        with pytest.raises(ValueError, match="0 <= v <= t"):
            corollary2_check(5, 0, 0, 6, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="not divisible"):
            corollary2_check(5, 1, 1, 5)
        with pytest.raises(ValueError, match="must not divide"):
            corollary2_check(5, 0, 0, 4, 0)

    def test_exact_valuation_reported(self):
        rep = corollary2_check(5, 0, 1, 10, 0)
        assert rep.details["sum_valuation"] == 4
        assert rep.margin == 4 - 3


class TestCase1:
    def test_example_p5(self):
        rep = case1_step_check(5, 1, 2)
        assert rep.holds
        assert rep.lhs == rep.rhs == "1"  # B22 ≡ 22*(B2/2) - 5*B2 ≡ 1 mod 25
        assert rep.details["hypothesis_holds"]

    def test_example_p7(self):
        rep = case1_step_check(7, 1, 2)
        assert rep.holds and rep.modulus == (7, 2)

    def test_deeper_point(self):
        assert case1_step_check(5, 2, 2).holds
        assert case1_step_check(5, 1, 6).holds

    def test_hypothesis_layer_optional(self):
        # the mod-p^a layer is always checked and reported
        rep = case1_step_check(5, 1, 2)
        assert rep.holds and rep.details["hypothesis_holds"]

    def test_preconditions(self):
        with pytest.raises(ValueError, match="greater than 3"):
            case1_step_check(3, 1, 2)
        with pytest.raises(ValueError, match="must not divide"):
            case1_step_check(5, 1, 4)  # (p-1) | r
        with pytest.raises(ValueError, match="smaller than a"):
            case1_step_check(5, 1, 10)  # vp(r) = 1 = a


class TestCase2:
    def test_example_t0(self):
        rep = case2_check(SPS, 2)
        assert rep.holds
        assert rep.lhs == rep.rhs == "1"  # 14*B18 ≡ 18*B14 ≡ 1 mod 5
        assert rep.details == {"index_lhs": 18, "index_rhs": 14}

    def test_example_t1(self):
        rep = case2_check(ParameterSet(5, 0, 1, 10), 2)
        assert rep.holds and rep.details["index_lhs"] == 90

    def test_b1_trivial(self):
        rep = case2_check(SPS, 1)
        assert rep.holds and rep.margin > 0

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="even and positive"):
            case2_check(SPS, -4)  # k + b p^a(p-1) = -6


class TestCase3:
    @pytest.mark.parametrize("args", [(5, 0, 1, 10), (5, 0, 2, 10), (7, 0, 1, 14)])
    def test_examples(self, args):
        rep = case3_branch_check(ParameterSet(*args))
        assert rep.holds
        assert rep.modulus == (args[0], 3 * args[1] + args[2] + 2)

    def test_rejects_t0(self):
        with pytest.raises(ValueError, match="t must be"):
            case3_branch_check(SPS)

    def test_consistent_with_kummer(self):
        # dividing the branch congruence by (k+p^a(p-1))p^t of valuation a+t
        # is the index step t -> t-1 of the corrected B/index congruence
        sps = ParameterSet(5, 0, 1, 10)
        assert case3_branch_check(sps).holds
        assert kummer_check(5, 0, 14, 70).holds


class TestKummer:
    def test_example_mod5(self):
        rep = kummer_check(5, 0, 2, 6)
        assert rep.holds
        assert rep.lhs == rep.rhs == "3"

    def test_example_mod25(self):
        rep = kummer_check(5, 1, 6, 26)
        assert rep.holds
        assert rep.lhs == rep.rhs == "13"

    def test_reflexive(self):
        rep = kummer_check(5, 1, 6, 6)
        assert rep.holds and rep.margin > 0

    def test_preconditions(self):
        with pytest.raises(ValueError, match="must not divide"):
            kummer_check(5, 0, 4, 8)
        with pytest.raises(ValueError, match="congruent"):
            kummer_check(5, 1, 2, 6)
        with pytest.raises(ValueError, match="even"):
            kummer_check(5, 0, 3, 7)

    def test_transitivity_on_class(self):
        triples = [(2, 6, 10), (2, 6, 46), (6, 26, 46)]
        for r, s, w in triples:
            first = kummer_check(5, 0, r, s)
            second = kummer_check(5, 0, s, w)
            third = kummer_check(5, 0, r, w)
            assert first.holds and second.holds
            assert third.holds

    def test_euler_factor_matters_for_small_r(self):
        # mod p^(a+1) the factor 1 - p^(r-1) is invisible once r > a+1, but
        # at r = 2, a = 1 it is 1 - p and genuinely part of the statement
        rep = kummer_check(5, 1, 2, 22)
        assert rep.holds
        from padlab.bernoulli import bernoulli
        from padlab.padic_core import reduce_rational

        bare_lhs = reduce_rational(bernoulli(2) / 2, 5, 2)
        bare_rhs = reduce_rational(bernoulli(22) / 22, 5, 2)
        assert bare_lhs != bare_rhs  # uncorrected sides disagree mod 25
