import pickle
import re
from math import gcd

import pytest
from hypothesis import assume, given, reject
from hypothesis import strategies as st

from padlab.congruence_suite import case2_check, case3_branch_check, theorem2_check
from padlab.params import ParameterSet, f_exponents


class TestMakeParams:
    def test_example_small(self):
        ps = ParameterSet(5, 0, 0, 10)
        assert (ps.d, ps.v, ps.M, ps.kprime) == (2, 0, 2, 2)

    def test_example_larger(self):
        ps = ParameterSet(5, 1, 1, 125)
        assert (ps.d, ps.v, ps.M, ps.kprime) == (4, 0, 6, 1)

    def test_rejects_k_not_multiple(self):
        with pytest.raises(ValueError, match="not divisible"):
            ParameterSet(5, 0, 0, 3)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="odd prime"):
            ParameterSet(4, 0, 0, 4)
        with pytest.raises(ValueError, match="odd prime"):
            ParameterSet(2, 0, 0, 2)

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            ParameterSet(5, -1, 0, 5)
        with pytest.raises(ValueError):
            ParameterSet(5, 0, -1, 5)
        with pytest.raises(ValueError):
            ParameterSet(5, 0, 0, 0)

    def test_as_dict_keys(self):
        assert set(ParameterSet(5, 0, 0, 10).as_dict()) == {"p", "a", "t", "k", "d", "v", "M"}


class TestValueSemantics:
    def test_fields_cannot_be_assigned_or_deleted(self):
        ps = ParameterSet(5, 0, 0, 10)
        for name in ("p", "k", "M", "extra"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(ps, name, 7)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(ps, name)
        assert (ps.p, ps.k, ps.M) == (5, 10, 2)

    def test_equality_and_hash_are_by_p_a_t_k(self):
        ps, same = ParameterSet(5, 1, 1, 125), ParameterSet(p=5, a=1, t=1, k=125)
        assert ps is not same and ps == same and hash(ps) == hash(same)
        others = [ParameterSet(7, 1, 1, 343), ParameterSet(5, 0, 1, 125), ParameterSet(5, 1, 0, 125), ParameterSet(5, 1, 1, 250)]
        assert all(ps != other for other in others)
        assert len({ps, same, *others}) == 5
        assert ps != (5, 1, 1, 125) and ps != ps.as_dict()

    def test_pickle_round_trip(self):
        ps = ParameterSet(5, 1, 1, 125)
        back = pickle.loads(pickle.dumps(ps))
        assert back == ps and (back.d, back.v, back.M, back.kprime) == (4, 0, 6, 1)
        with pytest.raises(AttributeError):
            back.k = 5

    def test_repr_names_every_field(self):
        assert repr(ParameterSet(5, 0, 0, 10)) == "ParameterSet(p=5, a=0, t=0, k=10, d=2, v=0, M=2, kprime=2)"


class TestStrongParams:
    def test_accepts(self):
        ParameterSet(5, 0, 0, 10).check_strong()
        ParameterSet(7, 0, 1, 14).check_strong()

    def test_rejects_factor_two_missing(self):
        with pytest.raises(ValueError, match="2p"):
            ParameterSet(5, 0, 0, 5).check_strong()

    def test_rejects_p_minus_one_divisor(self):
        with pytest.raises(ValueError, match="p-1"):
            ParameterSet(5, 0, 0, 20).check_strong()

    def test_strong_checkers_reject_weak_k(self):
        # theorem2, case2 and case3 each run check_strong first, so a weak k
        # errors with its message whatever the checker's own arguments
        messages = {
            5: "k = 5 is not divisible by 2p^(2a+1) = 10",
            20: "k = 20 must not be divisible by p-1 = 4",
        }
        for k, message in messages.items():
            ps = ParameterSet(5, 0, 1, k)
            checks = (lambda: theorem2_check(ps, 1), lambda: case2_check(ps, 2), lambda: case3_branch_check(ps))
            for check in checks:
                with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                    check()


class TestFExponents:
    @pytest.mark.parametrize(
        "ps_args,expected",
        [
            ((5, 0, 0, 10), (14, 6)),
            ((5, 1, 1, 125), (725, 525)),
            ((5, 0, 1, 10), (70, 30)),
        ],
    )
    def test_examples(self, ps_args, expected):
        assert f_exponents(ParameterSet(*ps_args)) == expected


@st.composite
def valid_params(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    a = draw(st.integers(min_value=0, max_value=2))
    t = draw(st.integers(min_value=0, max_value=2))
    mult = draw(st.integers(min_value=1, max_value=30))
    extra = draw(st.integers(min_value=0, max_value=3))
    return ParameterSet(p, a, t, p ** (2 * a + 1 + extra) * mult)


class TestDerivedInvariants:
    @given(valid_params())
    def test_invariants(self, ps):
        assert ps.v >= 0
        assert 0 <= ps.v <= ps.t
        assert (ps.p - 1) % ps.d == 0
        assert ps.M >= 2
        assert gcd(ps.kprime, ps.p) == 1
        assert gcd(ps.kprime, ps.p - 1) == gcd(ps.k, ps.p - 1)

    @given(valid_params())
    def test_f_exponents_positive(self, ps):
        e_plus, e_minus = f_exponents(ps)
        assert e_plus > 0 and e_minus > 0

    def test_f_exponents_bound_under_strong_hypotheses(self):
        # both exponents clear 2p^(a+t) once 2p^(2a+1) | k; the minimal
        # plain k = p^(2a+1) at a = 0 gives e_minus = p^t below that bound
        for p, a, t in [(5, 0, 0), (5, 1, 1), (7, 0, 1), (7, 1, 0)]:
            sps = ParameterSet(p, a, t, 2 * p ** (2 * a + 1))
            sps.check_strong()
            e_plus, e_minus = f_exponents(sps)
            assert min(e_plus, e_minus) >= 2 * p ** (a + t)
        weak = ParameterSet(5, 0, 1, 5)
        assert min(f_exponents(weak)) == 5 < 2 * 5

    @given(valid_params(), st.integers(min_value=-100, max_value=100))
    def test_strong_hypotheses_make_case2_indices_valid(self, ps, b):
        # why case2 guards only index_b < 2: once check_strong passes, both
        # Bernoulli indices (k + b p^a(p-1))p^t are ≡ k mod p-1 and even
        ps = ParameterSet(ps.p, ps.a, ps.t, 2 * ps.k)
        try:
            ps.check_strong()
        except ValueError:
            reject()
        shift = ps.p**ps.a * (ps.p - 1)
        index_b = (ps.k + b * shift) * ps.p**ps.t
        index_1 = (ps.k + shift) * ps.p**ps.t
        assume(index_b >= 2)
        assert index_1 >= 2
        for idx in (index_b, index_1):
            assert idx % 2 == 0
            assert idx % (ps.p - 1) != 0
