import math

import pytest
from hypothesis import example, given, strategies as st

from certigraph.gcd import GcdTriple, check_gcd
from certigraph.oracles import eval_witness_predicate
from certigraph.solvers import solve_gcd
from certigraph.verdict import PreconditionError

from helpers import verdicts_agree


def test_accepts_correct_certificate():
    v = check_gcd(GcdTriple(12, 8, 4, 1, -1))
    assert v.accepted


def test_accepts_golden_instance():
    assert check_gcd(GcdTriple(240, 46, 2, -9, 47)).accepted


def test_rejects_non_divisor():
    v = check_gcd(GcdTriple(12, 8, 5, 1, -1))
    assert not v.accepted
    assert v.clause == "divides_a"
    v = check_gcd(GcdTriple(12, 8, 4, 0, 0))
    assert v.clause == "combination"


def test_rejects_common_divisor_without_combination():
    # 2 divides both 12 and 8 but cannot be written better than via the
    # claimed coefficients; with s = t = 0 the combination clause fails.
    v = check_gcd(GcdTriple(12, 8, 2, 0, 0))
    assert not v.accepted
    assert v.clause == "combination"


def test_rejects_multiple_of_gcd():
    v = check_gcd(GcdTriple(12, 8, 8, 1, -1))
    assert v.clause == "divides_a"
    v = check_gcd(GcdTriple(12, 8, 12, 1, 0))
    assert v.clause == "divides_b"


def test_rejects_negative_g():
    v = check_gcd(GcdTriple(12, 8, -4, -1, 1))
    assert not v.accepted
    assert v.clause == "g_nonneg"


def test_preconditions():
    with pytest.raises(PreconditionError) as exc:
        check_gcd(GcdTriple(-1, 8, 1, 1, 0))
    assert exc.value.clause == "nonneg_inputs"
    with pytest.raises(PreconditionError) as exc:
        check_gcd(GcdTriple(0, 0, 0, 0, 0))
    assert exc.value.clause == "not_both_zero"


def test_zero_operand():
    assert check_gcd(GcdTriple(0, 7, 7, 0, 1)).accepted
    assert check_gcd(GcdTriple(7, 0, 7, 1, 0)).accepted
    # g = 0 divides only 0; with a = 7 it cannot be the gcd.
    v = check_gcd(GcdTriple(7, 0, 0, 0, 0))
    assert not v.accepted
    assert v.clause == "divides_a"


def test_solver_round_trip_examples():
    res = solve_gcd(240, 46)
    s, t = res.witness
    assert res.output == 2 and s * 240 + t * 46 == 2
    assert check_gcd(GcdTriple(240, 46, res.output, s, t)).accepted


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_solver_matches_math_gcd(a, b):
    if a == 0 and b == 0:
        return
    res = solve_gcd(a, b)
    assert res.output == math.gcd(a, b)
    s, t = res.witness
    triple = GcdTriple(a, b, res.output, s, t)
    assert check_gcd(triple).accepted
    assert eval_witness_predicate("gcd", triple)


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=-10, max_value=60),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
)
@example(-4, 6, 2, 1, 1)  # precondition: a negative input
@example(4, -6, 2, -1, -1)
@example(0, 0, 0, 0, 0)  # precondition: gcd(0, 0)
def test_decision_property(a, b, g, s, t):
    agree, checker_says, eval_says = verdicts_agree("gcd", GcdTriple(a, b, g, s, t))
    assert agree, (checker_says, eval_says)
    if checker_says is True:
        assert g == math.gcd(a, b)


@pytest.mark.parametrize(
    "g, s, clause",
    [(-1, 0, "g_nonneg"), (2, 0, "divides_a"), (1, 0, "combination")],
    ids=["g_nonneg", "divides_a", "combination"],
)
def test_rejection_of_5000_digit_numbers_is_total(g, s, clause):
    # Decimal text of numbers past 4300 digits raises under CPython's
    # default digit limit; the rejection must not need it.
    a = 10**4999 + 1
    v = check_gcd(GcdTriple(a, 2 * a, g * a, s, 0))
    assert (v.accepted, v.clause) == (False, clause)
    assert "bit integer" in v.detail
