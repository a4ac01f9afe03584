from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loopsv import ParseError, Scalar, parse_scalar
from loopsv.scalars import ONE, ZERO, is_squarefree

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
).map(Scalar)
root2s = st.tuples(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
).map(lambda ab: Scalar(ab[0], ab[1], 2))


def test_rational_part_canonicalizes_radicand():
    assert Scalar(3, 0, 5).d == 0
    assert Scalar(3) == Scalar(3, 0, 7)


def test_nonzero_root_part_needs_radicand():
    with pytest.raises(ValueError):
        Scalar(0, 1, 0)
    with pytest.raises(ValueError):
        Scalar(0, 1, 1)


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)


def test_int_interop_and_hash():
    assert Scalar(3) == 3
    assert hash(Scalar(3)) == hash(3)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert Scalar(2) + 1 == 3
    assert 2 * Scalar(Fraction(1, 2)) == ONE


def test_division_and_inverse():
    x = Scalar(1, 1, 2)  # 1 + sqrt2
    assert x * x.inverse() == ONE
    assert (x / x) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow_negative_exponent():
    x = Scalar(Fraction(2, 3))
    assert x**3 == Scalar(Fraction(8, 27))
    assert x**-2 == Scalar(Fraction(9, 4))
    assert Scalar(0, 1, 2) ** 2 == 2


def test_sign_mixed_terms():
    # 3 - 2*sqrt2 is slightly positive, 2 - 2*sqrt2 is negative
    assert Scalar(3, -2, 2).sign() == 1
    assert Scalar(2, -2, 2).sign() == -1
    assert Scalar(-3, 2, 2).sign() == -1
    assert ZERO.sign() == 0


def test_ordering_matches_real_embedding():
    assert Scalar(0, 1, 2) > 1
    assert Scalar(0, 1, 2) < Scalar(Fraction(3, 2))
    assert abs(Scalar(1, -1, 2)) == Scalar(-1, 1, 2)


def test_sqrt_rational_cases():
    assert Scalar(Fraction(9, 4)).sqrt() == Scalar(Fraction(3, 2))
    assert Scalar(2).sqrt() is None
    assert Scalar(2).sqrt(field_d=2) == Scalar(0, 1, 2)
    assert Scalar(-1).sqrt() is None
    assert ZERO.sqrt() == ZERO


def test_sqrt_is_nonnegative_and_exact():
    x = Scalar(3, 2, 2)  # (1 + sqrt2)^2
    r = x.sqrt(field_d=2)
    assert r == Scalar(1, 1, 2)
    assert r.sign() > 0
    assert (Scalar(-1, -1, 2) ** 2).sqrt(field_d=2) == Scalar(1, 1, 2)


def test_str_forms():
    assert str(Scalar(Fraction(-3, 2))) == "-3/2"
    assert str(Scalar(0, 1, 2)) == "sqrt2"
    assert str(Scalar(0, -1, 2)) == "-sqrt2"
    assert str(Scalar(1, Fraction(-1, 2), 2)) == "1-1/2*sqrt2"
    assert str(Scalar(0, 2, 3)) == "2*sqrt3"


@given(rationals)
def test_parse_round_trip_rational(x):
    assert parse_scalar(str(x)) == x


@given(root2s)
def test_parse_round_trip_root2(x):
    assert parse_scalar(str(x), field_d=2) == x


def test_parse_rejects_wrong_radicand():
    with pytest.raises(ParseError):
        parse_scalar("sqrt3", field_d=2)
    with pytest.raises(ParseError):
        parse_scalar("sqrt2", field_d=0)
    with pytest.raises(ParseError):
        parse_scalar("")


def test_parse_refuses_large_radicand_before_trial_division():
    # trial division up to sqrt(10^20) would run for hours
    with pytest.raises(ParseError, match="below 10\\^12"):
        parse_scalar("sqrt100000000000000000039")
    assert parse_scalar("sqrt999999999989") == Scalar(0, 1, 999999999989)


@given(root2s, root2s, root2s)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if y:
        assert (x / y) * y == x


@given(root2s, root2s)
def test_order_compatible_with_addition(x, y):
    if x < y:
        assert x + 1 < y + 1
        assert -y < -x


def test_squarefree():
    assert is_squarefree(2) and is_squarefree(15)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(0)


@given(root2s, st.one_of(root2s, st.integers(-30, 30), st.fractions(-30, 30, max_denominator=12)))
def test_comparisons_follow_the_sign_of_the_difference(x, y):
    # all four orderings, with an int or Fraction on either side
    sign = (x - y).sign()
    assert ((x < y), (x <= y), (x > y), (x >= y)) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
    assert ((y > x), (y >= x), (y < x), (y <= x)) == (sign < 0, sign <= 0, sign > 0, sign >= 0)


def test_comparison_with_a_float_is_refused():
    with pytest.raises(TypeError):
        Scalar(1) <= 1.0
    with pytest.raises(TypeError):
        1.0 > Scalar(1)
