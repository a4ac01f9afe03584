from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsv import ParseError, Scalar, parse_scalar
from loopsv.scalars import ONE, ZERO, is_squarefree

from support import RefScalar

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


def test_constructor_refuses_a_float():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    for a, b in ((0.1, 0), (1, 0.5), (2.0, 0)):
        with pytest.raises(TypeError):
            Scalar(a, b, 2)


def test_constructor_refuses_a_string():
    # scalar text is parse_scalar's to read, against the field it names
    for a, b in (("1/2", 0), (1, "1"), ("sqrt2", 0)):
        with pytest.raises(TypeError):
            Scalar(a, b, 2)


def test_constructor_refuses_a_radicand_that_is_not_one():
    # 4 and 8 are not squarefree: (2 - sqrt4) is 0 and sqrt8 is 2*sqrt2
    for d in (4, 8, 9, 12):
        with pytest.raises(ValueError):
            Scalar(2, -1, d)
    # refused by size before any trial division up to its square root
    with pytest.raises(ValueError):
        Scalar(0, 1, 100000000000000000039)
    assert Scalar(2, 0, 4) == 2


def test_parts_are_the_canonical_integers():
    assert Scalar(Fraction(1, 2), Fraction(-1, 3), 2).parts() == (3, -2, 6, 2)
    assert Scalar(Fraction(-4, 6)).parts() == (-2, 0, 3, 0)
    assert ZERO.parts() == (0, 0, 1, 0)
    assert Scalar.from_parts(4, -2, -6, 2).parts() == (-2, 1, 3, 2)
    assert Scalar.from_parts(3, 0, 6, 2).parts() == (1, 0, 2, 0)
    assert (Scalar(1, 1, 2) + Scalar(1, -1, 2)).parts() == (2, 0, 1, 0)


def test_scalar_is_read_only():
    x = Scalar(1, 1, 2)
    for name in ("a", "b", "d", "colour"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert x == Scalar(1, 1, 2)


@pytest.mark.parametrize("d", [0, 2])
def test_ring_operations_build_no_fraction(monkeypatch, d):
    # integral, equal-denominator and unequal-denominator operands, plus an int and a Fraction
    values = [
        Scalar(Fraction(3, 4), Fraction(-5, 6) if d else 0, d),
        Scalar(Fraction(-7, 10), Fraction(2, 9) if d else 0, d),
        Scalar(Fraction(1, 4), Fraction(3, 4) if d else 0, d),
        Scalar(-5, 2 if d else 0, d),
        Scalar(3),
        Scalar(0),
    ]
    others = [2, Fraction(-3, 8)]
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert len(made) == 1  # the patch is live
    made.clear()
    for x in values:
        for y in values + others:
            assert x + y - y == x and y + x == x + y
            assert x * y == y * x
            assert (x == y) == (x - y == 0)
    assert made == []


# -- parity with the two-Fraction form -----------------------------------------

BIG = 10**30
parity_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def parity_scalars(draw, count):
    """``count`` (new, reference) pairs of equal values in one of Q, Q(sqrt2), Q(sqrt3)."""
    d = draw(st.sampled_from([0, 2, 3]))
    out = []
    for _ in range(count):
        a = draw(parity_rationals)
        b = draw(parity_rationals) if d else Fraction(0)
        out.append((Scalar(a, b, d), RefScalar(a, b, d)))
    return out


def assert_same(got, ref):
    """The new scalar ``got`` shows and holds what the reference ``ref`` does."""
    assert str(got) == str(ref)
    assert repr(got) == repr(ref).replace("RefScalar", "Scalar")
    assert (got.a, got.b, got.d) == (ref.a, ref.b, ref.d)
    assert hash(got) == hash(ref)
    assert got.sign() == ref.sign()


@settings(max_examples=200, deadline=None)
@given(parity_scalars(2), st.integers(-3, 3), st.integers(-BIG, BIG), parity_rationals)
def test_arithmetic_matches_the_fraction_form(pairs, n, k, f):
    (x, rx), (y, ry) = pairs
    assert_same(x, rx)
    for op, ref_op in [
        (lambda: x + y, lambda: rx + ry),
        (lambda: x - y, lambda: rx - ry),
        (lambda: x * y, lambda: rx * ry),
        (lambda: x / y, lambda: rx / ry),
        (lambda: x.inverse(), lambda: rx.inverse()),
        (lambda: x**n, lambda: rx**n),
        (lambda: -x, lambda: -rx),
        (lambda: abs(x), lambda: abs(rx)),
        (lambda: x + k, lambda: rx + k),
        (lambda: k - x, lambda: k - rx),
        (lambda: f * x, lambda: f * rx),
        (lambda: x / f, lambda: rx / f),
        (lambda: k / x, lambda: k / rx),
    ]:
        try:
            expect = ref_op()
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op()
            continue
        assert_same(op(), expect)
    assert (x < y) == (rx < ry) and (y < x) == (ry < rx)
    assert (x < k) == (rx < k) and (x > f) == (rx > f)
    assert (x == y) == (rx == ry)


@settings(max_examples=200, deadline=None)
@given(parity_rationals, st.integers(-BIG, BIG))
def test_rational_equality_and_hash_match_int_and_fraction(f, k):
    x = Scalar(f)
    assert x == f and f == x and hash(x) == hash(f)
    assert (x == k) == (f == k) and (x == Fraction(k)) == (f == k)
    assert Scalar(k) == k and hash(Scalar(k)) == hash(k)
    if f.denominator == 1:
        assert x == f.numerator and hash(x) == hash(f.numerator)
    assert Scalar(f, 1, 2) != f and Scalar(f, 1, 2) != f.numerator


@settings(max_examples=200, deadline=None)
@given(parity_scalars(1))
def test_sqrt_matches_the_fraction_form(pairs):
    [(x, rx)] = pairs
    d = x.d or 2
    for got, ref in [
        (x.sqrt(), rx.sqrt()),
        (x.sqrt(d), rx.sqrt(d)),
        ((x * x).sqrt(x.d), (rx * rx).sqrt(rx.d)),
        ((x * x * d).sqrt(d), (rx * rx * d).sqrt(d)),
        ((x * x * 3).sqrt(3), (rx * rx * 3).sqrt(3)) if not x.d else (None, None),
    ]:
        if ref is None:
            assert got is None
        else:
            assert_same(got, ref)
