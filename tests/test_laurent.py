from fractions import Fraction

import pytest

from loopsv import GroupData, LaurentPoly, LoopAlgebra, ParseError, Scalar, parse_laurent

t = LaurentPoly.t


@pytest.fixture(scope="module")
def anyalg():
    return LoopAlgebra(GroupData.default())


def test_zero_pruning():
    p = LaurentPoly({2: Scalar(0), 1: Scalar(3)})
    assert p.coefficient(2) == 0
    assert list(p.items()) == [(1, Scalar(3))]
    assert not LaurentPoly({0: Scalar(0)})


def test_ring_ops():
    p = 2 * t(1) + LaurentPoly.term(1)
    q = t(-1)
    assert p * q == LaurentPoly.term(2) + t(-1)
    assert (p - p).is_zero()
    assert p + q - q == p


def test_shift_and_derivative():
    p = 3 * t(2)
    assert p.shift(-2) == LaurentPoly.term(3)
    assert p.derivative() == 6 * t(1)
    assert t(-1).derivative() == -t(-2)
    assert LaurentPoly.term(5).derivative().is_zero()


def test_str_forms():
    assert str(LaurentPoly.zero()) == "0"
    assert str(t(1)) == "t"
    assert str(-t(1)) == "-t"
    assert str(t(-1)) == "t^-1"
    assert str(2 * t(2) + LaurentPoly.term(3)) == "3 + 2*t^2"
    assert str(LaurentPoly.term(Scalar(Fraction(1, 2)), 1)) == "1/2*t"


def test_parse_examples(anyalg):
    assert parse_laurent(anyalg, "2 + 3*t^2") == LaurentPoly.term(2) + 3 * t(2)
    assert parse_laurent(anyalg, "-t") == -t(1)
    assert parse_laurent(anyalg, "t^-1") == t(-1)
    assert parse_laurent(anyalg, "0") == LaurentPoly.zero()
    assert parse_laurent(anyalg, "1/2*t - t^-2") == LaurentPoly.term(Scalar(Fraction(1, 2)), 1) - t(-2)
    # whitespace around '^' reads as it does around '*' and in a key
    assert parse_laurent(anyalg, "2 * t ^ -1 - t^ 2") == 2 * t(-1) - t(2)


def test_parse_round_trip(anyalg):
    cases = [
        LaurentPoly.zero(),
        t(1),
        -t(3) + 2 * t(-2),
        LaurentPoly.term(Scalar(Fraction(-5, 3))) + t(1),
        LaurentPoly({0: Scalar(1, 1, 2)}),
        LaurentPoly({2: Scalar(0, 2, 2), 0: Scalar(3)}),
    ]
    root2alg = LoopAlgebra(
        GroupData([Scalar(1)], Scalar(Fraction(1, 2)), field_d=2)
    )
    for p in cases:
        assert parse_laurent(root2alg, str(p)) == p


def test_parse_errors(anyalg):
    with pytest.raises(ParseError):
        parse_laurent(anyalg, "t^x")
    with pytest.raises(ParseError):
        parse_laurent(anyalg, "2*")
    with pytest.raises(ParseError):
        parse_laurent(anyalg, "")
    with pytest.raises(ParseError, match=r"parenthesized coefficient needs '\*'"):
        parse_laurent(anyalg, "(2)t")
    with pytest.raises(ParseError):  # an integer is one token, as a loop index is
        parse_laurent(anyalg, "t^- 1")
