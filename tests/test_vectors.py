"""The arithmetic that Element, LaurentPoly, LinearFunctional and ExtendedElement share.

Each of the four is a finite map from keys to nonzero scalars.  Every
operation is checked against the same operation on a plain dict.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsv import (
    Element,
    ExtendedElement,
    GroupData,
    GroupMismatchError,
    LaurentPoly,
    LinearFunctional,
    LoopAlgebra,
    Scalar,
    Window,
)

ZERO = Scalar(0)
ONE = Scalar(1)

ALG = LoopAlgebra(GroupData.default())
OTHER = LoopAlgebra(GroupData.default())
KEYS = ALG.window_keys(Window(1, 0))
LOOPS = list(range(-3, 4))
UNIVERSE = {
    "element": KEYS,
    "laurent": LOOPS,
    "functional": KEYS,
    "extended": KEYS + LOOPS,
}
KINDS = sorted(UNIVERSE)

coeffs = st.one_of(
    st.just(ZERO),
    st.builds(Scalar, st.fractions(-3, 3, max_denominator=3), st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]), st.just(2)),
)
factors = st.one_of(coeffs, st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


def maps(kind):
    return st.dictionaries(st.sampled_from(UNIVERSE[kind]), coeffs, max_size=6)


def make(kind, terms, alg=ALG):
    if kind == "element":
        return Element(alg.group, terms)
    if kind == "laurent":
        return LaurentPoly(terms)
    if kind == "functional":
        return LinearFunctional(terms)
    base = {k: c for k, c in terms.items() if not isinstance(k, int)}
    central = {k: c for k, c in terms.items() if isinstance(k, int)}
    return ExtendedElement(Element(alg.group, base), central)


def nonzero(terms):
    return {k: c for k, c in terms.items() if c}


def as_dict(x, kind):
    """The nonzero coefficients of ``x`` over its key universe; ``len`` must count them all."""
    out = nonzero({k: x.coefficient(k) for k in UNIVERSE[kind]})
    assert len(x) == len(out)
    return out


def added(d1, d2, sign):
    return nonzero({k: d1.get(k, ZERO) + sign * d2.get(k, ZERO) for k in set(d1) | set(d2)})


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sum_difference_and_negation_follow_the_dicts(kind, data):
    d1, d2 = data.draw(maps(kind)), data.draw(maps(kind))
    x, y = make(kind, d1), make(kind, d2)
    assert as_dict(x + y, kind) == added(d1, d2, ONE)
    assert as_dict(x - y, kind) == added(d1, d2, -ONE)
    assert as_dict(-x, kind) == {k: -c for k, c in nonzero(d1).items()}
    assert type(x + y) is type(x - y) is type(-x) is type(x)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scalar_product_on_either_side(kind, data):
    d, c = data.draw(maps(kind)), data.draw(factors)
    x = make(kind, d)
    want = nonzero({k: v * c for k, v in d.items()})
    assert as_dict(x * c, kind) == want
    assert as_dict(c * x, kind) == want
    assert type(x * c) is type(c * x) is type(x)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equality_is_equality_of_the_dicts(kind, data):
    d1, d2 = data.draw(maps(kind)), data.draw(maps(kind))
    x, y = make(kind, d1), make(kind, d2)
    assert (x == y) == (nonzero(d1) == nonzero(d2))
    assert (x != y) == (nonzero(d1) != nonzero(d2))
    # zero coefficients and insertion order leave no trace
    padded = {k: ZERO for k in reversed(UNIVERSE[kind])}
    padded.update(d1)
    assert make(kind, padded) == x


@settings(max_examples=40, deadline=None)
@given(terms=maps("element"), loops=maps("laurent"))
def test_equality_is_false_across_types(terms, loops):
    objs = [
        Element(ALG.group, terms),
        LinearFunctional(terms),
        ExtendedElement(Element(ALG.group, terms)),
        LaurentPoly(loops),
        ExtendedElement(ALG.zero(), loops),
    ]
    for a in objs:
        for b in objs:
            if type(a) is not type(b):
                assert not a == b
                assert a != b


@pytest.mark.parametrize("kind", ["element", "extended"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_groups_do_not_mix(kind, data):
    d = data.draw(maps(kind))
    x, y = make(kind, d), make(kind, d, OTHER)
    assert x != y and not x == y
    with pytest.raises(GroupMismatchError):
        x + y
    with pytest.raises(GroupMismatchError):
        x - y


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truth_coefficients_and_zero_dropping(kind, data):
    d = data.draw(maps(kind))
    x = make(kind, d)
    assert bool(x) == bool(nonzero(d)) == (not x.is_zero())
    assert len(x) == len(nonzero(d))
    for k in UNIVERSE[kind]:
        assert x.coefficient(k) == d.get(k, ZERO)
    assert not x - x and (x - x).is_zero() and len(x - x) == 0
    assert not x * 0 and not 0 * x


@pytest.mark.parametrize("kind", KINDS)
def test_assignment_is_refused(kind):
    x = make(kind, {UNIVERSE[kind][0]: ONE})
    for name in ("_terms", "_space", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, {})
    assert x.coefficient(UNIVERSE[kind][0]) == ONE


@settings(max_examples=40, deadline=None)
@given(d1=maps("laurent"), d2=maps("laurent"))
def test_equal_laurent_polys_hash_alike(d1, d2):
    x = LaurentPoly(d1)
    padded = {e: ZERO for e in reversed(LOOPS)}
    padded.update(reversed(list(d1.items())))
    assert LaurentPoly(padded) == x and hash(LaurentPoly(padded)) == hash(x)
    y = LaurentPoly(d2)
    assert hash(x + y - y) == hash(x)


@pytest.mark.parametrize("kind", ["element", "functional", "extended"])
def test_other_types_are_unhashable(kind):
    with pytest.raises(TypeError):
        hash(make(kind, {}))


@settings(max_examples=40, deadline=None)
@given(base=maps("element"), central=maps("laurent"))
def test_extended_element_reads_its_parts(base, central):
    e = Element(ALG.group, base)
    x = ExtendedElement(e, central)
    assert x.element == e
    assert x.central == nonzero(central)
    assert x == ExtendedElement(e) + ExtendedElement(ALG.zero(), central)
