import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from loopsv import GroupConfigError, GroupData, Scalar, Window
from loopsv.lattice import coordinates, hermite_form, lattice_basis


def test_hermite_collapses_to_gcd():
    assert lattice_basis([[Fraction(2)], [Fraction(3)]]) == [[Fraction(1)]]
    assert lattice_basis([[Fraction(4)], [Fraction(6)]]) == [[Fraction(2)]]


@given(st.lists(st.lists(st.integers(-12, 12), min_size=2, max_size=2), min_size=1, max_size=4))
def test_hermite_form_is_reduced_echelon(rows):
    h = hermite_form(rows)
    nonzero = [row for row in h if any(row)]
    assert h[len(nonzero) :] == [[0, 0]] * (len(h) - len(nonzero))
    pivots = [next(j for j, v in enumerate(row) if v) for row in nonzero]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(nonzero, pivots)):
        assert row[p] > 0
        assert all(0 <= above[p] < row[p] for above in nonzero[:i])
    basis = [[Fraction(v) for v in row] for row in nonzero]
    for row in rows:
        assert coordinates(basis, [Fraction(v) for v in row]) is not None
    # every input row lies in the span of h; the spans agree when their
    # determinants (rank 2) or contents (rank 1) agree
    if len(nonzero) == 2:
        minors = [a[0] * b[1] - a[1] * b[0] for a in rows for b in rows]
        assert nonzero[0][0] * nonzero[1][1] == math.gcd(*minors)
    elif len(nonzero) == 1:
        assert math.gcd(*nonzero[0]) == math.gcd(*(v for row in rows for v in row))


def test_lattice_basis_rank2():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert lattice_basis(rows) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def brute_coordinates(basis, x, span=3):
    """The integer vector c in [-span, span]^rank with c @ basis == x, found by search."""
    hits = [
        c
        for c in product(range(-span, span + 1), repeat=len(basis))
        if all(sum(ci * row[j] for ci, row in zip(c, basis)) == x[j] for j in range(len(x)))
    ]
    assert len(hits) <= 1
    return hits[0] if hits else None


@pytest.mark.parametrize(
    "generators",
    [
        [[Fraction(2, 3)], [Fraction(1, 2)]],  # rank 1 in Q: (1/6)Z
        [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(3, 2)]],  # rank 1 in Q(sqrt d): (1/2)sqrt(d)Z
        [[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)]],  # rank 2: Z[(1+sqrt5)/2]
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(10)]],  # rank 2: Z + 10 sqrt2 Z
    ],
    ids=["rank1-Q", "rank1-sqrt", "rank2-sqrt5", "rank2-10sqrt2"],
)
def test_coordinates_match_brute_force(generators):
    basis = lattice_basis(generators)
    dim = len(generators[0])
    # points on and off the lattice: basis combinations with coefficients in
    # thirds and halves, plus a rational part off a rank-1 irrational line
    steps = [Fraction(k, 6) for k in range(-18, 19, 2)] + [Fraction(k, 2) for k in range(-5, 6, 2)]
    points = [
        [sum(ci * row[j] for ci, row in zip(c, basis)) for j in range(dim)]
        for c in product(steps, repeat=len(basis))
    ]
    if dim == 2 and len(basis) == 1:
        points += [[Fraction(1), p[1]] for p in points]
    for x in points:
        assert coordinates(basis, x) == brute_coordinates(basis, x)
    for row in generators:
        assert coordinates(basis, row) is not None


def test_default_group_membership(group):
    assert group.in_gamma(1) and group.in_gamma(-3) and group.in_gamma(0)
    assert not group.in_gamma(Scalar(Fraction(1, 2)))
    assert group.in_gamma1(Scalar(Fraction(1, 2)))
    assert group.in_gamma1(Scalar(Fraction(-3, 2)))
    assert not group.in_gamma1(2)
    assert group.in_t(Scalar(Fraction(5, 2))) and group.in_t(4)
    assert not group.in_t(Scalar(Fraction(1, 3)))


def test_default_bases(group):
    assert group.gamma_basis == (Scalar(1),)
    assert group.t_basis == (Scalar(Fraction(1, 2)),)
    assert group.t_coords(Scalar(Fraction(3, 2))) == (3,)
    assert group.gamma_coords(Scalar(2)) == (2,)
    assert group.gamma_coords(Scalar(Fraction(1, 2))) is None


def test_shift_constraints_enforced():
    with pytest.raises(GroupConfigError):
        GroupData([Scalar(1)], Scalar(2))  # s in Gamma
    with pytest.raises(GroupConfigError):
        GroupData([Scalar(1)], Scalar(Fraction(1, 3)))  # 2s not in Gamma


def test_validate_scaling(group):
    assert group.validate_scaling(1)
    assert group.validate_scaling(-1)
    assert not group.validate_scaling(2)
    assert not group.validate_scaling(0)


def test_rank2_group(root2_group):
    g = root2_group
    assert g.rank == 2
    r2 = Scalar(0, 1, 2)
    assert g.in_gamma(r2) and g.in_gamma(1 + r2)
    assert g.in_gamma1(Scalar(Fraction(1, 2)) + r2)
    assert not g.in_gamma(Scalar(Fraction(1, 2)))
    # scaling by sqrt2 does not fix the lattice (sqrt2 * sqrt2 = 2 is fine
    # but sqrt2/2 has no integer coordinates)
    assert not g.validate_scaling(r2)
    assert g.validate_scaling(-1)


def test_scaled_lattice_group():
    g = GroupData([Scalar(2)], Scalar(1))
    assert g.in_gamma(4) and not g.in_gamma(3)
    assert g.in_gamma1(3) and not g.in_gamma1(2)


def test_from_config_round_trip(root2_group):
    doc = root2_group.describe()
    rebuilt = GroupData.from_config(doc)
    assert rebuilt.gamma_basis == root2_group.gamma_basis
    assert rebuilt.t_basis == root2_group.t_basis
    assert rebuilt.s == root2_group.s
    assert rebuilt.field_d == 2


def test_from_config_errors():
    with pytest.raises(GroupConfigError):
        GroupData.from_config({"field": "R", "gamma_generators": ["1"], "s": "1/2"})
    with pytest.raises(GroupConfigError):
        GroupData.from_config({"field": "Q", "gamma_generators": [], "s": "1/2"})
    with pytest.raises(GroupConfigError):
        GroupData.from_config({"field": "Q", "gamma_generators": ["1"], "s": 0.5})
    with pytest.raises(GroupConfigError):
        GroupData.from_config({"field": "Q", "gamma_generators": ["sqrt2"], "s": "1/2"})
    # a generator that is not a string is refused before it is parsed
    for gen in (1, None):
        with pytest.raises(GroupConfigError, match="^gamma_generators must be a nonempty list of scalar strings$"):
            GroupData.from_config({"gamma_generators": [gen], "s": "1/2"})
    # a radicand that is not one is refused before any scalar is built over it
    with pytest.raises(GroupConfigError, match="^the field radicand must be squarefree"):
        GroupData.from_config({"field": {"Q_sqrt": 4}, "gamma_generators": ["sqrt4"], "s": "1/2"})


def test_field_membership_enforced():
    with pytest.raises(GroupConfigError):
        GroupData([Scalar(0, 1, 3)], Scalar(Fraction(1, 2)), field_d=2)
    with pytest.raises(GroupConfigError):
        GroupData([Scalar(1)], Scalar(Fraction(1, 2)), field_d=12)


# -- reference lattice layer -------------------------------------------------
#
# Random Gamma with independent generators, solved directly by Cramer's rule
# on the (rational part, sqrt part) coordinates instead of any Hermite basis.

small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _vec(x, dim):
    return (x.a, x.b)[:dim]


def cramer(gens, x, dim):
    """Coefficients c with sum c_i * gens_i == x, for a basis gens of the field over Q."""
    cols = [_vec(g, dim) for g in gens]
    v = _vec(x, dim)
    if dim == 1:
        return [v[0] / cols[0][0]]
    (a1, b1), (a2, b2) = cols
    det = a1 * b2 - a2 * b1
    return [(v[0] * b2 - a2 * v[1]) / det, (a1 * v[1] - v[0] * b1) / det]


def ref_in(gens, x, dim):
    return all(c.denominator == 1 for c in cramer(gens, x, dim))


@st.composite
def configs(draw):
    """(generators, s, d): rank 1 over Q or rank 2 over Q(sqrt d)."""
    d = draw(st.sampled_from([0, 2, 3, 5, 7]))
    if d == 0:
        gens = [Scalar(draw(small_fractions.filter(bool)))]
    else:
        def scalar():
            a, b = draw(small_fractions), draw(small_fractions)
            return Scalar(a, b, d if b else 0)

        gens = [scalar() or Scalar(1), scalar()]
        (a1, b1), (a2, b2) = (_vec(g, 2) for g in gens)
        if a1 * b2 == a2 * b1 or draw(st.booleans()):
            # an irrational multiple; c*Z[sqrt d] is carried onto itself by the units below
            gens[1] = Scalar(0, 1, d) * gens[0]
    coeffs = draw(
        st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)).filter(
            lambda e: any(v % 2 for v in e)
        )
    )
    s = sum((Scalar(Fraction(e, 2)) * g for e, g in zip(coeffs, gens)), Scalar(0))
    return gens, s, d


def units(d):
    return {0: [], 2: [(1, 1), (3, 2)], 3: [(2, 1)], 5: [(Fraction(1, 2), Fraction(1, 2)), (2, 1)], 7: [(8, 3)]}[d]


@settings(max_examples=60, deadline=None)
@given(configs(), st.data())
def test_lattice_layer_matches_cramer_reference(config, data):
    gens, s, d = config
    g = GroupData(gens, s, d)
    dim = 1 if d == 0 else 2
    t_gens = gens + [s]

    def in_t(x):
        return ref_in(gens, x, dim) or ref_in(gens, x - s, dim)

    def root(a, b=0):
        return Scalar(Fraction(a), Fraction(b), d if b else 0)

    # membership on combinations of the generators with coefficients in
    # quarters, shifted by s or not, and on one random field element
    offsets = [Fraction(k, 4) for k in range(-6, 7)]
    points = [
        sum((Scalar(c) * gen for c, gen in zip(cs, gens)), Scalar(0))
        for cs in product(offsets[::3] if dim == 2 else offsets, repeat=len(gens))
    ]
    points += [p + s for p in points] + [root(data.draw(small_fractions), data.draw(small_fractions) if d else 0)]
    for x in points:
        assert g.in_gamma(x) == ref_in(gens, x, dim), x
        assert g.in_gamma1(x) == ref_in(gens, x - s, dim), x
        assert g.in_t(x) == in_t(x), x

    # the T basis generates T, so the window is the coordinate box over it,
    # split by the reference
    assert all(in_t(tau) for tau in g.t_basis)
    assert all(ref_in(list(g.t_basis), x, dim) for x in t_gens)
    bound = Window(1, 0).coordinate_bound()
    box = [
        sum((c * tau for c, tau in zip(cs, g.t_basis)), Scalar(0))
        for cs in product(range(-bound, bound + 1), repeat=len(g.t_basis))
    ]
    want = (sorted(x for x in box if ref_in(gens, x, dim)), sorted(x for x in box if not ref_in(gens, x, dim)))
    assert g.window_gammas(Window(1, 0)) == want
    assert all(ref_in(gens, x - s, dim) for x in want[1])

    # scaling: a*Gamma = Gamma and a*T = T, straight from the definition
    x, y = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
    candidates = [Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(1, 2)), Scalar(3), Scalar(Fraction(1, 3))]
    candidates += [root(a, b) for a, b in units(d)] + [root(-a, b) for a, b in units(d)]
    candidates += [x / y] if y else []
    for a in candidates:
        want = bool(a) and all(
            ref_in(gens, a * gen, dim) and ref_in(gens, gen / a, dim) for gen in gens
        ) and all(in_t(a * tau) and in_t(tau / a) for tau in t_gens)
        assert g.validate_scaling(a) == want, a
