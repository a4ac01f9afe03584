"""Exact nullspaces and the two shear constraint systems."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from loopsv import GroupData
from loopsv import Scalar, Window, g_constraint_space, nullspace, shear_constraint_space

ZERO = Scalar(0)
ONE = Scalar(1)


def s(x):
    return Scalar.of(x)


def dot(row, vec):
    out = ZERO
    for a, b in zip(row, vec):
        out = out + a * b
    return out


class TestNullspace:
    def test_single_relation(self):
        rows = [[s(1), s(2), s(3)]]
        basis = nullspace(rows, 3)
        assert len(basis) == 2
        for vec in basis:
            assert dot(rows[0], vec) == ZERO

    def test_full_rank_system(self):
        rows = [[ONE, ZERO], [s(3), ONE]]
        assert nullspace(rows, 2) == []

    def test_zero_matrix(self):
        basis = nullspace([[ZERO, ZERO]], 2)
        assert len(basis) == 2

    def test_rational_elimination(self):
        rows = [
            [s(Fraction(1, 2)), s(1), s(0)],
            [s(1), s(2), s(1)],
        ]
        basis = nullspace(rows, 3)
        assert len(basis) == 1
        for row in rows:
            assert dot(row, basis[0]) == ZERO

    def test_root_field_elimination(self):
        r2 = Scalar(0, 1, 2)
        rows = [[r2, s(2)]]
        basis = nullspace(rows, 2)
        assert len(basis) == 1
        assert dot(rows[0], basis[0]) == ZERO


def fit_affine(values: dict, gammas):
    v = values.get(ZERO, ZERO)
    pivot = next(g for g in gammas if g)
    u = (values.get(pivot, ZERO) - v) / pivot
    return u, v


class TestGSpace:
    def test_dimension_and_affine_shape(self, group, window):
        basis, gammas = g_constraint_space(group, window)
        assert len(basis) == 2
        for values in basis:
            u, v = fit_affine(values, gammas)
            for g in gammas:
                assert values.get(g, ZERO) == u * g + v

    def test_span_contains_constant_and_identity(self, group, window):
        basis, gammas = g_constraint_space(group, window)
        fits = [fit_affine(values, gammas) for values in basis]
        # (u, v) pairs of the basis span the plane, so both axis directions
        # are reachable: u1 v2 - u2 v1 is the determinant of the fit matrix
        (u1, v1), (u2, v2) = fits
        assert u1 * v2 - u2 * v1

    def test_rank_two_group(self, root2_group):
        basis, gammas = g_constraint_space(root2_group, Window(2, 1))
        assert len(basis) == 2
        for values in basis:
            u, v = fit_affine(values, gammas)
            for g in gammas:
                assert values.get(g, ZERO) == u * g + v


small_rationals = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@st.composite
def solver_groups(draw):
    """A group of rank one over Q or Q(sqrt d), or of rank two over Q(sqrt d), for d in 2, 3, 5."""
    d = draw(st.sampled_from([0, 2, 3, 5]))

    def irrational():
        return Scalar(draw(small_rationals), draw(small_rationals), d)

    gens = [irrational() if d and draw(st.booleans()) else Scalar(draw(small_rationals))]
    if d and draw(st.booleans()):
        second = irrational()
        assume((second / gens[0]).parts()[1])  # independent over Q: the ratio is irrational
        gens.append(second)
    # s is half a combination of the generators with an odd coefficient, so s is not in Gamma
    halves = [draw(st.sampled_from([-1, 1]))] + [draw(st.integers(-1, 2)) for _ in gens[1:]]
    if draw(st.booleans()):
        halves.reverse()
    shift = sum((Scalar(Fraction(e, 2)) * g for e, g in zip(halves, gens)), ZERO)
    return GroupData(gens, shift, d)


@settings(max_examples=40, deadline=None)
@given(solver_groups(), st.sampled_from([1, 2]))
def test_shear_constraint_has_only_affine_solutions(group, height):
    # the premise of reading a derivation's shear as u*gamma + v: on every window the
    # compatibility relation leaves exactly the two-dimensional affine family
    basis, gammas = g_constraint_space(group, Window(height, 0))
    assert len(basis) == 2
    for values in basis:
        u, v = fit_affine(values, gammas)
        for g in gammas:
            assert values.get(g, ZERO) == u * g + v


class TestShearSpace:
    def test_solutions_are_affine_and_loop_independent(self, group, window):
        basis, keys = shear_constraint_space(group, window)
        assert len(basis) == 2
        gammas = sorted({g for g, _ in keys}, key=lambda x: (abs(x), x.sign()))
        loops = sorted({i for _, i in keys})
        for values in basis:
            per_gamma = {}
            for g in gammas:
                col = {values.get((g, i), ZERO) for i in loops}
                assert len(col) == 1  # no loop dependence survives
                per_gamma[g] = col.pop()
            u, v = fit_affine(per_gamma, gammas)
            for g in gammas:
                assert per_gamma[g] == u * g + v

    def test_smaller_window_same_picture(self, group, small_window):
        basis, _ = shear_constraint_space(group, small_window)
        assert len(basis) == 2


# -- reference solvers ------------------------------------------------------
#
# A dense Gauss-Jordan elimination and the shear rows written out by hand:
# references independent of the sparse eliminator and of the rows built from
# the one shear formula.  The library must match them exactly.


def reference_nullspace(rows, ncols):
    mat = [list(row) for row in rows if any(row)]
    pivots = {}
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ONE / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots[col] = r
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for col, row in pivots.items():
            vec[col] = -mat[row][fc]
        basis.append(vec)
    return basis


def reference_shear_space(group, window):
    gammas, _ = group.window_gammas(window)
    loops = list(window.loops())
    idx = {(g, i): n for n, (g, i) in enumerate((g, i) for g in gammas for i in loops)}
    ncols = len(idx)
    rows = []
    # equal group indices: loop independence, kept even at the window boundary
    for a in gammas:
        if not a:
            continue
        for n, i in enumerate(loops):
            for j in loops[n + 1 :]:
                row = [ZERO] * ncols
                row[idx[(a, j)]] = a
                row[idx[(a, i)]] = -a
                rows.append(row)
    for a in gammas:
        for b in gammas:
            if a == b or a + b not in gammas:
                continue
            for i in loops:
                for j in loops:
                    if i + j not in loops:
                        continue
                    row = [ZERO] * ncols
                    row[idx[(a + b, i + j)]] = row[idx[(a + b, i + j)]] + (b - a)
                    row[idx[(b, j)]] = row[idx[(b, j)]] - b
                    row[idx[(a, i)]] = row[idx[(a, i)]] + a
                    rows.append(row)
    keys = list(idx)
    basis = [{key: vec[idx[key]] for key in keys if vec[idx[key]]} for vec in reference_nullspace(rows, ncols)]
    return basis, keys


def random_system(rng, field_d):
    """Rows over Q or Q(sqrt d) with zero, duplicate and dependent rows mixed in."""
    ncols = rng.randint(1, 6)

    def entry():
        if rng.random() < 0.4:
            return ZERO
        a = s(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return a + Scalar(0, rng.randint(-2, 2), field_d) if field_d else a

    rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, ncols + 3))]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("zero", "duplicate", "dependent"))
        if kind == "zero" or not rows:
            new = [ZERO] * ncols
        elif kind == "duplicate":
            new = list(rng.choice(rows))
        else:
            c1, c2 = entry(), entry()
            new = [c1 * x + c2 * y for x, y in zip(rng.choice(rows), rng.choice(rows))]
        rows.insert(rng.randint(0, len(rows)), new)
    return rows, ncols


@pytest.mark.parametrize("field_d", [0, 2])
def test_nullspace_matches_dense_reference(field_d):
    rng = random.Random(9000 + field_d)
    shapes = set()
    for _ in range(150):
        rows, ncols = random_system(rng, field_d)
        shapes.add(len(rows) > ncols)
        assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)
    assert shapes == {True, False}


SOLVER_GROUPS = [
    ({"field": "Q", "gamma_generators": ["1"], "s": "1/2"}, Window(1, 1)),
    ({"field": "Q", "gamma_generators": ["1"], "s": "1/2"}, Window(2, 1)),
    ({"field": "Q", "gamma_generators": ["2"], "s": "1"}, Window(2, 1)),
    ({"field": {"Q_sqrt": 2}, "gamma_generators": ["1", "sqrt2"], "s": "1/2"}, Window(1, 0)),
]


@pytest.mark.parametrize("doc, window", SOLVER_GROUPS)
def test_constraint_spaces_match_hand_built_rows(doc, window):
    group = GroupData.from_config(doc)
    assert shear_constraint_space(group, window) == reference_shear_space(group, window)
    basis, keys = reference_shear_space(group, Window(window.gamma_height, 0))
    expected = [{g: v for (g, _), v in vec.items()} for vec in basis], [g for g, _ in keys]
    assert g_constraint_space(group, window) == expected


@pytest.mark.parametrize("rows", [[[ONE, ONE, ONE]], [[ONE]]], ids=["long", "short"])
def test_nullspace_refuses_a_row_of_the_wrong_length(rows):
    with pytest.raises(ValueError, match="columns"):
        nullspace(rows, 2)
