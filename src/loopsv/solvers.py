"""Exact linear algebra over the scalar field, and two solution spaces.

The constraint systems solved here are small and dense enough that plain
Gauss-Jordan elimination with exact scalars is the right tool.  The two
entry points compute, on a finite window, the space of functions g with

    (beta - alpha) g(alpha + beta) = beta g(beta) - alpha g(alpha)

once over the group index alone (the loop-diagonal system at loop bound 0),
and once per loop diagonal with the loop index carried along.  Both spaces
are expected to collapse to the affine family u*index + v; the tests pin
that down rather than assume it.
"""

from __future__ import annotations

from .algebra import Window
from .groups import GroupData
from .scalars import ZERO, ONE

__all__ = [
    "nullspace",
    "g_constraint_space",
    "shear_constraint_space",
]


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right nullspace of the given rows (lists of scalars)."""
    mat = [list(row) for row in rows if any(row)]
    pivots: dict = {}
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                pivot_row = i
                break
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
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for col, row in pivots.items():
            vec[col] = -mat[row][fc]
        basis.append(vec)
    return basis


def g_constraint_space(group: GroupData, window: Window) -> tuple:
    """(basis, gammas): each basis vector is a dict gamma -> scalar.

    This is the sheared system at loop bound 0, with each (gamma, 0) read as gamma.
    """
    basis, keys = shear_constraint_space(group, Window(window.gamma_height, 0))
    return [{g: v for (g, _), v in vec.items()} for vec in basis], [g for g, _ in keys]


def shear_constraint_space(group: GroupData, window: Window) -> tuple:
    """(basis, indices): solutions x[(gamma, i)] of the sheared constraint.

    This is the single-diagonal system.  Equal group indices force loop
    independence, so those rows are kept even when the combined loop index
    falls outside the window; rows that would reference an unknown outside
    the window are dropped instead of being truncated.
    """
    gammas, _ = group.window_gammas(window)
    loops = list(window.loops())
    idx = {}
    for g in gammas:
        for i in loops:
            idx[(g, i)] = len(idx)
    ncols = len(idx)
    gamma_set = set(gammas)
    loop_set = set(loops)
    rows = []
    # equal group indices: the bracket vanishes outright, so these rows do
    # not touch the sum index and survive even at the window boundary
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
            if a == b:
                continue
            tot = a + b
            if tot not in gamma_set:
                continue
            for i in loops:
                for j in loops:
                    if i + j not in loop_set:
                        continue
                    row = [ZERO] * ncols
                    row[idx[(tot, i + j)]] = row[idx[(tot, i + j)]] + (b - a)
                    row[idx[(b, j)]] = row[idx[(b, j)]] - b
                    row[idx[(a, i)]] = row[idx[(a, i)]] + a
                    rows.append(row)
    basis = nullspace(rows, ncols)
    keys = list(idx)
    return [
        {key: vec[idx[key]] for key in keys if vec[idx[key]]} for vec in basis
    ], keys
