"""Dense linear algebra over the scalar backends (internal).

Matrices of Python ints, which is how the rational backend hands over its
lifted rows, go through `bareiss`: fraction-free elimination whose every
entry stays an integer minor of the input. Fraction, Quartic2 and float
matrices go through `rref`, coefficient-by-coefficient over the field; the
float path uses partial pivoting and treats entries within the module
tolerance as zero, the exact paths take the first nonzero pivot. `rank` and
`nullspace` pick the routine from the entry type.
"""

from __future__ import annotations

from math import lcm
from typing import List, Sequence, Tuple

from .exactnum import get_epsilon, is_zero


def _copy(rows: Sequence[Sequence]) -> List[List]:
    return [list(r) for r in rows]


def _is_float_matrix(rows) -> bool:
    for r in rows:
        for x in r:
            return isinstance(x, float)
    return False


def _is_int_matrix(rows) -> bool:
    return bool(rows) and all(type(x) is int for r in rows for x in r)


def scaled_to_integers(xs: Sequence) -> Tuple[int, List[int]]:
    """(D, [x * D for x in xs]) for rationals xs with least common denominator D."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def _pick_pivot(rows, col: int, start: int, use_float: bool) -> int:
    best = -1
    if use_float:
        mag = get_epsilon()
        for i in range(start, len(rows)):
            if abs(rows[i][col]) > mag:
                mag = abs(rows[i][col])
                best = i
    else:
        for i in range(start, len(rows)):
            if not is_zero(rows[i][col]):
                best = i
                break
    return best


def rref(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = _copy(rows)
    use_float = _is_float_matrix(m)
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        if r >= len(m):
            break
        i = _pick_pivot(m, col, r, use_float)
        if i < 0:
            continue
        m[r], m[i] = m[i], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for j in range(len(m)):
            if j != r and not is_zero(m[j][col]):
                factor = m[j][col]
                m[j] = [a - factor * b for a, b in zip(m[j], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def bareiss(rows: Sequence[Sequence[int]], ncols: int,
            reduced: bool = True) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss
    1968) and its pivot columns; with reduced=False only the rows below each
    pivot are eliminated, which is all the rank needs.

    The reduced result is the reduced row echelon form scaled by d, the last
    pivot: every pivot row carries d at its pivot column and zeros at the
    others. Every entry is a minor of the row-permuted input, so each division
    is exact. With full row rank and one free column f, the nullspace vector
    (d at f, -row[f] at each pivot) is, up to one common sign, the vector of
    signed maximal minors.
    """
    m = _copy(rows)
    pivots: List[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r >= len(m):
            break
        i = next((i for i in range(r, len(m)) if m[i][col]), -1)
        if i < 0:
            continue
        m[r], m[i] = m[i], m[r]
        top = m[r]
        p = top[col]
        for j in range(0 if reduced else r + 1, len(m)):
            if j != r:
                row = m[j]
                f = row[col]
                m[j] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
        r += 1
    return m, pivots


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    if _is_int_matrix(rows):
        return len(bareiss(rows, ncols, reduced=False)[1])
    return len(rref(rows, ncols)[1])


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List]:
    """Basis of the right nullspace, one vector per free column; integer
    vectors for an integer matrix."""
    if not rows:
        rows = []
    m, pivots = bareiss(rows, ncols) if _is_int_matrix(rows) else rref(rows, ncols)
    # the first pivot is the matrix's own one (d for bareiss), so a float
    # matrix gets float entries at the free columns
    scale = m[0][pivots[0]] if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [scale - scale] * ncols
        vec[free] = scale
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -m[row_idx][free]
        basis.append(vec)
    return basis
