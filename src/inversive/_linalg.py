"""Dense linear algebra over the scalar backends (internal); the only module
that picks an elimination. `rank`, `nullspace` and `echelon` send a rational
matrix (int and Fraction entries), each row's denominators cleared, to
`bareiss`: fraction-free elimination whose every entry stays an integer
minor of the input. Quartic2 and float matrices go through `rref` over the
field; the float path uses partial pivoting and treats entries within
EPSILON as zero, the exact paths take the first nonzero pivot. `cut` adds a
row to a nullspace basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .exactnum import EPSILON, is_zero


def _copy(rows: Sequence[Sequence]) -> List[List]:
    return [list(r) for r in rows]


def _is_float_matrix(rows) -> bool:
    for r in rows:
        for x in r:
            return isinstance(x, float)
    return False


def _integer_rows(rows: Sequence[Sequence]) -> Optional[Sequence[Sequence[int]]]:
    """A rational matrix with each row scaled to ints by its least common
    denominator (an all-int one as it is, after one pass), else None."""
    if all(type(x) is int for r in rows for x in r):
        return rows
    if all(type(x) is int or type(x) is Fraction for r in rows for x in r):
        return [scaled_to_integers(r)[1] for r in rows]
    return None


def scaled_to_integers(xs: Sequence) -> Tuple[int, List[int]]:
    """(D, [x * D for x in xs]) for rationals xs with least common denominator D."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def _pick_pivot(rows, col: int, start: int, use_float: bool) -> int:
    best = -1
    if use_float:
        mag = EPSILON
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
        if type(inv) is int and not use_float:
            # an int pivot beside Quartic2 entries must not turn ints into floats
            inv = Fraction(inv)
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


def cut(basis: Sequence[Sequence], row: Sequence) -> Optional[List[List]]:
    """A basis of the vectors of span(basis) that annihilate `row`, None when
    all do: w_j = (r.b_i) b_j - (r.b_j) b_i, j != i, for the first b_i with
    r.b_i != 0, kept canonical (primitive ints with lead > 0, else lead 1)."""
    dots = [sum(map(mul, row, b)) for b in basis]
    i = next((i for i, f in enumerate(dots) if f), -1)
    if i < 0:
        return None
    p, top = dots[i], basis[i]
    return [_canonical([p * x - f * y for x, y in zip(b, top)]) if f else b
            for j, (b, f) in enumerate(zip(basis, dots)) if j != i]


def _canonical(v: List) -> List:
    lead = next(x for x in v if x)
    if type(lead) is int:
        g = gcd(*v) if lead > 0 else -gcd(*v)
        return [x // g for x in v]
    inv = 1 / lead
    return [x * inv for x in v]


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    ints = _integer_rows(rows)
    if ints is None:
        return len(rref(rows, ncols)[1])
    return len(bareiss(ints, ncols, reduced=False)[1])


def echelon(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """The nonzero rows of the reduced row echelon form, and the pivot
    columns; Fraction rows for a rational matrix (the reduced Bareiss rows
    divided by the last pivot)."""
    ints = _integer_rows(rows)
    if ints is None:
        m, pivots = rref(rows, ncols)
        return m[: len(pivots)], pivots
    m, pivots = bareiss(ints, ncols)
    d = m[0][pivots[0]] if pivots else 1
    return [[Fraction(x, d) for x in r] for r in m[: len(pivots)]], pivots


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List]:
    """Basis of the right nullspace, one vector per free column; integer
    vectors for a rational matrix."""
    ints = _integer_rows(rows)
    m, pivots = rref(rows, ncols) if ints is None else bareiss(ints, ncols)
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
