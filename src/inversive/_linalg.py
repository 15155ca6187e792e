"""Dense linear algebra over the scalar backends (internal); the only module
that picks an elimination. There is one exact kernel, fraction-free
elimination (Bareiss 1968), whose every entry stays a minor of the input, so
each division by the previous pivot is exact. `rank`, `nullspace` and
`echelon` send an exact matrix to it with each row scaled by a positive
integer into Z for a rational one (int and Fraction entries), into Z[t],
t**4 = 2, for any other (a Quartic2 entry), where an entry is the int
4-tuple of its coefficients and the division goes through the pivot's
cofactor and integer norm. `rref` is Gauss-Jordan over the field for
float matrices: partial pivoting, entries within EPSILON treated as zero.
`cut` adds a row to a nullspace basis; `zt_row` and `zt_twisted` give the
Z[t] rows of one exact dot product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .exactnum import (EPSILON, Quartic2, is_zero, promote, zt_cofactor, zt_element,
                       zt_mul)

_ZT0 = (0, 0, 0, 0)


def _copy(rows: Sequence[Sequence]) -> List[List]:
    return [list(r) for r in rows]


def _is_float_matrix(rows) -> bool:
    for r in rows:
        for x in r:
            return isinstance(x, float)
    return False


def _eliminate(rows: Sequence[Sequence], ncols: int,
               reduced: bool = True) -> Tuple[List[List], List[int]]:
    """The elimination of a matrix: `bareiss` over Z for a rational one (an
    all-int one as it is, else each row scaled by its least common
    denominator), `rref` for a float one, else `bareiss` over Z[t] with each
    row scaled by a positive integer (`zt_row`)."""
    if all(type(x) is int for r in rows for x in r):
        return bareiss(rows, ncols, reduced)
    if all(type(x) is int or type(x) is Fraction for r in rows for x in r):
        return bareiss([scaled_to_integers(r)[1] for r in rows], ncols, reduced)
    if _is_float_matrix(rows):
        return rref(rows, ncols)
    return bareiss([zt_row(r) for r in rows], ncols, reduced)


def _scalar(x):
    """An entry of an elimination as a scalar: a Z[t] 4-tuple as a Quartic2."""
    return zt_element(x) if type(x) is tuple else x


def scaled_to_integers(xs: Sequence) -> Tuple[int, List[int]]:
    """(D, [x * D for x in xs]) for rationals xs with least common denominator D."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def rref(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form and pivot column indices, by Gauss-Jordan with
    partial pivoting; on floats an entry within EPSILON of zero is zero."""
    m = _copy(rows)
    tol = EPSILON if _is_float_matrix(m) else 0
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        if r >= len(m):
            break
        i = max(range(r, len(m)), key=lambda i: abs(m[i][col]))
        if not abs(m[i][col]) > tol:
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


def bareiss(rows: Sequence[Sequence], ncols: int,
            reduced: bool = True) -> Tuple[List[List], List[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of a matrix over
    Z, or over Z[t] with int 4-tuple entries (`zt_row`), and its pivot
    columns; with reduced=False only the rows below each pivot are
    eliminated, which is all the rank needs.

    The reduced result is the reduced row echelon form scaled by d, the last
    pivot: every pivot row carries d at its pivot column and zeros at the
    others. Every entry is a minor of the row-permuted input, so each division
    is exact; over Z[t] it goes through the previous pivot's cofactor
    (`_zt_step`), and the entries the elimination fixes are set, not
    computed. With full row rank and one free column f, the nullspace vector
    (d at f, -row[f] at each pivot) is, up to one common sign, the vector of
    signed maximal minors.
    """
    m = _copy(rows)
    zt = bool(m and m[0]) and type(m[0][0]) is tuple
    zero, prev = (_ZT0, ((1, 0, 0, 0), None, 1)) if zt else (0, 1)
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        if r >= len(m):
            break
        i = next((i for i in range(r, len(m)) if m[i][col] != zero), -1)
        if i < 0:
            continue
        m[r], m[i] = m[i], m[r]
        top = m[r]
        p = top[col]
        pivots.append(col)
        for j in range(0 if reduced else r + 1, len(m)):
            if j == r:
                continue
            row = m[j]
            f = row[col]
            if not zt:
                m[j] = [(p * a - f * b) // prev for a, b in zip(row, top)]
                continue
            m[j] = new = [_ZT0 if k in pivots else _zt_step(p, a, f, b, prev)
                          for k, (a, b) in enumerate(zip(row, top))]
            if j < r:
                new[pivots[j]] = p
        if not zt:
            prev = p
        else:
            prev = (p, *zt_cofactor(p)) if p[1] or p[2] or p[3] else (p, None, p[0])
        r += 1
    return m, pivots


def zt_row(row: Sequence) -> List[Tuple[int, int, int, int]]:
    """An exact row scaled by a positive integer, its entries' least common
    denominator, into Z[t]: each entry as the int 4-tuple of its coefficients."""
    parts = [(x._n, x._d) if type(x) is Quartic2
             else ((x.numerator, 0, 0, 0), x.denominator) for x in row]
    d = lcm(*[q for _, q in parts])
    return [n if q == d else tuple(c * (d // q) for c in n) for n, q in parts]


def zt_twisted(row: Sequence[Sequence[int]]) -> Tuple[List[int], ...]:
    """The four flat int rows w_0..w_3 with <row, v> = sum_k (w_k . v) t**k for
    every Z[t] row v flattened to four ints per entry: w_k holds at 4i + j
    the coefficient of t**k in row[i] * t**j, folded through t**4 = 2."""
    return tuple([c for n in row for c in
                  [n[k - j] if j <= k else 2 * n[k - j + 4] for j in range(4)]]
                 for k in range(4))


def zt_dot(twisted: Sequence[Sequence[int]], v: Sequence[int]) -> Tuple[int, int, int, int]:
    """The coefficients of <row, v> in Z[t] for twisted = zt_twisted(row) and
    v another Z[t] row flattened: four int dot products."""
    return tuple(sum(map(mul, w, v)) for w in twisted)


def zt_vanishes(twisted: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether `zt_dot(twisted, v)` is zero, stopping at its first nonzero
    coefficient."""
    w0, w1, w2, w3 = twisted
    return not (sum(map(mul, w0, v)) or sum(map(mul, w1, v))
                or sum(map(mul, w2, v)) or sum(map(mul, w3, v)))


def _zt_step(p: Sequence[int], a: Sequence[int], f: Sequence[int], b: Sequence[int],
             prev: tuple) -> Tuple[int, int, int, int]:
    """(p * a - f * b) / q in Z[t], where q divides it, for prev = (q, c, norm)
    with q * c = norm: the product with c divided by norm, coefficient by
    coefficient (c is None when q = norm is an int)."""
    x0, x1, x2, x3 = _ZT0 if a == _ZT0 else zt_mul(p, a)
    if f != _ZT0 and b != _ZT0:
        y0, y1, y2, y3 = zt_mul(f, b)
        x0, x1, x2, x3 = x0 - y0, x1 - y1, x2 - y2, x3 - y3
    _, c, norm = prev
    if c is not None:
        x0, x1, x2, x3 = zt_mul((x0, x1, x2, x3), c)
    elif norm == 1:
        return x0, x1, x2, x3
    return x0 // norm, x1 // norm, x2 // norm, x3 // norm


def cut(basis: Sequence[Sequence], row: Sequence) -> Optional[List[List]]:
    """A basis of the vectors of span(basis) that annihilate `row`, None when
    all do: w_j = (r.b_i) b_j - (r.b_j) b_i, j != i, for the first b_i with
    r.b_i != 0, each kept `canonical`."""
    dots = [sum(map(mul, row, b)) for b in basis]
    i = next((i for i, f in enumerate(dots) if f), -1)
    if i < 0:
        return None
    p, top = dots[i], basis[i]
    return [canonical([p * x - f * y for x, y in zip(b, top)]) if f else b
            for j, (b, f) in enumerate(zip(basis, dots)) if j != i]


def canonical(v: Sequence) -> List:
    """The normal form of a nonzero exact row up to a nonzero factor, whatever
    backend computed it: a row that is rational after division by its lead as
    primitive ints with a positive lead, any other Q(2^(1/4)) row with lead 1."""
    try:
        g = gcd(*v)
    except TypeError:  # Fraction or Q(2^(1/4)) entries
        if any(type(x) is Quartic2 for x in v):
            # the product with the cofactor c of its Z[t] lead q has lead q * c,
            # the int norm of q
            zs = zt_row(v)
            c, norm = zt_cofactor(next(x for x in zs if x != _ZT0))
            zs = [zt_mul(x, c) for x in zs]
            if any(x[1] or x[2] or x[3] for x in zs):
                return [zt_element(x, norm) for x in zs]
            v = [x[0] for x in zs]
        else:
            v = scaled_to_integers(v)[1]
        g = gcd(*v)
    g = g if next(x for x in v if x) > 0 else -g
    return [x // g for x in v]


def lead_one(v: Sequence, kind: str) -> List:
    """A canonical row divided by its lead, as scalars of `kind`."""
    if all(type(x) is int for x in v):
        lead = next(x for x in v if x)
        v = [Fraction(x, lead) for x in v]
    return [promote(x, kind) for x in v] if kind == "quartic" else list(v)


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    return len(_eliminate(rows, ncols, False)[1])


def echelon(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """The nonzero rows of the reduced row echelon form of an exact matrix,
    each `canonical`, and the pivot columns, from the reduced Bareiss rows."""
    m, pivots = _eliminate(rows, ncols)
    return [canonical([_scalar(x) for x in r] if type(r[0]) is tuple else r)
            for r in m[: len(pivots)]], pivots


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List]:
    """Basis of the right nullspace, one vector per free column: integer
    vectors for a rational matrix, Quartic2 ones for another exact matrix."""
    m, pivots = _eliminate(rows, ncols)
    # the first pivot is the matrix's own one (d for bareiss), so a float
    # matrix gets float entries at the free columns
    scale = _scalar(m[0][pivots[0]]) if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0 * scale] * ncols
        vec[free] = scale
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -_scalar(m[row_idx][free])
        basis.append(vec)
    return basis
