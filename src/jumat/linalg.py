"""Exact linear algebra over the Gaussian rationals.

Vectors are tuples of GaussianRational; matrices are tuples of row
tuples.  Everything here is a pure function on immutable data.

Conventions follow the indefinite-metric setting used throughout the
package: ``hdot(a, b)`` is the sesquilinear pairing a*b (conjugation on
the left argument), ``outer(a, b)`` is the dyad a.b*, and the metric is
diag(-1, 1, ..., 1), applied by negating the first coordinate (vectors)
or the first row (matrices).
"""

from __future__ import annotations

from jumat import _core
from jumat.scalars import GaussianRational, _unwrap_matrix, _wrap_matrix

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


def as_vector(entries) -> tuple:
    return tuple(GaussianRational(x) for x in entries)


def zero_vector(n: int) -> tuple:
    return (_ZERO,) * n


def is_zero_vector(v) -> bool:
    return all(not x for x in v)


def add_vec(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def sub_vec(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def neg_vec(a):
    return tuple(-x for x in a)


def scale_vec(c, a):
    return tuple(c * x for x in a)


def conj_vec(a):
    return tuple(x.conjugate() for x in a)


def hdot(a, b) -> GaussianRational:
    """Sesquilinear pairing a*b = sum conj(a_i) b_i."""
    acc = _ZERO
    for x, y in zip(a, b, strict=True):
        acc = acc + x.conjugate() * y
    return acc


def outer(a, b) -> tuple:
    """Dyad a.b*: entry (i, j) is a_i conj(b_j)."""
    bc = conj_vec(b)
    return tuple(tuple(x * y for y in bc) for x in a)


def metric_vec(v) -> tuple:
    """Apply diag(-1, 1, ..., 1) to a column vector."""
    return (-v[0],) + tuple(v[1:])


def metric_rows(m) -> tuple:
    """Left-multiply a matrix by diag(-1, 1, ..., 1)."""
    return (neg_vec(m[0]),) + tuple(m[1:])


def metric_matrix(n: int) -> tuple:
    return metric_rows(identity_matrix(n))


def identity_matrix(n: int) -> tuple:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def zero_matrix(rows: int, cols: int) -> tuple:
    return tuple((_ZERO,) * cols for _ in range(rows))


def is_zero_matrix(m) -> bool:
    return all(is_zero_vector(row) for row in m)


def mat_add(a, b):
    return tuple(add_vec(ra, rb) for ra, rb in zip(a, b, strict=True))


def mat_sub(a, b):
    return tuple(sub_vec(ra, rb) for ra, rb in zip(a, b, strict=True))


def mat_scale(c, m):
    return tuple(scale_vec(c, row) for row in m)


def mat_mul(a, b):
    """Product of constant matrices, as one-coefficient kernel polynomials."""
    raw = _core.matpoly_mul((_unwrap_matrix(a),), (_unwrap_matrix(b),))
    return _wrap_matrix(raw[0]) if raw else zero_matrix(len(a), len(b[0]))


def star_matrix(m):
    """Conjugate transpose."""
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*m))


def matvec(m, v):
    if len(m[0]) != len(v):
        raise ValueError("dimension mismatch in matrix-vector product")
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), _ZERO) for row in m)


def row_apply(y, m):
    """The row vector y*M, returned as a tuple of entries."""
    if len(m) != len(y):
        raise ValueError("dimension mismatch in row application")
    yc = conj_vec(y)
    return tuple(
        sum((x * row[j] for x, row in zip(yc, m) if x and row[j]), _ZERO)
        for j in range(len(m[0]))
    )


def parallel_coefficient(a, b):
    """The scalar c with b = c*a, or None when no such scalar exists.

    For a = 0 the answer is 0 when b = 0 and None otherwise.
    """
    pivot = None
    for i, x in enumerate(a):
        if x:
            pivot = i
            break
    if pivot is None:
        return _ZERO if is_zero_vector(b) else None
    c = b[pivot] / a[pivot]
    for x, y in zip(a, b, strict=True):
        if y != c * x:
            return None
    return c


def matrix_parallel_coefficient(a, b):
    """The scalar c with matrix b = c * matrix a, or None."""
    flat_a = tuple(x for row in a for x in row)
    flat_b = tuple(x for row in b for x in row)
    return parallel_coefficient(flat_a, flat_b)


def _rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(lead, n_rows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        inv = _ONE / rows[lead][col]
        rows[lead] = [inv * x for x in rows[lead]]
        for i in range(n_rows):
            if i != lead and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == n_rows:
            break
    return [tuple(r) for r in rows], pivots


def nullspace(m) -> list:
    """Exact basis of the right kernel {v : M v = 0}."""
    if not m:
        raise ValueError("empty constraint matrix")
    n_cols = len(m[0])
    rref_rows, pivots = _rref(m)
    free = [j for j in range(n_cols) if j not in pivots]
    basis = []
    for j in free:
        v = [_ZERO] * n_cols
        v[j] = _ONE
        for row_idx, pcol in enumerate(pivots):
            v[pcol] = -rref_rows[row_idx][j]
        basis.append(tuple(v))
    return basis


def inverse(m) -> tuple:
    """Exact inverse: the right half of the reduced form of [M | I].

    M is invertible exactly when the pivots land in its own columns.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    rows, pivots = _rref(
        tuple(row) + eye_row for row, eye_row in zip(m, identity_matrix(n))
    )
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in rows)
