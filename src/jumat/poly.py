"""Polynomials over the Gaussian rationals with a Hermitian star.

The variable is treated as real under conjugation: ``star`` conjugates
(and, for matrices, transposes) each coefficient in place and never
touches powers.  Coefficient lists are stored densely in ascending powers
with trailing zeros trimmed; the zero polynomial has degree ``NEG_INF``.

Matrix polynomial coefficients are held in the kernel's raw triple
encoding so that products run entirely inside the kernel; code outside
this module only ever sees GaussianRational entries.
"""

from __future__ import annotations

from jumat import _core
from jumat.linalg import zero_matrix, zero_vector
from jumat.scalars import GaussianRational, _unwrap_matrix, _wrap_matrix

NEG_INF = float("-inf")

_ZERO = GaussianRational(0)


def _trim(coeffs, is_zero):
    coeffs = list(coeffs)
    while coeffs and is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


class ScalarPoly:
    """Dense scalar polynomial with GaussianRational coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        self._c = _trim((GaussianRational(c) for c in coeffs), lambda x: not x)

    @classmethod
    def monomial(cls, coeff, power: int) -> ScalarPoly:
        coeff = GaussianRational(coeff)
        if not coeff:
            return cls()
        return cls((_ZERO,) * power + (coeff,))

    @classmethod
    def one(cls) -> ScalarPoly:
        return cls((GaussianRational(1),))

    @property
    def degree(self):
        return len(self._c) - 1 if self._c else NEG_INF

    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self._c):
            return self._c[k]
        return _ZERO

    def coefficients(self) -> tuple:
        return self._c

    def __add__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return ScalarPoly(
            self.coefficient(k) + other.coefficient(k) for k in range(n)
        )

    def __sub__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return ScalarPoly(
            self.coefficient(k) - other.coefficient(k) for k in range(n)
        )

    def __neg__(self):
        return ScalarPoly(-c for c in self._c)

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        if not self._c or not other._c:
            return ScalarPoly()
        out = [_ZERO] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if not a:
                continue
            for j, b in enumerate(other._c):
                if b:
                    out[i + j] = out[i + j] + a * b
        return ScalarPoly(out)

    def scale(self, c) -> ScalarPoly:
        c = GaussianRational(c)
        return ScalarPoly(c * x for x in self._c)

    def star(self) -> ScalarPoly:
        return ScalarPoly(c.conjugate() for c in self._c)

    def __call__(self, point) -> GaussianRational:
        point = GaussianRational(point)
        acc = _ZERO
        for c in reversed(self._c):
            acc = acc * point + c
        return acc

    def __eq__(self, other):
        return isinstance(other, ScalarPoly) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        if not self._c:
            return "ScalarPoly(0)"
        terms = [
            f"({c})*w^{k}" if k else f"({c})"
            for k, c in enumerate(self._c)
            if c
        ]
        return "ScalarPoly(" + " + ".join(terms) + ")"


class VectorPoly:
    """Polynomial with constant-vector coefficients."""

    __slots__ = ("nu", "_c")

    def __init__(self, nu: int, coeffs=()):
        self.nu = nu
        cleaned = []
        for vec in coeffs:
            vec = tuple(GaussianRational(x) for x in vec)
            if len(vec) != nu:
                raise ValueError("vector coefficient of wrong height")
            cleaned.append(vec)
        self._c = _trim(cleaned, lambda v: all(not x for x in v))

    @property
    def degree(self):
        return len(self._c) - 1 if self._c else NEG_INF

    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, k: int) -> tuple:
        if 0 <= k < len(self._c):
            return self._c[k]
        return zero_vector(self.nu)

    def coefficients(self) -> tuple:
        return self._c

    def __add__(self, other):
        if not isinstance(other, VectorPoly) or other.nu != self.nu:
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return VectorPoly(
            self.nu,
            (
                tuple(x + y for x, y in zip(self.coefficient(k), other.coefficient(k)))
                for k in range(n)
            ),
        )

    def __neg__(self):
        return VectorPoly(self.nu, (tuple(-x for x in v) for v in self._c))

    def scale(self, c) -> VectorPoly:
        c = GaussianRational(c)
        return VectorPoly(self.nu, (tuple(c * x for x in v) for v in self._c))

    def hermitian_product(self, other: VectorPoly) -> ScalarPoly:
        """The scalar polynomial self* . other (conjugation on self)."""
        if other.nu != self.nu:
            raise ValueError("vector height mismatch")
        if not self._c or not other._c:
            return ScalarPoly()
        out = [_ZERO] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            for j, b in enumerate(other._c):
                out[i + j] = out[i + j] + sum(
                    (x.conjugate() * y for x, y in zip(a, b) if x and y), _ZERO
                )
        return ScalarPoly(out)

    def __eq__(self, other):
        return (
            isinstance(other, VectorPoly)
            and self.nu == other.nu
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.nu, self._c))

    def __repr__(self):
        return f"VectorPoly(nu={self.nu}, degree={self.degree})"


class MatrixPolynomial:
    """Polynomial with constant-matrix coefficients, ascending powers."""

    __slots__ = ("rows", "cols", "_c")

    def __init__(self, rows: int, cols: int, coeffs=()):
        self.rows = rows
        self.cols = cols
        cleaned = []
        for mat in coeffs:
            raw = _unwrap_matrix(mat)
            if len(raw) != rows or any(len(r) != cols for r in raw):
                raise ValueError("coefficient matrix of wrong shape")
            cleaned.append(raw)
        self._c = _trim(cleaned, _core.mat_is_zero)

    @classmethod
    def _from_raw(cls, rows, cols, raw) -> MatrixPolynomial:
        obj = object.__new__(cls)
        obj.rows = rows
        obj.cols = cols
        obj._c = raw
        return obj

    @classmethod
    def constant(cls, mat) -> MatrixPolynomial:
        mat = tuple(tuple(row) for row in mat)
        return cls(len(mat), len(mat[0]), (mat,))

    @classmethod
    def identity(cls, n: int) -> MatrixPolynomial:
        from jumat.linalg import identity_matrix

        return cls.constant(identity_matrix(n))

    @property
    def degree(self):
        return len(self._c) - 1 if self._c else NEG_INF

    def is_zero(self) -> bool:
        return not self._c

    def is_square(self) -> bool:
        return self.rows == self.cols

    def coefficient(self, k: int) -> tuple:
        """Constant matrix at power k; zero beyond the degree."""
        if 0 <= k < len(self._c):
            return _wrap_matrix(self._c[k])
        return zero_matrix(self.rows, self.cols)

    def coefficients(self) -> tuple:
        return tuple(_wrap_matrix(m) for m in self._c)

    def leading(self):
        """(degree, leading coefficient); (NEG_INF, 0) for the zero polynomial."""
        if not self._c:
            return NEG_INF, zero_matrix(self.rows, self.cols)
        return len(self._c) - 1, _wrap_matrix(self._c[-1])

    def __mul__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        raw = _core.matpoly_mul(self._c, other._c)
        return MatrixPolynomial._from_raw(self.rows, other.cols, raw)

    def __add__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        n = max(len(self._c), len(other._c))
        out = []
        for k in range(n):
            a = self._c[k] if k < len(self._c) else None
            b = other._c[k] if k < len(other._c) else None
            if a is None:
                out.append(b)
            elif b is None:
                out.append(a)
            else:
                out.append(
                    tuple(
                        tuple(_core.add(x, y) for x, y in zip(ra, rb))
                        for ra, rb in zip(a, b)
                    )
                )
        return MatrixPolynomial._from_raw(
            self.rows, self.cols, _trim(out, _core.mat_is_zero)
        )

    def __sub__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self + other.scale(GaussianRational(-1))

    def scale(self, c) -> MatrixPolynomial:
        t = GaussianRational(c)._t
        raw = tuple(
            tuple(tuple(_core.mul(t, x) for x in row) for row in mat)
            for mat in self._c
        )
        return MatrixPolynomial._from_raw(
            self.rows, self.cols, _trim(raw, _core.mat_is_zero)
        )

    def star(self) -> MatrixPolynomial:
        """Coefficient-wise conjugate transpose (the variable stays real)."""
        raw = tuple(
            tuple(tuple(_core.conj(x) for x in col) for col in zip(*mat))
            for mat in self._c
        )
        return MatrixPolynomial._from_raw(self.cols, self.rows, raw)

    def metric_left(self) -> MatrixPolynomial:
        """diag(-1, 1, ..., 1) times self: negate the first row of each coefficient."""
        raw = tuple(
            (tuple(_core.neg(x) for x in mat[0]),) + mat[1:] for mat in self._c
        )
        return MatrixPolynomial._from_raw(self.rows, self.cols, raw)

    def metric_right(self) -> MatrixPolynomial:
        """self times diag(-1, 1, ..., 1): negate the first column of each coefficient."""
        raw = tuple(
            tuple((_core.neg(row[0]),) + row[1:] for row in mat) for mat in self._c
        )
        return MatrixPolynomial._from_raw(self.rows, self.cols, raw)

    def __call__(self, point) -> tuple:
        """Evaluate at an exact point; returns a constant matrix."""
        t = GaussianRational(point)._t
        acc = tuple((_core.ZERO,) * self.cols for _ in range(self.rows))
        for mat in reversed(self._c):
            acc = tuple(
                tuple(
                    _core.add(_core.mul(x, t), y) for x, y in zip(acc_row, mat_row)
                )
                for acc_row, mat_row in zip(acc, mat)
            )
        return _wrap_matrix(acc)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixPolynomial)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._c))

    def __repr__(self):
        return (
            f"MatrixPolynomial({self.rows}x{self.cols}, degree={self.degree})"
        )
