"""Exact scalar field: rationals and Gaussian rationals.

Rationals are ``fractions.Fraction`` (arbitrary precision, lowest terms,
positive denominator).  ``GaussianRational`` is the complex extension with
rational real and imaginary parts; every operation is exact and every
value is kept in a canonical form, so equal values are structurally equal.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from jumat import _core

Rational = Fraction

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the strict textual form "p/q" or "p" used by the CLI."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text.strip())


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(value)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Values are immutable.  Each value holds the kernel's canonical integer
    triple ``(p, q, r)`` meaning ``(p + q*i) / r``, and arithmetic is
    delegated to the kernel (``jumat._core``).

    ``int`` and ``Fraction`` operands are coerced, so mixed expressions
    like ``1 - x`` or ``x / 2`` work and stay exact.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im:
                raise TypeError("cannot add an imaginary part to a GaussianRational")
            self._t = re._t
            return
        re = Fraction(re)
        im = Fraction(im)
        self._t = _core.canon(
            re.numerator * im.denominator,
            im.numerator * re.denominator,
            re.denominator * im.denominator,
        )

    @classmethod
    def _wrap(cls, triple) -> GaussianRational:
        obj = object.__new__(cls)
        obj._t = triple
        return obj

    @property
    def re(self) -> Fraction:
        p, _, r = self._t
        return Fraction(p, r)

    @property
    def im(self) -> Fraction:
        _, q, r = self._t
        return Fraction(q, r)

    def conjugate(self) -> GaussianRational:
        return GaussianRational._wrap(_core.conj(self._t))

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        p, q, r = self._t
        return Fraction(p * p + q * q, r * r)

    def is_real(self) -> bool:
        return self._t[1] == 0

    def is_imaginary(self) -> bool:
        """True when the real part is zero (includes zero itself)."""
        return self._t[0] == 0

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._wrap(_core.add(self._t, other._t))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._wrap(_core.sub(self._t, other._t))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._wrap(_core.sub(other._t, self._t))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._wrap(_core.mul(self._t, other._t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._wrap(_core.div(self._t, other._t))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._wrap(_core.div(other._t, self._t))

    def __neg__(self):
        return GaussianRational._wrap(_core.neg(self._t))

    def __pos__(self):
        return self

    def __bool__(self):
        return self._t[0] != 0 or self._t[1] != 0

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        # Real values must hash like the Fraction they equal.
        if self._t[1] == 0:
            return hash(self.re)
        return hash(self._t)

    def __repr__(self):
        p, q, r = self._t
        if q == 0:
            return format_rational(Fraction(p, r))
        re_part = "" if p == 0 else format_rational(Fraction(p, r))
        im = Fraction(q, r)
        if im == 1:
            im_part = "i"
        elif im == -1:
            im_part = "-i"
        else:
            im_part = format_rational(im) + "i"
        if not re_part:
            return im_part
        return re_part + ("+" if im > 0 else "") + im_part


def _unwrap_matrix(rows):
    """Kernel form of a constant matrix: row tuples of canonical triples."""
    return tuple(tuple(GaussianRational(x)._t for x in row) for row in rows)


def _wrap_matrix(raw):
    """GaussianRational form of a kernel matrix."""
    return tuple(tuple(GaussianRational._wrap(t) for t in row) for row in raw)
