"""Arithmetic kernel: exact Gaussian-rational scalars and matrix products.

A scalar is a canonical triple ``(p, q, r)`` of Python ints encoding the
Gaussian rational ``(p + q*i) / r`` with ``r > 0`` and ``gcd(p, q, r) == 1``.
Canonical form makes equality structural, so triples can be compared and
hashed directly.

A constant matrix is a tuple of row tuples of triples.  A polynomial
coefficient list is a tuple of such matrices, ascending powers, with
trailing zero matrices trimmed.

Products are computed fraction-free: each operand is scaled onto a single
common denominator, the convolution runs on bare integers with no
intermediate normalization, and each output entry is reduced exactly once.
``matpoly_mul`` is the package's one matrix product loop: constant
matrices go through it as one-coefficient polynomials.
"""

from math import gcd

ZERO = (0, 0, 1)


def canon(p, q, r):
    """Reduce (p + q*i)/r to canonical form."""
    if r == 0:
        raise ZeroDivisionError("zero denominator")
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(gcd(p, q), r)
    if g > 1:
        return (p // g, q // g, r // g)
    return (p, q, r)


def add(a, b):
    p1, q1, r1 = a
    p2, q2, r2 = b
    if r1 == r2:
        return canon(p1 + p2, q1 + q2, r1)
    g = gcd(r1, r2)
    m1 = r2 // g
    m2 = r1 // g
    return canon(p1 * m1 + p2 * m2, q1 * m1 + q2 * m2, r1 * m1)


def sub(a, b):
    p1, q1, r1 = a
    p2, q2, r2 = b
    if r1 == r2:
        return canon(p1 - p2, q1 - q2, r1)
    g = gcd(r1, r2)
    m1 = r2 // g
    m2 = r1 // g
    return canon(p1 * m1 - p2 * m2, q1 * m1 - q2 * m2, r1 * m1)


def mul(a, b):
    p1, q1, r1 = a
    p2, q2, r2 = b
    return canon(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, r1 * r2)


def neg(a):
    p, q, r = a
    return (-p, -q, r)


def conj(a):
    p, q, r = a
    return (p, -q, r)


def inv(a):
    p, q, r = a
    n = p * p + q * q
    if n == 0:
        raise ZeroDivisionError("division by zero")
    return canon(r * p, -r * q, n)


def div(a, b):
    return mul(a, inv(b))


def mat_is_zero(m):
    for row in m:
        for x in row:
            if x[0] != 0 or x[1] != 0:
                return False
    return True


def _integer_form(mats):
    """Scale coefficient matrices onto one denominator; entries become int pairs."""
    den = 1
    for mat in mats:
        for row in mat:
            for t in row:
                r = t[2]
                if r != 1:
                    den = den // gcd(den, r) * r
    scaled = [
        [[(p * (den // r), q * (den // r)) for (p, q, r) in row] for row in mat]
        for mat in mats
    ]
    return scaled, den


def matpoly_mul(a, b):
    """Convolution product of two coefficient lists, trimmed.

    ``a`` and ``b`` are tuples of constant matrices (ascending powers).
    The zero polynomial is the empty tuple.
    """
    if not a or not b:
        return ()
    rows = len(a[0])
    inner = len(b[0])
    if len(a[0][0]) != inner:
        raise ValueError("dimension mismatch in matrix product")
    cols = len(b[0][0])
    sa, da = _integer_form(a)
    sb, db = _integer_form(b)
    den = da * db
    la = len(a)
    lb = len(b)
    out = []
    for d in range(la + lb - 1):
        lo = d - lb + 1
        if lo < 0:
            lo = 0
        hi = d if d < la - 1 else la - 1
        mat = []
        for i in range(rows):
            row = []
            for j in range(cols):
                accp = 0
                accq = 0
                for k in range(lo, hi + 1):
                    am = sa[k]
                    bm = sb[d - k]
                    arow = am[i]
                    for t in range(inner):
                        p1, q1 = arow[t]
                        if p1 or q1:
                            p2, q2 = bm[t][j]
                            if p2 or q2:
                                accp += p1 * p2 - q1 * q2
                                accq += p1 * q2 + q1 * p2
                row.append(canon(accp, accq, den))
            mat.append(tuple(row))
        out.append(tuple(mat))
    while out and mat_is_zero(out[-1]):
        out.pop()
    return tuple(out)
