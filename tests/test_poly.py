from fractions import Fraction

import pytest

from jumat import (
    NEG_INF,
    GaussianRational,
    MatrixPolynomial,
    SampleConfig,
    Sampler,
    ScalarPoly,
    VectorPoly,
    word_to_matrix,
)
from jumat import _core
from jumat.linalg import identity_matrix, metric_matrix, zero_matrix
from tests.conftest import rand_scalar

GR = GaussianRational


def rand_matrix_poly(rng, rows, cols, degree, height=6):
    coeffs = []
    for _ in range(degree + 1):
        coeffs.append(
            tuple(
                tuple(rand_scalar(rng, height) for _ in range(cols))
                for _ in range(rows)
            )
        )
    return MatrixPolynomial(rows, cols, coeffs)


def test_scalar_poly_product():
    one_plus = ScalarPoly([1, 1])
    one_minus = ScalarPoly([1, -1])
    assert one_plus * one_minus == ScalarPoly([1, 0, -1])


def test_zero_polynomial_degree_sentinel():
    assert ScalarPoly().degree == NEG_INF
    assert ScalarPoly([0, 0]).is_zero()
    assert MatrixPolynomial(2, 2, ()).degree == NEG_INF


def test_matrix_identity_neutral(rng):
    m = rand_matrix_poly(rng, 3, 3, 2)
    assert m * MatrixPolynomial.identity(3) == m
    assert MatrixPolynomial.identity(3) * m == m


def test_hand_convolution_example():
    # [[w, 1], [0, 1]] . [[1, 0], [w, 1]] == [[2w, 1], [w, 1]]
    a = MatrixPolynomial(
        2, 2,
        [
            ((GR(0), GR(1)), (GR(0), GR(1))),
            ((GR(1), GR(0)), (GR(0), GR(0))),
        ],
    )
    b = MatrixPolynomial(
        2, 2,
        [
            ((GR(1), GR(0)), (GR(0), GR(1))),
            ((GR(0), GR(0)), (GR(1), GR(0))),
        ],
    )
    product = a * b
    expected = MatrixPolynomial(
        2, 2,
        [
            ((GR(0), GR(1)), (GR(0), GR(1))),
            ((GR(2), GR(0)), (GR(1), GR(0))),
        ],
    )
    assert product == expected

    # (1 - w)(1 + w) = 1 - w^2: the middle power cancels inside the product.
    one_minus = MatrixPolynomial(1, 1, [((GR(1),),), ((GR(-1),),)])
    one_plus = MatrixPolynomial(1, 1, [((GR(1),),), ((GR(1),),)])
    assert one_minus * one_plus == MatrixPolynomial(
        1, 1, [((GR(1),),), ((GR(0),),), ((GR(-1),),)]
    )
    # (I + Nw)(I - Nw) = I for nilpotent N: the top powers cancel and are trimmed.
    nil = ((GR(0), GR(1)), (GR(0), GR(0)))
    neg_nil = ((GR(0), GR(-1)), (GR(0), GR(0)))
    eye = identity_matrix(2)
    square = MatrixPolynomial(2, 2, [eye, nil]) * MatrixPolynomial(
        2, 2, [eye, neg_nil]
    )
    assert square == MatrixPolynomial.identity(2) and square.degree == 0
    # A zero coefficient list, trimmed or not, gives the empty product.
    zero_coeff = (((_core.ZERO,),),)
    assert _core.matpoly_mul(zero_coeff, one_plus._c) == ()
    assert _core.matpoly_mul((), one_plus._c) == ()
    assert _core.matpoly_mul(one_plus._c, ()) == ()


def test_star_examples():
    eye = MatrixPolynomial.identity(2)
    assert eye.star() == eye
    i_omega_eye = MatrixPolynomial(
        2, 2, [zero_matrix(2, 2), ((GR(0, 1), GR(0)), (GR(0), GR(0, 1)))]
    )
    assert i_omega_eye.star() == i_omega_eye.scale(GR(-1))
    upper = MatrixPolynomial(
        2, 2,
        [
            ((GR(1), GR(0)), (GR(0), GR(1))),
            ((GR(0), GR(0, 1)), (GR(0), GR(0))),
        ],
    )
    lower = MatrixPolynomial(
        2, 2,
        [
            ((GR(1), GR(0)), (GR(0), GR(1))),
            ((GR(0), GR(0)), (GR(0, -1), GR(0))),
        ],
    )
    assert upper.star() == lower


def test_star_is_involutive_antihomomorphism(rng):
    for _ in range(25):
        a = rand_matrix_poly(rng, 2, 3, 2)
        b = rand_matrix_poly(rng, 3, 2, 3)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_eval_leading_coefficient():
    a = ((GR(0), GR(1)), (GR(2), GR(0)))
    m = MatrixPolynomial(2, 2, [identity_matrix(2), a])
    assert m(0) == identity_matrix(2)
    assert m.leading() == (1, a)
    assert m.coefficient(5) == zero_matrix(2, 2)
    point = GR(Fraction(1, 2))
    evaluated = m(point)
    assert evaluated[0][1] == GR(Fraction(1, 2))
    assert evaluated[1][0] == GR(1)


def test_degree_additivity_without_cancellation(rng):
    for _ in range(25):
        a = rand_matrix_poly(rng, 2, 2, rng.randint(0, 3))
        b = rand_matrix_poly(rng, 2, 2, rng.randint(0, 3))
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
            continue
        from jumat.linalg import is_zero_matrix, mat_mul

        lead = mat_mul(a.leading()[1], b.leading()[1])
        if not is_zero_matrix(lead):
            assert (a * b).degree == a.degree + b.degree


def test_group_member_inverse_is_exact():
    sampler = Sampler(SampleConfig(nu=3, seed=5))
    for _ in range(10):
        u = word_to_matrix(sampler.word())
        inv = u.star().metric_left().metric_right()  # D U* D
        assert u * inv == MatrixPolynomial.identity(3)
        assert inv * u == MatrixPolynomial.identity(3)


def test_metric_helpers_match_constant_products():
    sampler = Sampler(SampleConfig(nu=3, seed=6))
    u = word_to_matrix(sampler.word())
    d = MatrixPolynomial.constant(metric_matrix(3))
    assert u.metric_left() == d * u
    assert u.metric_right() == u * d


def test_dimension_mismatch_raises(rng):
    a = rand_matrix_poly(rng, 2, 3, 1)
    b = rand_matrix_poly(rng, 2, 2, 1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        _core.matpoly_mul(a._c, b._c)


def test_vector_poly_hermitian_product():
    g = VectorPoly(2, [(GR(0), GR(0)), (GR(0), GR(0, 1))])
    # g = (0, i) * w; g*g = conj(i)*i * w^2 = w^2
    assert g.hermitian_product(g) == ScalarPoly([0, 0, 1])


def test_scalar_poly_star_involution(rng):
    p = ScalarPoly([rand_scalar(rng) for _ in range(5)])
    assert p.star().star() == p
    assert p.star().coefficient(2) == p.coefficient(2).conjugate()
