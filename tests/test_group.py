from fractions import Fraction

import pytest

from jumat import (
    GaussianRational,
    GeneratorParams,
    IsotropicDirection,
    MatrixPolynomial,
    Mode,
    PhasePoly,
    SampleConfig,
    Sampler,
    TangentPoly,
    Word,
    build_generator,
    commutator,
    compose,
    conjugate,
    identity_params,
    invert,
    phase_params,
    star_params,
    tangent_space_basis,
    word_degree,
    word_reduce,
    word_to_matrix,
)
from jumat.group import ConstantUnitary, matrix_fits_mode
from jumat.linalg import (
    as_vector,
    matrix_parallel_coefficient,
    metric_vec,
    outer,
)

GR = GaussianRational


def direction(*entries):
    return IsotropicDirection([GR(x) if not isinstance(x, GR) else x for x in entries])


Z2 = direction(1, 1)
Z3 = direction(1, 1, 0)


# --- directions ---------------------------------------------------------

def test_direction_examples():
    assert direction(1, 1).nu == 2
    assert direction(1, Fraction(3, 5), Fraction(4, 5)).nu == 3
    with pytest.raises(ValueError):
        direction(1, 1, 1)  # not isotropic
    with pytest.raises(ValueError):
        direction(2, 1)  # first component not 1
    with pytest.raises(ValueError):
        IsotropicDirection([1, GR(0, 1), 0], mode=Mode.REAL_OMEGA)


def test_complex_direction_valid():
    z = IsotropicDirection([1, GR(Fraction(3, 5), Fraction(4, 5)), 0])
    assert z.nu == 3


# --- tangent spaces -----------------------------------------------------

def test_tangent_space_examples():
    assert tangent_space_basis(Z2) == ()
    basis3 = tangent_space_basis(Z3)
    assert basis3 == (as_vector([0, 0, 1]),)
    z4 = direction(1, 1, 0, 0)
    basis4 = tangent_space_basis(z4)
    assert len(basis4) == 2
    for d in basis4:
        assert d[0] == GR(0)


def test_tangent_poly_validation():
    with pytest.raises(ValueError):
        TangentPoly(Z2, [(GR(0), GR(1))])  # trivial space at nu=2
    with pytest.raises(ValueError):
        TangentPoly(Z3, [(GR(0), GR(1), GR(0))])  # not orthogonal to z
    g = TangentPoly.monomial(Z3, (GR(0), GR(0), GR(1)), 1)
    assert g.degree == 1


def test_phase_poly_modes():
    with pytest.raises(ValueError):
        PhasePoly([Fraction(1)], mode=Mode.REAL_OMEGA)
    with pytest.raises(ValueError):
        PhasePoly([Fraction(1), Fraction(1)], mode=Mode.REAL_LAMBDA)
    p = PhasePoly([Fraction(1), Fraction(0), Fraction(2)], mode=Mode.REAL_LAMBDA)
    assert p.degree == 3


# --- generator construction ---------------------------------------------

def test_identity_generator():
    p = identity_params(Z3)
    assert build_generator(p) == MatrixPolynomial.identity(3)


def test_phase_generator_2x2():
    p = phase_params(Z2, [Fraction(1)])
    m = build_generator(p)
    expected = MatrixPolynomial(
        2, 2,
        [
            ((GR(1), GR(0)), (GR(0), GR(1))),
            ((GR(0, -1), GR(0, -1)), (GR(0, 1), GR(0, 1))),
        ],
    )
    assert m == expected


def test_tangent_generator_3x3_closed_form():
    g = TangentPoly.monomial(Z3, (GR(0), GR(0), GR(1)), 1)
    m = build_generator(GeneratorParams(Z3, PhasePoly(), g))
    h = GR(Fraction(1, 2))
    expected = MatrixPolynomial(
        3, 3,
        [
            ((GR(1), GR(0), GR(0)), (GR(0), GR(1), GR(0)), (GR(0), GR(0), GR(1))),
            ((GR(0), GR(0), GR(-1)), (GR(0), GR(0), GR(1)), (GR(-1), GR(-1), GR(0))),
            ((h, h, GR(0)), (-h, -h, GR(0)), (GR(0), GR(0), GR(0))),
        ],
    )
    assert m == expected
    assert m.degree == 2 == GeneratorParams(Z3, PhasePoly(), g).factor_degree()


def test_generators_satisfy_metric_identity_in_every_mode():
    from jumat import is_j_unitary
    from jumat.linalg import identity_matrix, metric_matrix

    d = MatrixPolynomial.constant(metric_matrix(3))
    for mode in Mode:
        sampler = Sampler(SampleConfig(nu=3, mode=mode, seed=13))
        for _ in range(200):
            p = sampler.member()
            m = build_generator(p)
            assert is_j_unitary(m)
            assert m.star().metric_right() * m == d  # the two-sided identity
            assert m(0) == identity_matrix(3)


def test_leading_coefficient_is_dyadic(rng):
    sampler = Sampler(SampleConfig(nu=3, seed=31))
    dz = None
    for _ in range(30):
        p = sampler.member()
        m = build_generator(p)
        _, lead = m.leading()
        dyad = outer(metric_vec(p.z.entries), p.z.entries)
        c = matrix_parallel_coefficient(dyad, lead)
        assert c is not None and c


# --- group laws ----------------------------------------------------------

def test_compose_central_phases():
    a = phase_params(Z2, [Fraction(1)])
    b = phase_params(Z2, [Fraction(0), Fraction(2)])
    assert compose(a, b) == phase_params(Z2, [Fraction(1), Fraction(2)])


def test_compose_same_tangent_doubles():
    d = (GR(0), GR(0), GR(1))
    a = GeneratorParams(Z3, PhasePoly(), TangentPoly.monomial(Z3, d, 1))
    out = compose(a, a)
    assert out.phase.is_zero()
    assert out.tangent == TangentPoly.monomial(Z3, (GR(0), GR(0), GR(2)), 1)


def test_compose_cross_term_and_commutator():
    z = direction(1, 1, 0, 0)
    d1 = (GR(0), GR(0), GR(1), GR(0))
    d2 = (GR(0), GR(0), GR(0, 1), GR(0))
    a = GeneratorParams(z, PhasePoly(), TangentPoly.monomial(z, d1, 1))
    b = GeneratorParams(z, PhasePoly(), TangentPoly.monomial(z, d2, 1))
    ab = compose(a, b)
    # correction (h*g - g*h)/2 with h*g = -i w^2
    assert ab.phase == PhasePoly([Fraction(0), Fraction(-1)])
    assert ab.tangent.coefficient(1) == (GR(0), GR(0), GR(1, 1), GR(0))
    assert commutator(a, b) == phase_params(z, [Fraction(0), Fraction(-2)])


def test_compose_homomorphism_matrix_oracle():
    for mode, nu in ((Mode.COMPLEX, 3), (Mode.REAL_OMEGA, 4), (Mode.REAL_LAMBDA, 3)):
        sampler = Sampler(SampleConfig(nu=nu, mode=mode, seed=17))
        for _ in range(20):
            z = sampler.direction()
            a = sampler.member(z)
            b = sampler.member(z)
            assert build_generator(compose(a, b)) == build_generator(a) * build_generator(b)


def test_invert_examples():
    a = phase_params(Z2, [Fraction(2)])
    assert invert(a) == phase_params(Z2, [Fraction(-2)])
    assert compose(a, invert(a)).is_identity()
    g = TangentPoly.monomial(Z3, (GR(0), GR(0), GR(1, 2)), 2)
    b = GeneratorParams(Z3, PhasePoly([Fraction(1)]), g)
    assert compose(b, invert(b)).is_identity()
    assert build_generator(b) * build_generator(invert(b)) == MatrixPolynomial.identity(3)


def test_commutator_degenerate_cases():
    a = phase_params(Z2, [Fraction(1)])
    b = phase_params(Z2, [Fraction(0), Fraction(3)])
    assert commutator(a, b).is_identity()  # nu=2 members commute
    sampler = Sampler(SampleConfig(nu=4, seed=23))
    z = sampler.direction()
    x = sampler.member(z)
    assert commutator(x, x).is_identity()


def test_commutator_is_central():
    sampler = Sampler(SampleConfig(nu=4, seed=29))
    z = sampler.direction()
    a, b = sampler.member(z), sampler.member(z)
    c = commutator(a, b)
    assert c.tangent.is_zero()
    for _ in range(10):
        x = sampler.member(z)
        assert compose(c, x) == compose(x, c)


# --- conjugation ----------------------------------------------------------

def test_conjugate_identity_leaves_params():
    w = ConstantUnitary.identity(3)
    p = phase_params(Z3, [Fraction(1)])
    assert conjugate(w, p) == p


def test_conjugate_swap_block():
    swap = ConstantUnitary.from_block(((GR(0), GR(1)), (GR(1), GR(0))))
    p = phase_params(Z3, [Fraction(1)])
    q = conjugate(swap, p)
    assert q.z == direction(1, 0, 1)


def test_conjugate_matrix_identity_oracle():
    sampler = Sampler(SampleConfig(nu=3, seed=41))
    for _ in range(15):
        w = sampler.constant_unitary()
        p = sampler.member()
        lhs = w.as_matrix_poly() * build_generator(p) * w.inverse().as_matrix_poly()
        assert lhs == build_generator(conjugate(w, p))


def test_constant_unitary_validation():
    with pytest.raises(ValueError):
        ConstantUnitary(((GR(2), GR(0)), (GR(0), GR(1))))
    with pytest.raises(ValueError):
        ConstantUnitary(((GR(1), GR(1)), (GR(0), GR(1))))
    with pytest.raises(ValueError):
        ConstantUnitary.from_block(((GR(2),),))


# --- star ------------------------------------------------------------------

def test_star_params_example():
    p = phase_params(Z2, [Fraction(5)])
    q = star_params(p)
    assert q.z == direction(1, -1)
    assert q.phase == PhasePoly([Fraction(-5)])
    assert build_generator(p).star() == build_generator(q)


def test_star_params_involution_and_oracle():
    sampler = Sampler(SampleConfig(nu=4, seed=43))
    for _ in range(15):
        p = sampler.member()
        assert star_params(star_params(p)) == p
        assert build_generator(p).star() == build_generator(star_params(p))


# --- words -----------------------------------------------------------------

def test_empty_word_is_identity():
    w = Word(3, ())
    assert word_to_matrix(w) == MatrixPolynomial.identity(3)
    assert word_degree(w) == 0


def test_word_reduce_cancels_inverse_pair():
    a = phase_params(Z2, [Fraction(1)])
    assert word_reduce([a, invert(a)], 2) == Word(2, ())


def test_word_reduce_cascades():
    zb = direction(1, -1)
    a = phase_params(Z2, [Fraction(1)])
    b = phase_params(zb, [Fraction(2)])
    seq = [a, b, invert(b), invert(a), a]
    assert word_reduce(seq, 2) == Word(2, (a,))


def test_two_factor_word_degree():
    zb = direction(1, -1)
    w = Word(2, (phase_params(Z2, [Fraction(1)]), phase_params(zb, [Fraction(1)])))
    m = word_to_matrix(w)
    assert m.degree == 2 == word_degree(w)


def test_word_validation_rejects_unreduced():
    a = phase_params(Z2, [Fraction(1)])
    with pytest.raises(ValueError):
        Word(2, (a, a))
    with pytest.raises(ValueError):
        Word(2, (identity_params(Z2),))


def test_parametrization_is_one_to_one():
    sampler = Sampler(SampleConfig(nu=3, seed=47))
    seen = {}
    for _ in range(60):
        p = sampler.member()
        m = build_generator(p)
        if m in seen:
            assert seen[m] == p
        seen[m] = p
    assert len(seen) >= 50


def test_alternating_mode_closed_under_composition():
    sampler = Sampler(SampleConfig(nu=4, mode=Mode.REAL_LAMBDA, seed=53))
    for _ in range(20):
        z = sampler.direction()
        a, b = sampler.member(z), sampler.member(z)
        out = compose(a, b)
        assert out.fits_mode(Mode.REAL_LAMBDA)
        assert matrix_fits_mode(build_generator(out), Mode.REAL_LAMBDA)
