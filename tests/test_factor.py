import random
from fractions import Fraction

import pytest

from jumat import (
    ConstantJUnitary,
    GaussianRational,
    GeneratorParams,
    IsotropicDirection,
    MatrixPolynomial,
    Mode,
    NotInGroupError,
    PhasePoly,
    SampleConfig,
    Sampler,
    TangentPoly,
    Word,
    build_generator,
    dyad_extract,
    factor,
    invert,
    is_j_unitary,
    phase_params,
    real_subgroup_report,
    reduce_once,
    reduction_indices,
    split_constant,
    three_dyad_split,
    word_to_matrix,
)
from jumat.linalg import (
    is_zero_vector,
    mat_scale,
    metric_vec,
    outer,
    zero_matrix,
)

GR = GaussianRational
Z2 = IsotropicDirection([1, 1])
Z3 = IsotropicDirection([1, 1, 0])


def tangent_generator_3():
    g = TangentPoly.monomial(Z3, (GR(0), GR(0), GR(1)), 1)
    return GeneratorParams(Z3, PhasePoly(), g)


def leading_first(u):
    kappa = u.degree
    return [u.coefficient(kappa - i) for i in range(kappa + 1)]


# --- membership -------------------------------------------------------------

def test_identity_is_member():
    assert is_j_unitary(MatrixPolynomial.identity(3))


def test_two_factor_lambda_product_is_member():
    # alpha=1, beta=2 in the rotated-variable closed form, written in omega.
    za, zb = Z2, IsotropicDirection([1, -1])
    u = build_generator(phase_params(za, [Fraction(1)])) * build_generator(
        phase_params(zb, [Fraction(2)])
    )
    assert is_j_unitary(u)
    assert u.coefficient(2) == mat_scale(GR(-4), ((GR(1), GR(-1)), (GR(-1), GR(1))))


def test_shear_is_not_member():
    shear = MatrixPolynomial(
        2, 2,
        [
            ((GR(1), GR(0)), (GR(0), GR(1))),
            ((GR(0), GR(1)), (GR(0), GR(0))),
        ],
    )
    assert not is_j_unitary(shear)


def test_membership_requires_square():
    with pytest.raises(ValueError):
        is_j_unitary(MatrixPolynomial(2, 3, ()))


# --- constant split ----------------------------------------------------------

def test_split_identity():
    u0, tail = split_constant(MatrixPolynomial.identity(2))
    assert u0 == MatrixPolynomial.identity(2)
    assert tail.is_identity()


def test_split_recovers_generator_and_tail():
    sampler = Sampler(SampleConfig(nu=3, seed=61))
    g = build_generator(sampler.member())
    v = sampler.constant_unitary()
    u = g * v.as_matrix_poly()
    u0, tail = split_constant(u)
    assert u0 == g
    assert tail.matrix == v.matrix


def test_split_constant_member():
    sampler = Sampler(SampleConfig(nu=3, seed=67))
    v = sampler.constant_unitary().as_matrix_poly()
    u0, tail = split_constant(v)
    assert u0 == MatrixPolynomial.identity(3)
    assert tail.as_matrix_poly() == v


def test_split_rejects_non_member():
    shear = MatrixPolynomial(
        2, 2, [((GR(1), GR(1)), (GR(0), GR(1)))]
    )
    with pytest.raises(NotInGroupError):
        split_constant(shear)


def test_constant_j_unitary_inverse():
    d = ConstantJUnitary(((GR(-1), GR(0)), (GR(0), GR(1))))
    assert d.inverse().matrix == d.matrix  # diag(-1, 1) is an involution


# --- dyad extraction ----------------------------------------------------------

def test_dyad_extract_constructed():
    x = outer(metric_vec(Z2.entries), Z2.entries)  # D y z* with y = z = (1, 1)
    alpha, y, z = dyad_extract(x)
    assert alpha == GR(1)
    assert y == Z2 and z == Z2


def test_dyad_extract_generator_leading():
    m = build_generator(tangent_generator_3())
    _, lead = m.leading()
    alpha, y, z = dyad_extract(lead)
    assert alpha == GR(Fraction(-1, 2))
    assert y == Z3 and z == Z3


def test_dyad_extract_rejects_zero_and_structureless():
    with pytest.raises(NotInGroupError):
        dyad_extract(zero_matrix(2, 2))
    with pytest.raises(NotInGroupError):
        dyad_extract(((GR(1), GR(0)), (GR(0), GR(1))))


# --- reduction indices ---------------------------------------------------------

def test_indices_single_phase_factor():
    u = build_generator(phase_params(Z2, [Fraction(1)]))
    coeffs = leading_first(u)
    alpha, y, z = dyad_extract(coeffs[0])
    assert reduction_indices(coeffs, y, z) == (1, 1, 1)


def test_indices_tangent_generator():
    u = build_generator(tangent_generator_3())
    coeffs = leading_first(u)
    _, y, z = dyad_extract(coeffs[0])
    assert reduction_indices(coeffs, y, z) == (1, 2, 2)


def test_indices_gap_phase():
    u = build_generator(phase_params(Z2, [Fraction(0), Fraction(1)]))
    coeffs = leading_first(u)
    _, y, z = dyad_extract(coeffs[0])
    # The zero middle coefficient is dyadic with factor 0.
    assert reduction_indices(coeffs, y, z) == (2, 2, 2)


# --- three-dyad split -----------------------------------------------------------

def test_three_dyad_split_zero():
    r, s, alpha = three_dyad_split(zero_matrix(3, 3), Z3, Z3)
    assert is_zero_vector(r) and is_zero_vector(s) and alpha == GR(0)


def test_three_dyad_split_roundtrip(rng):
    from jumat.linalg import mat_add, mat_sub
    from tests.conftest import rand_scalar

    y = Z3
    z = IsotropicDirection([1, Fraction(3, 5), Fraction(4, 5)])
    from jumat import tangent_space_basis
    from jumat.linalg import scale_vec

    (sy,) = tangent_space_basis(y)
    (sz,) = tangent_space_basis(z)
    for _ in range(20):
        r0 = scale_vec(rand_scalar(rng), sy)
        s0 = scale_vec(rand_scalar(rng), sz)
        alpha0 = rand_scalar(rng)
        built = mat_add(
            mat_sub(outer(r0, z.entries), outer(y.entries, s0)),
            mat_scale(alpha0, outer(y.entries, z.entries)),
        )
        from jumat.linalg import metric_rows

        x = metric_rows(built)
        r, s, alpha = three_dyad_split(x, y, z)
        assert r == r0 and s == s0 and alpha == alpha0


def test_three_dyad_split_pure_dyad():
    alpha0 = GR(Fraction(2, 3), 1)
    x = mat_scale(alpha0, outer(metric_vec(Z3.entries), Z3.entries))
    r, s, alpha = three_dyad_split(x, Z3, Z3)
    assert is_zero_vector(r) and is_zero_vector(s)
    assert alpha == alpha0


# --- single reductions -----------------------------------------------------------

def test_reduce_once_strips_phase_factor():
    p = phase_params(Z2, [Fraction(1)])
    u = build_generator(p)
    reduced, step = reduce_once(u)
    assert reduced == MatrixPolynomial.identity(2)
    assert step.side == "right" and step.branch == "phase"
    assert invert(step.params) == p


def test_reduce_once_strips_tangent_generator():
    p = tangent_generator_3()
    u = build_generator(p)
    reduced, step = reduce_once(u)
    assert reduced == MatrixPolynomial.identity(3)
    assert step.branch == "tangent"
    assert invert(step.params) == p


def test_reduce_once_requires_positive_degree():
    with pytest.raises(ValueError):
        reduce_once(MatrixPolynomial.identity(2))


def test_reduce_once_requires_normalization():
    sampler = Sampler(SampleConfig(nu=3, seed=71))
    u = build_generator(sampler.member()) * sampler.constant_unitary().as_matrix_poly()
    if u(0) != MatrixPolynomial.identity(3)(0):
        with pytest.raises(NotInGroupError):
            reduce_once(u)


def test_reduce_once_records_degrees():
    za, zb = Z2, IsotropicDirection([1, -1])
    w = Word(2, (phase_params(za, [Fraction(1)]), phase_params(zb, [Fraction(2)])))
    u = word_to_matrix(w)
    reduced, step = reduce_once(u)
    assert step.degree_before == 2
    assert step.degree_after == reduced.degree == 1


# --- full factorization ------------------------------------------------------------

def test_factor_identity():
    res = factor(MatrixPolynomial.identity(3))
    assert res.word == Word(3, ())
    assert res.tail.is_identity()
    assert res.steps == ()


def test_factor_five_factor_word_roundtrip():
    sampler = Sampler(SampleConfig(nu=3, max_factors=5, seed=73))
    w = sampler.word()
    while len(w.factors) < 5:
        w = sampler.word()
    res = factor(word_to_matrix(w))
    assert res.word == w
    assert res.tail.is_identity()
    assert len(res.steps) >= len(w.factors)


def test_factor_with_constant_tail():
    sampler = Sampler(SampleConfig(nu=3, seed=79))
    u = sampler.matrix()
    res = factor(u)
    assert res.matrix() == u


def test_step_count_bounded_by_degree():
    sampler = Sampler(SampleConfig(nu=4, max_factors=6, seed=107))
    for _ in range(10):
        w = sampler.word()
        u = word_to_matrix(w)
        degree = u.degree if u.degree != float("-inf") else 0
        res = factor(u)
        assert len(res.steps) <= degree
        for step in res.steps:
            assert step.degree_after < step.degree_before


def test_factor_rejects_perturbed_member():
    sampler = Sampler(SampleConfig(nu=3, seed=83))
    w = sampler.word()
    while not w.factors:
        w = sampler.word()
    u = word_to_matrix(w)
    mats = [list(map(list, u.coefficient(k))) for k in range(u.degree + 1)]
    mats[1][0][1] = mats[1][0][1] + GR(Fraction(1, 7))
    perturbed = MatrixPolynomial(3, 3, mats)
    assert not is_j_unitary(perturbed)
    with pytest.raises(NotInGroupError):
        factor(perturbed)


def _perturb(u, mode, rng):
    """Add delta to one entry (i, j) of one coefficient k of a member.

    Entry (i, i) of U.D.U* at power 2k then changes by
    d_j (2 Re(conj(a) delta) + |delta|^2), with a the old entry and d_j the
    metric sign, and by nothing else; doubling delta makes that nonzero when
    it is not.  delta is real, or imaginary at odd powers in real_lambda, so
    the mode still holds and only the group structure can reject.
    """
    mats = [list(map(list, u.coefficient(k))) for k in range(max(u.degree, 0) + 1)]
    k = rng.randrange(len(mats))
    i = rng.randrange(u.rows)
    j = rng.randrange(u.rows)
    delta = GR(rng.choice((-1, 1)))
    if mode is Mode.REAL_LAMBDA and k % 2:
        delta = delta * GR(0, 1)
    a = mats[k][i][j]
    if not ((a.conjugate() * delta).re * 2 + delta.abs2()):
        delta = delta * 2
    mats[k][i][j] = a + delta
    return MatrixPolynomial(u.rows, u.rows, mats)


def test_perturbed_members_are_rejected_inside_the_reduction():
    # factor proves membership only by reducing to I, so every stage after
    # the constant split has to reject what it cannot reduce.
    rng = random.Random(419)
    in_loop = 0
    for nu in (2, 3, 4):
        for mode in Mode:
            sampler = Sampler(SampleConfig(nu=nu, mode=mode, max_factors=3, seed=nu))
            for with_tail in (False, True):
                for _ in range(4):
                    u = word_to_matrix(sampler.word())
                    if with_tail:
                        u = u * sampler.constant_unitary().as_matrix_poly()
                    bad = _perturb(u, mode, rng)
                    assert not is_j_unitary(bad)
                    for verify in (False, True):
                        with pytest.raises(NotInGroupError) as exc:
                            factor(bad, mode=mode, verify=verify)
                        assert type(exc.value) is NotInGroupError
                    try:
                        current, _ = split_constant(bad)
                    except NotInGroupError:
                        continue
                    try:
                        while current.degree > 0:
                            current, _ = reduce_once(current, mode)
                    except NotInGroupError:
                        in_loop += 1
    assert in_loop > 0


def test_factor_rejects_mode_mismatch():
    u = build_generator(phase_params(Z2, [Fraction(1)]))  # complex-only entries
    with pytest.raises(NotInGroupError):
        factor(u, mode=Mode.REAL_OMEGA)


def test_factor_two_sided_word():
    # Words needing both left and right reductions still round trip.
    sampler = Sampler(SampleConfig(nu=4, max_factors=6, seed=89))
    for _ in range(5):
        w = sampler.word()
        res = factor(word_to_matrix(w))
        assert res.word == w


def test_lambda_real_dimension_two_directions():
    sampler = Sampler(SampleConfig(nu=2, mode=Mode.REAL_LAMBDA, max_factors=4, seed=97))
    allowed = {Z2, IsotropicDirection([1, -1])}
    for _ in range(10):
        w = sampler.word()
        res = factor(word_to_matrix(w), mode=Mode.REAL_LAMBDA)
        assert res.word == w
        for f in res.word.factors:
            assert f.z in allowed


def test_factor_verify_flag_still_checks_structure():
    sampler = Sampler(SampleConfig(nu=3, seed=101))
    w = sampler.word()
    res = factor(word_to_matrix(w), verify=False)
    assert res.word == w


def test_factor_handles_general_constant_tails():
    # Tails may come from the whole constant subgroup, not only diag{1, L}.
    sampler = Sampler(SampleConfig(nu=3, seed=103))
    for _ in range(5):
        w = sampler.word()
        u = word_to_matrix(w)
        v = sampler.constant_unitary().as_matrix_poly().metric_right()  # W.D
        m = u * v
        assert is_j_unitary(m)
        res = factor(m)
        assert res.word == w
        assert res.matrix() == m


def test_factor_of_star_is_reversed_star_word():
    from jumat import star_params, word_reduce

    sampler = Sampler(SampleConfig(nu=3, seed=109))
    for _ in range(5):
        w = sampler.word()
        u = word_to_matrix(w)
        expected = word_reduce([star_params(p) for p in reversed(w.factors)], 3)
        assert factor(u.star()).word == expected


# --- real subgroup report ------------------------------------------------------------

def test_real_subgroup_trivial_at_two():
    report = real_subgroup_report(2, samples=10, seed=5)
    assert report["trivial"] is True
    assert report["tangent_dimensions"] == [0]


def test_real_subgroup_commutative_at_three():
    report = real_subgroup_report(3, samples=10, seed=5)
    assert report["trivial"] is False
    assert report["all_commute"] is True


def test_distinct_direction_generators_need_not_commute():
    sampler = Sampler(SampleConfig(nu=3, mode=Mode.REAL_OMEGA, seed=11))
    found = False
    for _ in range(20):
        a = sampler.member()
        b = sampler.member()
        if a.z == b.z:
            continue
        ga, gb = build_generator(a), build_generator(b)
        if ga * gb != gb * ga:
            found = True
            break
    assert found
