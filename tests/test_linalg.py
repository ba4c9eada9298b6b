from fractions import Fraction

import pytest

from jumat import GaussianRational, IsotropicDirection, SampleConfig, Sampler
from jumat.linalg import (
    as_vector,
    hdot,
    identity_matrix,
    inverse,
    mat_mul,
    matvec,
    metric_vec,
    nullspace,
    outer,
    parallel_coefficient,
    scale_vec,
    zero_matrix,
)
from tests.conftest import rand_scalar, rand_vector

GR = GaussianRational


def test_hdot_conjugates_left_argument():
    a = as_vector([GR(0, 1), GR(1)])
    b = as_vector([GR(1), GR(0, 1)])
    # conj(i)*1 + conj(1)*i = -i + i = 0
    assert hdot(a, b) == GR(0)
    assert hdot(a, a) == GR(2)


def test_outer_is_a_dyad():
    a = as_vector([1, 2])
    b = as_vector([GR(0, 1), GR(3)])
    m = outer(a, b)
    assert m[0][0] == GR(0, -1)
    assert m[1][1] == GR(6)


def test_parallel_examples():
    assert parallel_coefficient(as_vector([1, 1]), as_vector([2, 2])) == GR(2)
    assert parallel_coefficient(as_vector([1, 0]), as_vector([0, 1])) is None
    a = as_vector([GR(1), GR(0, 1)])
    b = as_vector([GR(0, 1), GR(-1)])
    assert parallel_coefficient(a, b) == GR(0, 1)


def test_parallel_zero_vector_convention():
    zero = as_vector([0, 0, 0])
    assert parallel_coefficient(zero, zero) == GR(0)
    assert parallel_coefficient(zero, as_vector([1, 0, 0])) is None


def test_cone_pairing_vanishes_exactly_on_parallel_pairs(rng):
    # For nonzero cone points a, b: a*Db == 0 iff they are parallel.
    sampler = Sampler(SampleConfig(nu=3, seed=99))
    for _ in range(60):
        z1 = sampler.direction()
        z2 = sampler.direction()
        a = scale_vec(rand_scalar(rng, nonzero=True), z1.entries)
        b = scale_vec(rand_scalar(rng, nonzero=True), z2.entries)
        vanishes = not hdot(a, metric_vec(b))
        parallel = parallel_coefficient(a, b) is not None
        assert vanishes == parallel
        assert parallel == (z1 == z2)


def test_nullspace_dimension_and_membership(rng):
    for _ in range(25):
        rows = tuple(rand_vector(rng, 5) for _ in range(2))
        basis = nullspace(rows)
        for v in basis:
            for row in rows:
                assert sum((r * x for r, x in zip(row, v)), GR(0)) == GR(0)
        # Rank + nullity bookkeeping.
        rank = 5 - len(basis)
        assert rank <= 2


def test_inverse_roundtrip(rng):
    for _ in range(20):
        m = tuple(rand_vector(rng, 3) for _ in range(3))
        try:
            minv = inverse(m)
        except ValueError:
            continue  # singular draw
        assert mat_mul(m, minv) == identity_matrix(3)
        assert mat_mul(minv, m) == identity_matrix(3)


def test_mat_mul_matches_entrywise_sums(rng):
    for _ in range(20):
        a = tuple(rand_vector(rng, 2) for _ in range(3))
        b = tuple(rand_vector(rng, 4) for _ in range(2))
        want = tuple(
            tuple(sum((a[i][t] * b[t][j] for t in range(2)), GR(0)) for j in range(4))
            for i in range(3)
        )
        assert mat_mul(a, b) == want
    # A product that cancels to zero keeps its rows x cols shape.
    ones = tuple(as_vector([1, 1]) for _ in range(3))
    kernel = (as_vector([1, 1, 1, 1]), as_vector([-1, -1, -1, -1]))
    assert mat_mul(ones, kernel) == zero_matrix(3, 4)
    with pytest.raises(ValueError):
        mat_mul(ones, ones)


def test_inverse_rejects_singular():
    ones = tuple(as_vector([1, 1]) for _ in range(2))
    with pytest.raises(ValueError):
        inverse(ones)


def test_matvec_and_metric():
    z = IsotropicDirection([1, Fraction(3, 5), Fraction(4, 5)])
    dz = metric_vec(z.entries)
    assert dz[0] == GR(-1)
    assert hdot(z.entries, dz) == GR(0)
    assert matvec(identity_matrix(3), dz) == dz
