"""Constructive factorization into the unique normal form.

Membership tests, the split into a normalized part and a constant tail,
and the degree-reduction engine: any normalized member of positive degree
can be strictly lowered in degree by multiplying with one elementary
generator on the right or on the left.  Iterating the reduction and
inverting the collected multipliers yields the reduced word, which is
unique for the input matrix.

All quantities are produced by exact field operations, so there is no
tolerance anywhere.  Every structural identity the algorithm relies on is
tested by an explicit check that raises NotInGroupError, so a non-member
is rejected at the stage that fails, with or without assertions.

Left reductions are routed through the star involution: star maps the
group to itself and swaps the two sides, and star(G_z(phase, g)) is the
generator over -Dz with the negated phase and the same tangent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from jumat.group import (
    GeneratorParams,
    IsotropicDirection,
    Mode,
    PhasePoly,
    TangentPoly,
    Word,
    build_generator,
    in_tangent_space,
    invert,
    matrix_fits_mode,
    star_params,
    tangent_space_basis,
    word_degree,
    word_reduce,
    word_to_matrix,
)
from jumat.linalg import (
    hdot,
    identity_matrix,
    is_zero_matrix,
    is_zero_vector,
    mat_mul,
    mat_scale,
    mat_sub,
    matvec,
    metric_matrix,
    metric_rows,
    metric_vec,
    outer,
    parallel_coefficient,
    row_apply,
    scale_vec,
    star_matrix,
    sub_vec,
)
from jumat.poly import MatrixPolynomial
from jumat.scalars import GaussianRational


class NotInGroupError(ValueError):
    """The input is not a member of the matrix group under study."""


def is_j_unitary(u: MatrixPolynomial) -> bool:
    """Exact membership test U.D.U* == D.

    Over square matrices the one-sided identity forces the two-sided one:
    U.(D.U*.D) = I makes D.U*.D a right inverse of U, hence a two-sided one.
    """
    if not u.is_square():
        raise ValueError("membership requires a square matrix")
    d = MatrixPolynomial.constant(metric_matrix(u.rows))
    return u.metric_right() * u.star() == d


class ConstantJUnitary:
    """Degree-0 member: constant V with V.D.V* = D."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = tuple(tuple(GaussianRational(x) for x in row) for row in matrix)
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("expected a square matrix")
        d = metric_matrix(n)
        if mat_mul(mat_mul(matrix, d), star_matrix(matrix)) != d:
            raise NotInGroupError("constant matrix fails the metric identity")
        self.matrix = matrix

    @classmethod
    def identity(cls, nu: int) -> ConstantJUnitary:
        return cls(identity_matrix(nu))

    @property
    def nu(self) -> int:
        return len(self.matrix)

    def inverse_matrix(self) -> tuple:
        # V^-1 = D V* D, exact.
        return metric_rows(tuple(metric_vec(row) for row in star_matrix(self.matrix)))

    def inverse(self) -> ConstantJUnitary:
        return ConstantJUnitary(self.inverse_matrix())

    def as_matrix_poly(self) -> MatrixPolynomial:
        return MatrixPolynomial.constant(self.matrix)

    def is_identity(self) -> bool:
        return self.matrix == identity_matrix(self.nu)

    def __eq__(self, other):
        return isinstance(other, ConstantJUnitary) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"ConstantJUnitary(nu={self.nu})"


def split_constant(u: MatrixPolynomial):
    """Unique split U = U0 . V with U0(0) = I and V = U(0) constant.

    Raises NotInGroupError only when U(0) is not J-unitary; U itself is
    not tested.  Membership of U is decided by ``factor``, which reduces
    U0 to exactly I, or by ``is_j_unitary``.
    """
    tail = ConstantJUnitary(u.coefficient(0))
    if tail.is_identity():
        return u, tail
    return u * MatrixPolynomial.constant(tail.inverse_matrix()), tail


def dyad_extract(x):
    """Factor a doubly isotropic constant matrix as alpha . D y z*.

    Requires x != 0 with x.D.x* = x*.D.x = 0; both normalized directions
    are well defined because nonzero isotropic vectors have nonzero first
    components.  Raises when the input lacks the structure, which signals
    that it is not the leading coefficient of a group member.
    """
    n = len(x)
    if is_zero_matrix(x):
        raise NotInGroupError("dyad extraction of the zero matrix")
    d = metric_matrix(n)
    if not is_zero_matrix(mat_mul(mat_mul(x, d), star_matrix(x))) or not is_zero_matrix(
        mat_mul(mat_mul(star_matrix(x), d), x)
    ):
        raise NotInGroupError("matrix is not doubly isotropic")
    m = metric_rows(x)  # alpha y z* if the structure holds
    pivot = None
    for i in range(n):
        for j in range(n):
            if m[i][j]:
                pivot = (i, j)
                break
        if pivot:
            break
    i0, j0 = pivot
    col = tuple(m[i][j0] for i in range(n))
    row = tuple(m[i0][j] / m[i0][j0] for j in range(n))
    for i in range(n):
        for j in range(n):
            if m[i][j] != col[i] * row[j]:
                raise NotInGroupError("matrix is not a dyad")
    if not col[0] or not row[0]:
        raise NotInGroupError("dyad factors have vanishing first components")
    try:
        y = IsotropicDirection(scale_vec(1 / col[0], col))
        z = IsotropicDirection(tuple((r / row[0]).conjugate() for r in row))
    except ValueError as exc:
        raise NotInGroupError(f"dyad factors are not isotropic: {exc}") from exc
    alpha = col[0] * row[0]
    assert x == mat_scale(alpha, outer(metric_vec(y.entries), z.entries))
    return alpha, y, z


def reduction_indices(coeffs, y, z):
    """Scan leading-first coefficients for the three reduction indices.

    ``coeffs[i]`` is the coefficient of power (degree - i).  Returns
    (run, right_stop, left_stop): ``run`` is the length of the initial
    run of coefficients proportional to the dyad D y z* (zero matrices
    count, with factor 0); ``right_stop`` is the first index at or beyond
    the run whose product with Dz is nonzero, ``left_stop`` the first
    whose product with y* is nonzero.  All three are at most the degree.
    """
    kappa = len(coeffs) - 1
    dyz = outer(metric_vec(y.entries), z.entries)
    flat_dyz = tuple(e for r in dyz for e in r)
    run = 1
    while run <= kappa:
        flat = tuple(e for r in coeffs[run] for e in r)
        if parallel_coefficient(flat_dyz, flat) is None:
            break
        run += 1
    if run > kappa:
        # The constant coefficient of a normalized member is I, never a dyad.
        raise NotInGroupError("every coefficient is proportional to the top dyad")
    dz = metric_vec(z.entries)
    right_stop = None
    for i in range(run, kappa + 1):
        if not is_zero_vector(matvec(coeffs[i], dz)):
            right_stop = i
            break
    left_stop = None
    for i in range(run, kappa + 1):
        if not is_zero_vector(row_apply(y.entries, coeffs[i])):
            left_stop = i
            break
    if right_stop is None or left_stop is None:
        raise NotInGroupError("scan found no active coefficient")
    return run, right_stop, left_stop


def three_dyad_split(x, y, z):
    """Decompose x as D(r z* - y s* + alpha y z*) with s, r tangent vectors.

    The recovery is forced by the pairings with y and z; the reassembled
    matrix is compared exactly, and s (resp. r) is verified to lie in the
    tangent space of z (resp. y).
    """
    ny = hdot(y.entries, y.entries)
    nz = hdot(z.entries, z.entries)
    m = metric_rows(x)  # r z* - y s* + alpha y z*
    if not is_zero_vector(matvec(x, metric_vec(z.entries))):
        raise NotInGroupError("three-dyad split: x D z must vanish")
    ym = row_apply(y.entries, m)
    mz = matvec(m, z.entries)
    alpha = hdot(y.entries, mz) / (ny * nz)
    s_star = tuple(
        alpha * zj.conjugate() - ymj / ny
        for zj, ymj in zip(z.entries, ym)
    )
    s = tuple(t.conjugate() for t in s_star)
    r = sub_vec(scale_vec(1 / nz, mz), scale_vec(alpha, y.entries))
    rebuilt = mat_sub(outer(r, z.entries), outer(y.entries, s))
    rebuilt = tuple(
        tuple(a + alpha * b for a, b in zip(ra, rb))
        for ra, rb in zip(rebuilt, outer(y.entries, z.entries))
    )
    if metric_rows(rebuilt) != x:
        raise NotInGroupError("three-dyad split failed to reassemble")
    if not in_tangent_space(s, z) or not in_tangent_space(r, y):
        raise NotInGroupError("three-dyad split produced non-tangent parts")
    return r, s, alpha


@dataclass(frozen=True)
class ReductionStep:
    """One recorded degree-reduction: which side, which branch, which factor."""

    side: str  # "left" | "right"
    branch: str  # "phase" | "tangent"
    params: GeneratorParams
    run: int
    right_stop: int
    left_stop: int
    degree_before: int
    degree_after: int


def _phase_move(coeffs, alpha0, y, z, stop, mode):
    """Right multiplier when the dyadic run is long: a pure phase monomial."""
    v = matvec(coeffs[stop], metric_vec(z.entries))
    c = parallel_coefficient(metric_vec(y.entries), v)
    if c is None or not c:
        raise NotInGroupError("phase reduction: expected parallel column products")
    rho = GaussianRational(0, 1) * alpha0 / c
    if not rho.is_real():
        raise NotInGroupError("phase reduction: coefficient is not real")
    try:
        phase = PhasePoly.monomial(rho.re, stop, mode=mode)
    except ValueError as exc:
        raise NotInGroupError(f"phase reduction violates the mode: {exc}") from exc
    return GeneratorParams(z, phase, TangentPoly.zero(z))


def _tangent_move(coeffs, alpha0, y, z, run, s, mode):
    """Right multiplier in the balanced case: tangent monomial plus phase.

    The parameters are chosen so that the combined contribution at the
    top power cancels exactly; the scalar annihilation condition is
    asserted before the multiplier is built.
    """
    s0 = scale_vec(1 / alpha0.conjugate(), s)
    w = matvec(coeffs[2 * run], metric_vec(z.entries))
    p = scale_vec(alpha0, metric_vec(y.entries))
    c = parallel_coefficient(p, w)
    if c is None:
        raise NotInGroupError("tangent reduction: expected parallel column products")
    sigma0, rho0 = c.re, c.im
    norm_s0 = hdot(s0, s0).re
    if sigma0 != -norm_s0 / 2:
        raise NotInGroupError("tangent reduction: real part mismatch")
    if not rho0:
        rho = Fraction(0)
        theta = GaussianRational(Fraction(-2) / norm_s0)
    else:
        denom = rho0 * rho0 + (norm_s0 / 2) ** 2
        theta = GaussianRational(-norm_s0 / 2, rho0) / denom
        rho = (1 + theta * (norm_s0 / 2)).abs2() / rho0
    d_vec = scale_vec(theta, s0)
    eps = (
        1
        + hdot(s0, d_vec)
        + GaussianRational(-norm_s0 / 2, rho0)
        * (GaussianRational(0, rho) - hdot(d_vec, d_vec).re / 2)
    )
    if eps:
        raise NotInGroupError("tangent reduction: annihilation condition fails")
    try:
        phase = (
            PhasePoly.monomial(rho, 2 * run, mode=mode)
            if rho
            else PhasePoly((), mode=mode)
        )
        tangent = TangentPoly.monomial(z, d_vec, run, mode=mode)
    except ValueError as exc:
        raise NotInGroupError(f"tangent reduction violates the mode: {exc}") from exc
    return GeneratorParams(z, phase, tangent)


def _leading_first(u: MatrixPolynomial):
    kappa = u.degree
    return [u.coefficient(kappa - i) for i in range(kappa + 1)]


def _right_move(u: MatrixPolynomial, mode: Mode):
    """The right multiplier lowering deg(u), or None when only a left one exists."""
    coeffs = _leading_first(u)
    alpha0, y, z = dyad_extract(coeffs[0])
    run, right_stop, left_stop = reduction_indices(coeffs, y, z)
    if right_stop < 2 * run:
        return _phase_move(coeffs, alpha0, y, z, right_stop, mode), "phase", (
            run,
            right_stop,
            left_stop,
        )
    if left_stop < 2 * run:
        return None, "phase", (run, right_stop, left_stop)
    r, s, _ = three_dyad_split(coeffs[run], y, z)
    if not is_zero_vector(s):
        return _tangent_move(coeffs, alpha0, y, z, run, s, mode), "tangent", (
            run,
            right_stop,
            left_stop,
        )
    if not is_zero_vector(r):
        return None, "tangent", (run, right_stop, left_stop)
    raise NotInGroupError(
        "no reduction applies: the coefficient run should have been longer"
    )


def reduce_once(u: MatrixPolynomial, mode: Mode = Mode.COMPLEX):
    """One strict degree reduction of a normalized member.

    Returns (u', step) with deg(u') < deg(u): either u' = u . G for a
    right step or u' = G . u for a left step, G built from step.params.
    Left steps are computed by reducing star(u) on the right and
    translating the multiplier back through the star identity.
    """
    if not u.is_square():
        raise ValueError("reduction requires a square matrix")
    kappa = u.degree
    if kappa is None or kappa == float("-inf") or kappa <= 0:
        raise ValueError("reduction requires positive degree")
    if u.coefficient(0) != identity_matrix(u.rows):
        raise NotInGroupError("reduction requires a normalized member (U(0) = I)")

    move, branch, indices = _right_move(u, mode)
    if move is not None:
        side = "right"
        params = move
        reduced = u * build_generator(params)
    else:
        starred = u.star()
        move_s, branch, indices_s = _right_move(starred, mode)
        if move_s is None:
            raise NotInGroupError("no reduction applies on either side")
        side = "left"
        params = star_params(move_s)
        reduced = build_generator(params) * u
        # Report the scan of u itself: star swaps the two stop indices.
        indices = (indices_s[0], indices_s[2], indices_s[1])
    run, right_stop, left_stop = indices
    after = reduced.degree
    if after is None or not after < kappa:
        raise NotInGroupError("reduction failed to decrease the degree")
    step = ReductionStep(
        side=side,
        branch=branch,
        params=params,
        run=run,
        right_stop=right_stop,
        left_stop=left_stop,
        degree_before=kappa,
        degree_after=after if after != float("-inf") else 0,
    )
    return reduced, step


@dataclass(frozen=True)
class FactorizationResult:
    """Reduced word, constant tail, and the audit trail of reduction steps."""

    word: Word
    tail: ConstantJUnitary
    steps: tuple

    def matrix(self) -> MatrixPolynomial:
        return word_to_matrix(self.word) * self.tail.as_matrix_poly()


def factor(
    u: MatrixPolynomial, mode: Mode = Mode.COMPLEX, verify: bool = True
) -> FactorizationResult:
    """Full factorization into the unique reduced word times a constant.

    Splits off the constant tail, reduces the normalized part to the
    identity one generator at a time, and reassembles the inverses of the
    recorded multipliers: left steps in application order, then right
    steps reversed.  The reduced word is unique for the input, the sum of
    factor degrees equals the input degree, and (when ``verify`` is on)
    the product of the result is compared with the input bit for bit.
    """
    if not u.is_square():
        raise ValueError("factorization requires a square matrix")
    if not matrix_fits_mode(u, mode):
        raise NotInGroupError(f"coefficients violate mode {mode.value}")
    u0, tail = split_constant(u)
    initial_degree = u0.degree
    if initial_degree == float("-inf"):
        initial_degree = 0
    steps: list = []
    lefts: list = []
    rights: list = []
    current = u0
    while current.degree not in (float("-inf"), 0):
        current, step = reduce_once(current, mode)
        steps.append(step)
        (lefts if step.side == "left" else rights).append(step)
    if current != MatrixPolynomial.identity(u.rows):
        raise NotInGroupError("reduction terminated away from the identity")
    sequence = [invert(s.params) for s in lefts]
    sequence += [invert(s.params) for s in reversed(rights)]
    word = word_reduce(sequence, u.rows)
    for f in word.factors:
        if not f.fits_mode(mode):
            raise NotInGroupError(f"factor violates mode {mode.value}")
    assert word_degree(word) == initial_degree
    result = FactorizationResult(word=word, tail=tail, steps=tuple(steps))
    if verify and result.matrix() != u:
        raise NotInGroupError("reconstruction mismatch after factorization")
    return result


def real_subgroup_report(nu: int, samples: int = 20, seed: int = 0) -> dict:
    """Structure report for the real-coefficient subgroup.

    For nu = 2 the normalized real subgroup is trivial: sampled directions
    all have empty tangent spaces and no nonzero real phase exists.  For
    nu > 2 random same-direction real generator pairs are multiplied both
    ways and compared exactly.
    """
    from jumat.sampling import SampleConfig, Sampler

    cfg = SampleConfig(nu=nu, mode=Mode.REAL_OMEGA, seed=seed)
    sampler = Sampler(cfg)
    tangent_dims = []
    for _ in range(samples):
        z = sampler.direction()
        tangent_dims.append(len(tangent_space_basis(z)))
    report = {
        "nu": nu,
        "mode": Mode.REAL_OMEGA.value,
        "phase_space_trivial": True,
        "tangent_dimensions": sorted(set(tangent_dims)),
        "trivial": nu == 2,
    }
    if nu == 2:
        assert all(d == 0 for d in tangent_dims)
        report["commuting_pairs_checked"] = 0
        report["all_commute"] = True
        return report
    commute = True
    for _ in range(samples):
        z = sampler.direction()
        a = sampler.member(z)
        b = sampler.member(z)
        ab = build_generator(a) * build_generator(b)
        ba = build_generator(b) * build_generator(a)
        if ab != ba:
            commute = False
            break
    report["commuting_pairs_checked"] = samples
    report["all_commute"] = commute
    return report
