"""Seeded input pools for the three benchmark workloads.

Every input is generated with ``jumat.sampling`` and carries its known
answer: a member carries the word and constant tail it was composed from,
a non-member carries the proof that it is not in the group (see
``perturb``).  Each input is also written as a matrix document so that the
CLI can be driven on the same traffic.

Pools are stratified by shape.  A word's shape is its factor count and
its degree, which set most of its cost.  For each sampling configuration
the benchmark fixes a list of shapes once, from a reference stream with a
constant seed: it draws ``oversample`` words per input, sorts them by shape
and keeps every ``oversample``-th shape.  The seeded stream then fills each
shape with the first word drawn that has it.  So every seed gives other
inputs with the same mix of shapes, and the benchmark's figures move little
from seed to seed.  Without this, the sweep's median latency moved by
about 25% between seeds, because the criterion-1 mixture is steep there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from jumat import io as jio
from jumat.group import Mode, Word, word_to_matrix
from jumat.poly import MatrixPolynomial
from jumat.sampling import SampleConfig, Sampler
from jumat.scalars import GaussianRational

# A perturbed twin of every NONMEMBER_EVERY-th member is added, so one input
# in five is a non-member.
NONMEMBER_EVERY = 4
REFERENCE_SEED = 1_000_003  # seeds the streams that fix each pool's shapes
FILL_DRAWS = 5  # draws per input before open shapes take the nearest one


@dataclass(frozen=True)
class Workload:
    """Sampling plan and run shape of one workload."""

    name: str
    configs: tuple  # SampleConfig keyword dicts, seed excluded
    members_per_config: int
    min_degree: int = 0
    max_degree: int | None = None
    oversample: int = 4  # reference words drawn per input to fix the shapes
    with_tail: bool = False  # members are Sampler.matrix(): word times constant
    api_share: float = 0.7  # share of the run spent in the in-process loop
    cli_batch: int = 25  # documents per CLI invocation
    trace_ops: int = 40  # inputs factored in a traced run
    trace_docs: int = 12  # documents per traced CLI command


def _sweep_configs():
    return tuple(
        dict(nu=nu, mode=mode, max_factors=6, max_phase_degree=3,
             max_tangent_degree=3, coefficient_height=1000)
        for nu in (2, 3, 4)
        for mode in (Mode.COMPLEX, Mode.REAL_OMEGA, Mode.REAL_LAMBDA)
    )


WORKLOADS = {
    # The criterion-1 distribution: many small-entry round trips, where
    # Python object overhead is a large share of the time.
    "sweep": Workload(
        name="sweep",
        configs=_sweep_configs(),
        members_per_config=30,
        trace_ops=45,
    ),
    # Large coefficients at degree 8-10: bignum multiplication in the
    # matrix-polynomial kernel dominates.
    "bignum": Workload(
        name="bignum",
        configs=(
            dict(nu=4, mode=Mode.COMPLEX, max_factors=4, max_phase_degree=4,
                 max_tangent_degree=3, coefficient_height=10**6),
        ),
        members_per_config=100,
        min_degree=8,
        max_degree=10,
        oversample=1,
        cli_batch=8,
        trace_ops=10,
        trace_docs=4,
    ),
    # Sampler.matrix() documents, a word times a constant tail; the run is
    # mostly CLI batches (parse, dump, start-up, pool).
    "docs": Workload(
        name="docs",
        configs=tuple(
            dict(nu=nu, mode=mode)  # SampleConfig's default sizes
            for nu in (3, 4)
            for mode in (Mode.COMPLEX, Mode.REAL_OMEGA, Mode.REAL_LAMBDA)
        ),
        members_per_config=30,
        with_tail=True,
        api_share=0.5,
        cli_batch=50,
        trace_ops=36,
    ),
}


@dataclass(frozen=True)
class Case:
    """One input with its known answer and its document."""

    mode: Mode
    var: str
    matrix: MatrixPolynomial
    member: bool
    word: Word | None  # expected reduced word (members only)
    tail: tuple | None  # expected constant tail matrix (members only)
    text: str  # the matrix document
    path: Path


def _degree(word: Word) -> int:
    """Degree of the word's matrix, read off the parameter lengths.

    A factor's degree is deg(phase - g*g/2).  The top coefficient of g*g is
    |g_top|^2 > 0, real, while phase coefficients are imaginary, so the two
    never cancel at the top: the degree is max(deg phase, 2 deg g).
    """
    return sum(max(len(f.phase.rhos), 2 * len(f.tangent.coeffs))
               for f in word.factors)


def _shape(word: Word):
    return len(word.factors), _degree(word)


def _draws(workload: Workload, cfg: SampleConfig):
    """Endless (word, tail unitary) draws within the workload's degree range,
    made with the same calls in the same order as Sampler.matrix()."""
    sampler = Sampler(cfg)
    while True:
        word = sampler.word()
        unitary = sampler.constant_unitary() if workload.with_tail else None
        degree = _degree(word)
        if degree < workload.min_degree:
            continue
        if workload.max_degree is not None and degree > workload.max_degree:
            continue
        yield word, unitary


_SHAPES = {}


def pool_shapes(workload: Workload) -> tuple:
    """Per configuration, the shapes of its inputs; the same for every seed."""
    key = (tuple(tuple(sorted(c.items())) for c in workload.configs),
           workload.members_per_config, workload.oversample,
           workload.min_degree, workload.max_degree, workload.with_tail)
    if key not in _SHAPES:
        shapes = []
        for index, options in enumerate(workload.configs):
            cfg = SampleConfig(seed=REFERENCE_SEED + index, **options)
            draws = _draws(workload, cfg)
            step = workload.oversample
            drawn = sorted(_shape(next(draws)[0])
                           for _ in range(workload.members_per_config * step))
            shapes.append(tuple(drawn[step // 2::step]))
        _SHAPES[key] = tuple(shapes)
    return _SHAPES[key]


def _fill(shapes, draws, limit):
    """Take, for each shape, the first draw that has it.  Shapes still open
    after ``limit`` draws take the unused draw of the nearest shape."""
    open_slots = {}
    for slot, shape in enumerate(shapes):
        open_slots.setdefault(shape, []).append(slot)
    filled = [None] * len(shapes)
    spare = []
    for _ in range(limit):
        if not open_slots:
            break
        word, unitary = next(draws)
        slots = open_slots.get(_shape(word))
        if slots:
            filled[slots.pop()] = (word, unitary)
            if not slots:
                del open_slots[_shape(word)]
        else:
            spare.append((word, unitary))
    for shape, slots in open_slots.items():
        for slot in slots:
            nearest = min(range(len(spare)), key=lambda k: (
                abs(_shape(spare[k][0])[0] - shape[0]),
                abs(_shape(spare[k][0])[1] - shape[1]), k))
            filled[slot] = spare.pop(nearest)
    return filled


def perturb(matrix: MatrixPolynomial, mode: Mode, rng: random.Random):
    """Change one entry of one coefficient so that the result is no member.

    Adding delta at (i, j) of coefficient k changes the coefficient of
    w^(2k) in entry (i, i) of U D U* by d_j (2 Re(conj(a) delta) + |delta|^2),
    with a the old entry and d_j = +-1 the metric sign: U D U* gains no other
    term at that power.  For a member that coefficient of U D U* - D is 0, so
    any delta keeping the sum nonzero gives a non-member; when a delta fails,
    2 delta gives 2|delta|^2 != 0.  delta is real at even powers and, in the
    real_lambda regime, imaginary at odd powers, so the mode still holds
    and the rejection has to come from the group structure.  An integer
    delta leaves the entry's denominator alone, so a non-member costs about
    as much to test as the member it came from.
    """
    mats = [list(map(list, matrix.coefficient(k)))
            for k in range(max(matrix.degree, 0) + 1)]
    n = matrix.rows
    k = rng.randrange(len(mats))
    i = rng.randrange(n)
    j = rng.randrange(n)
    delta = GaussianRational(rng.choice((-1, 1)))
    if mode is Mode.REAL_LAMBDA and k % 2:
        delta = delta * GaussianRational(0, 1)
    a = mats[k][i][j]
    if not ((a.conjugate() * delta).re * 2 + delta.abs2()):
        delta = delta * 2
    mats[k][i][j] = a + delta
    return MatrixPolynomial(n, n, mats)


def build_pool(workload: Workload, seed: int, docdir: Path) -> list:
    """Generate the workload's inputs for ``seed`` and write their documents."""
    rng = random.Random(seed * 1000 + 999)
    pool = []  # (mode, matrix, expected word, expected tail)
    for index, (options, shapes) in enumerate(zip(workload.configs,
                                                  pool_shapes(workload))):
        cfg = SampleConfig(seed=seed * 1000 + index, **options)
        chosen = _fill(shapes, _draws(workload, cfg), FILL_DRAWS * len(shapes))
        for rank, (word, unitary) in enumerate(chosen):
            matrix = word_to_matrix(word)
            if max(matrix.degree, 0) != _degree(word):
                raise AssertionError("word degree differs from its matrix degree")
            if unitary is None:
                tail = matrix.coefficient(0)
            else:
                matrix = matrix * unitary.as_matrix_poly()
                tail = unitary.matrix
            pool.append((cfg.mode, matrix, word, tail))
            # Shapes are sorted, so the twins span the members' range of sizes.
            if rank % NONMEMBER_EVERY == NONMEMBER_EVERY // 2:
                pool.append((cfg.mode, perturb(matrix, cfg.mode, rng), None, None))
    rng.shuffle(pool)
    docdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for position, (mode, matrix, word, tail) in enumerate(pool):
        var = "lambda" if mode is Mode.REAL_LAMBDA else "omega"
        text = jio.dumps(jio.matrix_document(matrix, mode, var))
        path = docdir / f"{position:04d}.json"
        path.write_text(text, encoding="utf-8")
        cases.append(Case(mode, var, matrix, word is not None, word, tail, text, path))
    return cases
