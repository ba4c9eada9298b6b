"""Tests of the benchmark itself: python -m pytest perfbench

They use shrunken copies of the workloads, so they run in seconds.
"""

import contextlib
import dataclasses
import os
import random
import shutil

import pytest

import run

run._import_checkout()

from drive import Tally, check_check_output, check_factor_output, cli_env  # noqa: E402
from jumat import Mode, SampleConfig, Sampler, is_j_unitary, word_to_matrix  # noqa: E402
from workloads import WORKLOADS, build_pool, perturb  # noqa: E402


def _small(name, **changes):
    base = WORKLOADS[name]
    changes.setdefault("members_per_config", 3)  # the third gets a non-member twin
    changes.setdefault("trace_ops", 6)
    changes.setdefault("trace_docs", 3)
    return dataclasses.replace(base, **changes)


@pytest.fixture
def workdir():
    path = run.WORKDIR / f"test-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        run.WORKDIR.rmdir()


def _traced_metrics(workload, seed, workdir):
    tally = Tally()
    cases = build_pool(workload, seed, workdir / "pool")
    metrics = run.trace_run(workload, cases, cli_env(run.SRC), tally, [])
    shutil.rmtree(workdir / "pool")
    return metrics, tally


@pytest.mark.parametrize("name", ["sweep", "docs"])
def test_traced_counts_repeat_exactly(name, workdir):
    workload = _small(name)
    first, tally_a = _traced_metrics(workload, 7, workdir)
    second, tally_b = _traced_metrics(workload, 7, workdir)
    assert tally_a.failed == 0 and tally_b.failed == 0, tally_a.notes + tally_b.notes
    assert set(first) == set(run.PER_LAYER_UNITS)
    for key in run.EXACT_COUNTS:
        assert first[key] == second[key], key
    assert first["factor.reduce.steps"] > 0
    assert first["core.matpoly_mul.term_products"] > 0


def test_set_up_is_deterministic_and_answers_are_right(workdir):
    workload = _small("bignum", members_per_config=3)
    a = build_pool(workload, 3, workdir / "a")
    b = build_pool(workload, 3, workdir / "b")
    assert [c.text for c in a] == [c.text for c in b]
    assert [c.text for c in a] != [c.text for c in build_pool(workload, 4, workdir / "c")]
    for case in a:
        assert is_j_unitary(case.matrix) is case.member
        if case.member:
            assert 8 <= case.matrix.degree <= 10


def test_docs_members_are_sampler_matrices():
    cfg = SampleConfig(seed=5, **WORKLOADS["docs"].configs[2])
    reference = Sampler(cfg)
    expected = [reference.matrix() for _ in range(3)]
    sampler = Sampler(cfg)
    for want in expected:
        word = sampler.word()
        unitary = sampler.constant_unitary()
        assert word_to_matrix(word) * unitary.as_matrix_poly() == want


def test_perturbation_always_leaves_the_group():
    rng = random.Random(11)
    for mode in Mode:
        sampler = Sampler(SampleConfig(nu=3, mode=mode, seed=12))
        for _ in range(15):
            m = word_to_matrix(sampler.word())
            assert not is_j_unitary(perturb(m, mode, rng))


def test_output_checks_count_misses(workdir):
    workload = _small("docs")
    cases = build_pool(workload, 2, workdir / "pool")
    members = [c for c in cases if c.member][:2]
    tally = Tally()
    check_factor_output(members, 0, "", "", tally, "t")  # no output at all
    assert tally.failed == 2
    tally = Tally()
    check_factor_output(members, 0, "", "Traceback (most recent call last)", tally, "t")
    assert tally.failed == 2
    mixed = [members[0], next(c for c in cases if not c.member)]
    report = '{"kind": "report", "nu": %d, "report": {"member": true}}'
    out = "".join(report % c.matrix.rows for c in mixed)
    tally = Tally()
    check_check_output(mixed, 1, out, "", tally, "t")  # second verdict is wrong
    assert (tally.attempted, tally.failed) == (2, 1)


def test_percentile_matches_harrell_davis():
    # Reference values from scipy.stats.mstats.hdquantiles.
    values = [(k * 37 % 101) / 7 + (k % 5) ** 2 for k in range(30)]
    assert abs(run.percentile(values, 0.5) - 12.052805) < 1e-5
    assert abs(run.percentile(values, 0.9) - 24.520859) < 1e-5
