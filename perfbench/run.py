#!/usr/bin/env python3
"""Layered benchmark of jumat: end-to-end metrics, or per-layer ones traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--workload`` is sweep, bignum or docs (see README.md), or ``all`` to run
the three in turn.  With ``--trace 0`` the run measures the end-to-end
metrics for ``--seconds``; with ``--trace 1`` it factors a fixed list of
inputs twice, untraced and traced, and reports per-layer metrics whose
counts repeat exactly for a seed.  Every outcome is checked against a known
answer.  Human-readable lines come first; the last line of standard output
is one JSON object.  The exit code is 0 only when every outcome was right.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 3
STARTUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "factor_per_s": "1/s",
    "factor_ms_p50": "ms",
    "factor_ms_p90": "ms",
    "reject_ms_p50": "ms",
    "cli_factor_docs_per_s": "1/s",
    "cli_check_docs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.matpoly_mul.calls": "count",
    "core.matpoly_mul.self_s": "s",
    "core.matpoly_mul.term_products": "count",
    "core.matpoly_mul.max_bits": "bits",
    "core.canon.calls": "count",
    "scalars.ops.calls": "count",
    "scalars.self_s": "s",
    "linalg.calls": "count",
    "linalg.self_s": "s",
    "poly.mul.calls": "count",
    "poly.eval.calls": "count",
    "poly.eval.self_s": "s",
    "poly.self_s": "s",
    "group.build_generator.calls": "count",
    "group.build_generator.self_s": "s",
    "group.word_reduce.self_s": "s",
    "group.word_to_matrix.s": "s",
    "factor.s": "s",
    "factor.membership.s": "s",
    "factor.reduce.steps": "count",
    "factor.scan.s": "s",
    "factor.apply.s": "s",
    "factor.verify.s": "s",
    "factor.scan.yield": "ratio",
    "io.parse.s": "s",
    "io.parse.bytes": "B",
    "io.dump.s": "s",
    "io.dump.bytes": "B",
    "cli.startup_s": "s",
    "cli.pool_speedup": "ratio",
    "trace.overhead": "ratio",
}
# Metrics that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bits", "B")
)


def _import_checkout():
    """Import jumat from this checkout's src/ and nowhere else."""
    if not (SRC / "jumat" / "__init__.py").is_file():
        raise SystemExit(f"error: no jumat package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("JUMAT_BACKEND", None)
    start = time.perf_counter()
    import jumat
    import jumat.cli  # noqa: F401  (the CLI layer is part of set-up)

    import_s = time.perf_counter() - start
    expected = (SRC / "jumat" / "__init__.py").resolve()
    if Path(jumat.__file__).resolve() != expected:
        raise SystemExit(f"error: imported {jumat.__file__}, expected {expected}")
    return import_s


def _cli_package_file(env):
    out = subprocess.run(
        [sys.executable, "-c", "import jumat; print(jumat.__file__)"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=True,
    ).stdout.strip()
    return str(Path(out).resolve())


def _git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "jumat").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(workload, seed):
    import jumat

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": jumat.BACKEND,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "jumat_file": str(Path(jumat.__file__).resolve()),
    }


def _fingerprint(cases):
    return [(c.text, c.member, c.word) for c in cases]


def set_up(workload, seed, workdir):
    """Build the input pool SETUP_REPEATS times; all builds must agree."""
    from workloads import build_pool, pool_shapes

    pool_shapes(workload)  # a constant of the benchmark, not part of set-up
    times = []
    reference = None
    deterministic = True
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases = build_pool(workload, seed, workdir / f"setup{repeat}")
        times.append(time.perf_counter() - start)
        if reference is None:
            reference = _fingerprint(cases)
        elif _fingerprint(cases) != reference:
            deterministic = False
    return cases, times, deterministic


def percentile(values, p):
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of the order statistics with Beta(p(n+1), (1-p)(n+1))
    weights.  Latencies of the pools cluster by word shape, and a single
    order statistic jumps between clusters from seed to seed; this estimate
    moves smoothly.  The weights are integrated with Simpson's rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t))

    steps = 16
    h = 1 / (n * steps)
    total = weighted = 0.0
    for i, x in enumerate(xs):
        lo = i / n
        w = density(lo) + density(lo + 1 / n)
        w += sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        total += w
        weighted += w * x
    return weighted / total


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def measure(workload, cases, seconds, env, tally):
    from drive import api_loop, cli_loop

    # The input pool is benchmark data, not program state: keep the garbage
    # collector from walking it during the timed loops.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    latencies = api_loop(cases, workload.api_share * seconds, tally)
    cases, latencies = zip(*[(c, t) for c, t in zip(cases, latencies) if t is not None])
    rates = cli_loop(cases, latencies, start + seconds, workload.cli_batch, env, ROOT,
                     tally)
    member = [t for c, t in zip(cases, latencies) if c.member]
    rejected = [t for c, t in zip(cases, latencies) if not c.member]
    metrics = {
        "factor_per_s": len(member) / sum(member),
        "factor_ms_p50": percentile(member, 0.5) * 1e3,
        "factor_ms_p90": percentile(member, 0.9) * 1e3,
        "reject_ms_p50": percentile(rejected, 0.5) * 1e3,
        "cli_factor_docs_per_s": rates["factor"],
        "cli_check_docs_per_s": rates["check"],
    }
    samples = {"factor_ms_p50": len(member), "factor_ms_p90": len(member),
               "reject_ms_p50": len(rejected)}
    return metrics, samples


def _run_cli_in_process(argv):
    from jumat.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def trace_run(workload, cases, env, tally, report):
    """Per-layer metrics from a traced pass over a fixed list of inputs."""
    from drive import (check_check_output, check_factor_output, expected_outcome,
                       factor_outcome, run_cli)
    from spans import Tracer

    ops = cases[: workload.trace_ops]
    members = [c for c in cases if c.member]
    factor_docs = members[: workload.trace_docs]
    check_docs = cases[: workload.trace_docs]

    start = time.perf_counter()
    untraced = [factor_outcome(c) for c in ops]
    untraced_s = time.perf_counter() - start
    for k, (case, outcome) in enumerate(zip(ops, untraced)):
        tally.record(outcome == expected_outcome(case), f"untraced input {k}")

    # The compose step of set-up, for the members among the traced inputs.
    with Tracer() as compose:
        for case in ops:
            if case.member:
                sys.modules["jumat.group"].word_to_matrix(case.word)

    with Tracer() as api:
        start = time.perf_counter()
        traced = [factor_outcome(c) for c in ops]
        traced_s = time.perf_counter() - start
    for k, (before, after) in enumerate(zip(untraced, traced)):
        tally.record(before == after, f"traced input {k} differs from untraced")

    with Tracer() as cli:
        factor_run = _run_cli_in_process(
            ["factor", "--trace", *[str(c.path) for c in factor_docs]])
        check_run = _run_cli_in_process(["check", *[str(c.path) for c in check_docs]])
    check_factor_output(factor_docs, *factor_run, tally, "in-process")
    check_check_output(check_docs, *check_run, tally, "in-process")

    startup = []
    for _ in range(STARTUP_REPEATS):
        wall, code, _, err = run_cli(["--help"], env, ROOT)
        tally.record(code == 0 and not err, "cli --help")
        startup.append(wall)
    walls = {}
    for jobs in (1, 2):
        wall, *outcome = run_cli(
            ["factor", "--trace", "--jobs", str(jobs), *[str(c.path) for c in factor_docs]],
            env, ROOT)
        check_factor_output(factor_docs, *outcome, tally, f"jobs={jobs}")
        walls[jobs] = wall

    # Untimed record of a known defect: one non-member aborts a factor batch.
    probe = members[:3] + [next(c for c in cases if not c.member)]
    _, code, out, _ = run_cli(["factor", *[str(c.path) for c in probe]], env, ROOT)
    report.append(f"probe: factor batch of {len(probe)} documents, last one a "
                  f"non-member: exit {code}, {len(out.encode())} bytes on stdout")

    reduce_calls = api.calls("factor.reduce_once")
    metrics = {
        "core.matpoly_mul.calls": api.calls("core.matpoly_mul"),
        "core.matpoly_mul.self_s": api.self_s("core.matpoly_mul"),
        "core.matpoly_mul.term_products": api.counts["core.matpoly_mul.term_products"],
        "core.matpoly_mul.max_bits": api.counts["core.matpoly_mul.max_bits"],
        "core.canon.calls": api.counts["core.canon"],
        "scalars.ops.calls": api.calls("scalars."),
        "scalars.self_s": api.self_s("scalars."),
        "linalg.calls": api.calls("linalg."),
        "linalg.self_s": api.self_s("linalg."),
        "poly.mul.calls": api.calls("poly.MatrixPolynomial.__mul__"),
        "poly.eval.calls": api.calls("poly.MatrixPolynomial.__call__"),
        "poly.eval.self_s": api.self_s("poly.MatrixPolynomial.__call__"),
        "poly.self_s": api.self_s("poly."),
        "group.build_generator.calls": api.calls("group.build_generator"),
        "group.build_generator.self_s": api.self_s("group.build_generator"),
        "group.word_reduce.self_s": api.self_s("group.word_reduce"),
        "group.word_to_matrix.s": compose.total_s("group.word_to_matrix"),
        "factor.s": api.total_s("factor.factor"),
        "factor.membership.s": api.total_s("factor.is_j_unitary"),
        "factor.reduce.steps": reduce_calls,
        "factor.scan.s": sum(api.total_s(f"factor.{name}") for name in
                             ("dyad_extract", "reduction_indices", "three_dyad_split")),
        "factor.apply.s": api.child_total_s(
            {"group.build_generator", "poly.MatrixPolynomial.__mul__"},
            "factor.reduce_once"),
        "factor.verify.s": api.child_total_s(
            {"factor.FactorizationResult.matrix"}, "factor.factor"),
        "factor.scan.yield": reduce_calls / max(api.calls("factor.dyad_extract"), 1),
        "io.parse.s": cli.total_s("io.parse_document"),
        "io.parse.bytes": cli.counts["io.parse.bytes"],
        "io.dump.s": sum(cli.total_s(f"io.{name}") for name in
                         ("dumps", "word_document", "report_document", "matrix_document")),
        "io.dump.bytes": cli.counts["io.dump.bytes"],
        "cli.startup_s": statistics.median(startup),
        "cli.pool_speedup": walls[1] / walls[2],
        "trace.overhead": traced_s / untraced_s,
    }
    report.append(f"traced: {len(ops)} inputs, {len(api.spans)} spans, "
                  f"{untraced_s:.3f} s untraced, {traced_s:.3f} s traced")
    return metrics


def run_one(name, seed, seconds, traced, import_s):
    """One run of one workload; returns (result dict, report lines)."""
    from drive import Tally, cli_env
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    env = cli_env(SRC)
    report = []
    tally = Tally()
    workdir = WORKDIR / f"{name}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    try:
        cases, setup_times, deterministic = set_up(workload, seed, workdir)
        tally.record(deterministic, "set-up is not deterministic")
        cli_file = _cli_package_file(env)
        tally.record(cli_file == str((SRC / "jumat" / "__init__.py").resolve()),
                     f"CLI imports {cli_file}")
        report.append(f"set-up: {len(cases)} inputs, "
                      f"{sum(c.member for c in cases)} members, times "
                      + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
        if traced:
            metrics = trace_run(workload, cases, env, tally, report)
            units = PER_LAYER_UNITS
            samples = {}
        else:
            metrics, samples = measure(workload, cases, seconds, env, tally)
            metrics["setup_s"] = import_s + statistics.median(setup_times)
            metrics["peak_rss_mb"] = _peak_rss_mb()
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # only when no other run is using it
    for metric, unit in units.items():
        line = f"{name:>7} {metric:<32} {metrics[metric]:>16.6g} {unit}"
        if metric in samples:
            line += f" (n={samples[metric]})"
        report.append(line)
    report.append(f"{name:>7} {'failed_frac':<32} {tally.failed / tally.attempted:>16.6g} "
                  f"({tally.failed}/{tally.attempted})")
    report.extend(f"failure: {note}" for note in tally.notes)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "bignum", "docs", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_checkout()

    names = ("sweep", "bignum", "docs") if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print("# stamp " + json.dumps(stamp(name, args.seed)), flush=True)
        result, report = run_one(name, args.seed, args.seconds, bool(args.trace), import_s)
        for line in report:
            print(line, flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
