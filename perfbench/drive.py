"""Closed-loop callers: the in-process factor loop and the CLI batch loop.

One caller, one request at a time.  Every outcome is checked against the
known answer of its input; a wrong outcome is counted, never raised, so a
run always reports how many operations failed.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from jumat import io as jio
from jumat.factor import NotInGroupError

CLI_TIMEOUT_S = 60
HARD_STOP = 3  # the in-process loop ends at this multiple of its budget


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def factor_outcome(case):
    """Factor one input through the package's public API.

    Looks ``factor`` up on the module at call time, so a traced run sees the
    wrapped function.  Returns a comparable outcome: the word and the tail
    matrix for a result, the exception type name for a rejection.
    """
    factor = sys.modules["jumat.factor"].factor
    try:
        result = factor(case.matrix, case.mode)
    except NotInGroupError:
        return ("rejected",)
    except Exception as exc:  # a wrong outcome to count, not to raise
        return ("error", f"{type(exc).__name__}: {exc}")
    return ("factored", result.word, result.tail.matrix)


def expected_outcome(case):
    if case.member:
        return ("factored", case.word, case.tail)
    return ("rejected",)


def api_loop(cases, budget_s, tally):
    """Factor the pool in order, cycling, until one full cycle is done and
    ``budget_s`` has passed.

    Returns each input's fastest latency in seconds, or None for an input
    the loop never reached.  The machine is shared,
    and its speed drifts by tens of percent over seconds; an input measured
    in two cycles keeps the sample least slowed by that drift.
    """
    samples = [[] for _ in cases]
    clock = time.perf_counter
    start = clock()
    index = 0
    cycled = False
    while not (cycled and clock() - start >= budget_s):
        if clock() - start >= HARD_STOP * budget_s:
            break  # a much slower program still ends the run in time
        case = cases[index]
        t0 = clock()
        outcome = factor_outcome(case)
        samples[index].append(clock() - t0)
        tally.record(outcome == expected_outcome(case), f"api input {index}: {outcome[0]}")
        index += 1
        if index == len(cases):
            index = 0
            cycled = True
    return [min(s) if s else None for s in samples]


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("JUMAT_BACKEND", None)
    return env


def run_cli(args, env, cwd):
    """Run ``python -m jumat`` once; returns (wall seconds, exit code, out, err)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jumat", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "", f"timed out after {CLI_TIMEOUT_S} s"
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def split_documents(text):
    """Parse a stream of concatenated JSON documents."""
    decoder = json.JSONDecoder()
    docs = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        obj, pos = decoder.raw_decode(text, pos)
        docs.append(obj)


def check_factor_output(batch, code, out, err, tally, where):
    """Every member's word and tail must come back exactly, in order."""
    try:
        docs = [jio.parse_document(d) for d in split_documents(out)]
    except ValueError as exc:
        docs = []
        err += f"\nunparsable output: {exc}"
    clean = code == 0 and "Traceback" not in err and len(docs) == len(batch)
    for k, case in enumerate(batch):
        ok = clean
        if ok:
            doc = docs[k]
            factors, tail = doc.payload
            ok = (
                doc.kind == "word"
                and doc.var == case.var
                and factors == case.word.factors
                and tail.matrix == case.tail
            )
        tally.record(ok, f"{where} factor doc {case.path.name}: exit {code}")


def check_check_output(batch, code, out, err, tally, where):
    """Every per-file membership verdict must equal the known answer."""
    try:
        docs = [jio.parse_document(d) for d in split_documents(out)]
    except ValueError as exc:
        docs = []
        err += f"\nunparsable output: {exc}"
    want_code = 0 if all(c.member for c in batch) else 1
    clean = code == want_code and "Traceback" not in err and len(docs) == len(batch)
    for k, case in enumerate(batch):
        ok = clean and docs[k].kind == "report" and docs[k].payload.get("member") is case.member
        tally.record(ok, f"{where} check doc {case.path.name}: exit {code}")


def balanced_batches(items, cost, size):
    """Split ``items`` into batches of about ``size`` that each take every
    k-th item in order of ``cost``, so that every batch mixes cheap and
    expensive inputs alike."""
    ranked = [item for _, item in sorted(zip(cost, items), key=lambda p: p[0])]
    count = -(-len(ranked) // size)
    return [ranked[b::count] for b in range(count)]


def cli_loop(cases, latencies, end_time, batch_size, env, cwd, tally):
    """Alternate `factor --trace --jobs 2` and `check --jobs 2` batches until
    ``end_time``.  Batches are balanced by the latencies the in-process loop
    measured, so their rates are comparable.  Returns, for each command, the
    median over its batches of documents per second of batch wall time: a
    batch slowed by a burst on the shared machine does not move it.
    """
    members = [(c, t) for c, t in zip(cases, latencies) if c.member]
    factor_batches = balanced_batches([c for c, _ in members],
                                      [t for _, t in members], batch_size)
    check_batches = balanced_batches(cases, latencies, batch_size)
    rates = {"factor": [], "check": []}
    for round_ in itertools.count():
        batch = factor_batches[round_ % len(factor_batches)]
        wall, code, out, err = run_cli(
            ["factor", "--trace", "--jobs", "2", *[str(c.path) for c in batch]], env, cwd)
        check_factor_output(batch, code, out, err, tally, "cli")
        rates["factor"].append(len(batch) / wall)

        batch = check_batches[round_ % len(check_batches)]
        wall, code, out, err = run_cli(
            ["check", "--jobs", "2", *[str(c.path) for c in batch]], env, cwd)
        check_check_output(batch, code, out, err, tally, "cli")
        rates["check"].append(len(batch) / wall)

        if time.perf_counter() >= end_time:
            break
    return {kind: statistics.median(values) for kind, values in rates.items()}
