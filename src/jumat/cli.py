"""Command-line surface: batch algebra over exact JSON documents.

Commands: check, factor, mul, inv, gen, rand, conj, selftest.
Exit codes: 0 success / member, 1 semantic negative (non-member, failed
validation), 2 usage or parse error.  The environment variable
JUMAT_SEED supplies the default seed for rand and selftest.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from jumat import io as jio
from jumat.factor import (
    ConstantJUnitary,
    NotInGroupError,
    factor,
    is_j_unitary,
    real_subgroup_report,
    split_constant,
)
from jumat.group import (
    ConstantUnitary,
    Mode,
    build_generator,
    conjugate_word,
    invert_word,
    matrix_fits_mode,
    word_reduce,
    word_to_matrix,
)
from jumat.io import Document, DocumentError
from jumat.linalg import identity_matrix
from jumat.poly import MatrixPolynomial
from jumat.sampling import SampleConfig, Sampler

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _read_document(path: str) -> Document:
    return jio.parse_document(_read_text(path))


def _emit(doc: dict) -> None:
    sys.stdout.write(jio.dumps(doc))


def _default_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("JUMAT_SEED")
    return int(env) if env else 0


def _word_payload_matrix(doc: Document) -> MatrixPolynomial:
    factors, tail = doc.payload
    expanded = word_to_matrix(word_reduce(factors, doc.nu))
    return expanded * tail.as_matrix_poly()


def _document_matrix(doc: Document) -> MatrixPolynomial:
    if doc.kind == "matrix":
        return doc.payload
    if doc.kind == "word":
        return _word_payload_matrix(doc)
    raise DocumentError("expected a matrix or word document")


def _check_one(path: str, require_normalized: bool):
    doc = _read_document(path)
    if doc.kind != "matrix":
        raise DocumentError("check expects a matrix document")
    m = doc.payload
    member = is_j_unitary(m)
    normalized = member and m.coefficient(0) == identity_matrix(doc.nu)
    report = {
        "member": member,
        "normalized": normalized,
        "constant": m.degree in (0, float("-inf")),
        "real_coefficients": matrix_fits_mode(m, Mode.REAL_OMEGA),
        "alternating_coefficients": matrix_fits_mode(m, Mode.REAL_LAMBDA),
        "mode_compatible": matrix_fits_mode(m, doc.mode),
        "degree": m.degree if m.degree != float("-inf") else 0,
    }
    ok = member and report["mode_compatible"]
    if require_normalized:
        ok = ok and normalized
    code = EXIT_OK if ok else EXIT_NEGATIVE
    return code, jio.dumps(jio.report_document(doc.nu, doc.mode, report, doc.var))


def _factor_one(path: str, trace: bool, verify: bool, var_override):
    doc = _read_document(path)
    if doc.kind != "matrix":
        raise DocumentError("factor expects a matrix document")
    result = factor(doc.payload, mode=doc.mode, verify=verify)
    var = var_override or doc.var
    out = jio.word_document(
        result.word,
        tail=result.tail,
        mode=doc.mode,
        var=var,
        trace=result.steps if trace else None,
    )
    return EXIT_OK, jio.dumps(out)


def _run_batch(worker, paths, jobs):
    """Run a per-file worker, serially or in a process pool; emit in order.

    The pool starts all its workers up front, so it gets no more of them
    than there are files or CPUs.
    """
    jobs = min(jobs, len(paths), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, paths))
    else:
        results = [worker(p) for p in paths]
    code = EXIT_OK
    for one_code, text in results:
        sys.stdout.write(text)
        code = max(code, one_code)
    return code


class _CheckWorker:
    def __init__(self, require_normalized):
        self.require_normalized = require_normalized

    def __call__(self, path):
        return _check_one(path, self.require_normalized)


class _FactorWorker:
    def __init__(self, trace, verify, var):
        self.trace = trace
        self.verify = verify
        self.var = var

    def __call__(self, path):
        return _factor_one(path, self.trace, self.verify, self.var)


def _cmd_check(args) -> int:
    return _run_batch(_CheckWorker(args.normalized), args.files, args.jobs)


def _cmd_factor(args) -> int:
    worker = _FactorWorker(args.trace, not args.no_verify, args.var)
    return _run_batch(worker, args.files, args.jobs)


def _cmd_mul(args) -> int:
    docs = [_read_document(p) for p in args.files]
    first = docs[0]
    product = _document_matrix(first)
    for doc in docs[1:]:
        product = product * _document_matrix(doc)
    var = args.var or first.var
    _emit(jio.matrix_document(product, first.mode, var))
    return EXIT_OK


def _cmd_inv(args) -> int:
    doc = _read_document(args.file)
    var = args.var or doc.var
    if doc.kind == "matrix":
        m = doc.payload
        if not is_j_unitary(m):
            raise NotInGroupError("matrix fails the metric identity")
        inverse = m.star().metric_left().metric_right()
        _emit(jio.matrix_document(inverse, doc.mode, var))
        return EXIT_OK
    if doc.kind == "word":
        factors, tail = doc.payload
        word = word_reduce(factors, doc.nu)
        if tail.is_identity():
            _emit(jio.word_document(invert_word(word), mode=doc.mode, var=var))
            return EXIT_OK
        # A tail obstructs the direct reversal; invert exactly and refactor.
        m = word_to_matrix(word) * tail.as_matrix_poly()
        inverse = m.star().metric_left().metric_right()
        result = factor(inverse, mode=doc.mode)
        _emit(
            jio.word_document(result.word, tail=result.tail, mode=doc.mode, var=var)
        )
        return EXIT_OK
    raise DocumentError("inv expects a matrix or word document")


def _cmd_gen(args) -> int:
    doc = _read_document(args.file)
    if doc.kind != "word":
        raise DocumentError("gen expects a word document")
    factors, tail = doc.payload
    if len(factors) != 1 or not tail.is_identity():
        raise DocumentError("gen expects exactly one factor and no tail")
    m = build_generator(factors[0])
    _emit(jio.matrix_document(m, doc.mode, args.var or doc.var))
    return EXIT_OK


def _cmd_conj(args) -> int:
    by_doc = _read_document(args.by)
    if by_doc.kind != "matrix" or by_doc.payload.degree not in (0, float("-inf")):
        raise DocumentError("conj expects a constant matrix document after --by")
    w_mat = by_doc.payload.coefficient(0)
    u = ConstantUnitary(w_mat)
    doc = _read_document(args.file)
    if doc.kind != "word":
        raise DocumentError("conj expects a word document input")
    factors, tail = doc.payload
    word = word_reduce(factors, doc.nu)
    new_word = conjugate_word(u, word)
    new_tail = None
    if not tail.is_identity():
        wt = u.as_matrix_poly() * tail.as_matrix_poly() * u.inverse().as_matrix_poly()
        new_tail = ConstantJUnitary(wt.coefficient(0))
    _emit(
        jio.word_document(new_word, tail=new_tail, mode=doc.mode, var=args.var or doc.var)
    )
    return EXIT_OK


def _cmd_rand(args) -> int:
    var = args.var
    mode = Mode(args.mode) if args.mode else (
        Mode.REAL_LAMBDA if var == "lambda" else Mode.COMPLEX
    )
    if var == "lambda" and mode is not Mode.REAL_LAMBDA:
        raise DocumentError("lambda-variable output requires mode real_lambda")
    cfg = SampleConfig(
        nu=args.nu,
        mode=mode,
        max_factors=args.factors,
        max_phase_degree=args.max_degree,
        max_tangent_degree=args.max_degree,
        coefficient_height=args.height,
        seed=_default_seed(args.seed),
    )
    sampler = Sampler(cfg)
    if args.kind == "word":
        _emit(jio.word_document(sampler.word(), mode=mode, var=var))
    elif args.kind == "matrix":
        _emit(jio.matrix_document(sampler.matrix(), mode, var))
    else:
        w = sampler.constant_unitary()
        _emit(jio.matrix_document(MatrixPolynomial.constant(w.matrix), mode, var))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    seed = _default_seed(args.seed)
    failures = 0

    def status(name, ok):
        nonlocal failures
        print(("ok" if ok else "FAIL") + f": {name}")
        if not ok:
            failures += 1

    for nu, mode in ((2, Mode.COMPLEX), (3, Mode.COMPLEX), (3, Mode.REAL_OMEGA),
                     (2, Mode.REAL_LAMBDA), (4, Mode.REAL_LAMBDA)):
        cfg = SampleConfig(nu=nu, mode=mode, max_factors=3, coefficient_height=20,
                           seed=seed)
        sampler = Sampler(cfg)
        ok = True
        for _ in range(args.count):
            w = sampler.word()
            m = word_to_matrix(w)
            if not is_j_unitary(m):
                ok = False
                break
            res = factor(m, mode=mode)
            if res.word != w or not res.tail.is_identity():
                ok = False
                break
        status(f"round trip nu={nu} mode={mode.value}", ok)

    report = real_subgroup_report(2, samples=10, seed=seed)
    status("real subgroup trivial at nu=2", report["trivial"])
    report = real_subgroup_report(3, samples=10, seed=seed)
    status("real subgroup commutative at nu=3", report["all_commute"])

    cfg = SampleConfig(nu=3, mode=Mode.COMPLEX, seed=seed)
    sampler = Sampler(cfg)
    ok = True
    for _ in range(args.count):
        m = sampler.matrix()
        u0, tail = split_constant(m)
        if u0 * tail.as_matrix_poly() != m:
            ok = False
            break
    status("constant split reassembles", ok)
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``, else exit 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumat",
        description=(
            "Exact algebra on polynomial matrices unitary in the indefinite "
            "metric diag(-1, 1, ..., 1)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_var(p):
        p.add_argument(
            "--var",
            choices=jio.VARIABLES,
            default=None,
            help="variable convention for the output document",
        )

    p = sub.add_parser("check", help="test membership of a matrix document")
    p.add_argument("files", nargs="*", default=["-"])
    p.add_argument("--normalized", action="store_true",
                   help="additionally require U(0) = I")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("factor", help="factor a member into its reduced word")
    p.add_argument("files", nargs="*", default=["-"])
    p.add_argument("--trace", action="store_true",
                   help="include every reduction step in the output")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the final reconstruction comparison")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    add_var(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("mul", help="multiply documents (matrices and words)")
    p.add_argument("files", nargs="+")
    add_var(p)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("inv", help="invert a member or a word")
    p.add_argument("file", nargs="?", default="-")
    add_var(p)
    p.set_defaults(func=_cmd_inv)

    p = sub.add_parser("gen", help="expand a one-factor word into its matrix")
    p.add_argument("file", nargs="?", default="-")
    add_var(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("conj", help="conjugate a word by a constant unitary")
    p.add_argument("--by", required=True, help="constant matrix document (diag{1, L})")
    p.add_argument("file", nargs="?", default="-")
    add_var(p)
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("rand", help="emit a seeded random document")
    p.add_argument("--kind", choices=("word", "matrix", "upsilon"), default="word")
    p.add_argument("--nu", type=_int_at_least(2), required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--factors", type=_int_at_least(0), default=4)
    p.add_argument("--max-degree", type=_int_at_least(0), default=3)
    p.add_argument("--height", type=_int_at_least(1), default=40)
    p.add_argument(
        "--var", choices=jio.VARIABLES, default="omega",
        help="variable convention for the output document",
    )
    p.set_defaults(func=_cmd_rand)

    p = sub.add_parser("selftest", help="run a condensed exactness suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=_int_at_least(1), default=5)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotInGroupError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
