import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jumat import Mode, SampleConfig, Sampler, build_generator, phase_params
from jumat import cli
from jumat import io as jio
from jumat.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(jio.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def scalar(re, im=0):
    return {"re": str(Fraction(re)), "im": str(Fraction(im))}


def run_module(*argv, flags=()):
    """Run ``python -m jumat`` in a fresh interpreter with this checkout's src."""
    paths = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, *flags, "-m", "jumat", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.fixture
def word_path(tmp_path):
    sampler = Sampler(SampleConfig(nu=3, seed=301))
    w = sampler.word()
    while not w.factors:
        w = sampler.word()
    return write_doc(tmp_path, "word.json", jio.word_document(w, mode=Mode.COMPLEX))


def test_rand_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "rand", "--kind", "word", "--nu", "3", "--seed", "7")
    _, out2, _ = run_cli(capsys, "rand", "--kind", "word", "--nu", "3", "--seed", "7")
    assert out1 == out2 and out1


def test_seed_env_default(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("JUMAT_SEED", "7")
    _, out_env, _ = run_cli(capsys, "rand", "--kind", "word", "--nu", "3")
    _, out_flag, _ = run_cli(capsys, "rand", "--kind", "word", "--nu", "3", "--seed", "7")
    assert out_env == out_flag


def test_mul_check_factor_roundtrip(capsys, tmp_path, word_path):
    code, out, _ = run_cli(capsys, "mul", word_path)
    assert code == 0
    matrix_path = write_doc(tmp_path, "matrix.json", out)

    code, out, _ = run_cli(capsys, "check", matrix_path)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["member"] and report["normalized"]

    code, out, _ = run_cli(capsys, "factor", matrix_path)
    assert code == 0
    assert json.loads(out)["factors"] == json.loads(open(word_path).read())["factors"]


def test_factor_trace(capsys, tmp_path, word_path):
    _, out, _ = run_cli(capsys, "mul", word_path)
    matrix_path = write_doc(tmp_path, "m.json", out)
    code, out, _ = run_cli(capsys, "factor", "--trace", matrix_path)
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace and all(t["degree_after"] < t["degree_before"] for t in trace)


def test_check_rejects_perturbed(capsys, tmp_path, word_path):
    _, out, _ = run_cli(capsys, "mul", word_path)
    doc = json.loads(out)
    doc["coeffs"][1][0][1]["re"] = "999/1000"
    bad_path = write_doc(tmp_path, "bad.json", jio.dumps(doc))
    code, out, _ = run_cli(capsys, "check", bad_path)
    assert code == 1
    assert not json.loads(out)["report"]["member"]
    code, _, err = run_cli(capsys, "factor", bad_path)
    assert code == 1 and "error" in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = write_doc(tmp_path, "garbage.json", "{not json")
    code, _, err = run_cli(capsys, "check", path)
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2


def test_undecodable_documents_exit_2_without_traceback(tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text('{"kind": "matrix", "nu": 2, "coeffs": '
                      + "[" * 50_000 + "]" * 50_000 + "}")
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"kind": "matrix", "nu": 2, "coeffs": [], "x": "\xe9"}')
    for path in (nested, not_utf8):
        for command in ("check", "factor"):
            proc = run_module(command, str(path))
            assert proc.returncode == 2, (command, path.name, proc.stderr)
            assert "Traceback" not in proc.stderr and "error:" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["rand", "--nu", "1"],
    ["rand", "--nu", "3", "--height", "0"],
    ["rand", "--nu", "3", "--factors", "-1"],
    ["rand", "--nu", "3", "--max-degree", "-1"],
    ["selftest", "--count", "0"],
])
def test_numeric_arguments_below_their_bound_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_inv_matrix_and_word(capsys, tmp_path, word_path):
    _, out, _ = run_cli(capsys, "mul", word_path)
    matrix_path = write_doc(tmp_path, "m.json", out)
    code, inv_out, _ = run_cli(capsys, "inv", matrix_path)
    assert code == 0
    inv_path = write_doc(tmp_path, "inv.json", inv_out)
    code, prod_out, _ = run_cli(capsys, "mul", matrix_path, inv_path)
    assert code == 0
    prod = json.loads(prod_out)
    assert prod["coeffs"] == [
        [[scalar(1), scalar(0), scalar(0)],
         [scalar(0), scalar(1), scalar(0)],
         [scalar(0), scalar(0), scalar(1)]]
    ]
    code, winv_out, _ = run_cli(capsys, "inv", word_path)
    assert code == 0
    winv_path = write_doc(tmp_path, "winv.json", winv_out)
    code, prod_out, _ = run_cli(capsys, "mul", word_path, winv_path)
    assert json.loads(prod_out)["coeffs"] == prod["coeffs"]


def test_gen_matches_library(capsys, tmp_path):
    doc = {
        "kind": "word", "var": "omega", "nu": 2, "mode": "complex",
        "factors": [{"z": [scalar(1), scalar(1)], "phi": ["1"], "g": []}],
    }
    path = write_doc(tmp_path, "gen.json", doc)
    code, out, _ = run_cli(capsys, "gen", path)
    assert code == 0
    parsed = jio.parse_document(out)
    from jumat import IsotropicDirection

    expected = build_generator(phase_params(IsotropicDirection([1, 1]), [Fraction(1)]))
    assert parsed.payload == expected


def test_gen_requires_single_factor(capsys, tmp_path):
    doc = {"kind": "word", "var": "omega", "nu": 2, "mode": "complex", "factors": []}
    path = write_doc(tmp_path, "empty.json", doc)
    code, _, err = run_cli(capsys, "gen", path)
    assert code == 2


def test_conj_by_constant_unitary(capsys, tmp_path):
    sampler = Sampler(SampleConfig(nu=3, seed=303))
    w = sampler.word()
    while not w.factors:
        w = sampler.word()
    u = sampler.constant_unitary()
    word_path = write_doc(tmp_path, "w.json", jio.word_document(w, mode=Mode.COMPLEX))
    from jumat import MatrixPolynomial

    by_path = write_doc(
        tmp_path, "by.json",
        jio.matrix_document(MatrixPolynomial.constant(u.matrix), Mode.COMPLEX),
    )
    code, out, _ = run_cli(capsys, "conj", "--by", by_path, word_path)
    assert code == 0
    conj_doc = json.loads(out)
    # Conjugating back restores the original word.
    by_inv_path = write_doc(
        tmp_path, "byinv.json",
        jio.matrix_document(MatrixPolynomial.constant(u.inverse().matrix), Mode.COMPLEX),
    )
    conj_path = write_doc(tmp_path, "conj.json", jio.dumps(conj_doc))
    code, out, _ = run_cli(capsys, "conj", "--by", by_inv_path, conj_path)
    assert json.loads(out)["factors"] == json.loads(open(word_path).read())["factors"]


def test_conj_identity_is_noop(capsys, tmp_path, word_path):
    from jumat import MatrixPolynomial

    eye_path = write_doc(
        tmp_path, "eye.json",
        jio.matrix_document(MatrixPolynomial.identity(3), Mode.COMPLEX),
    )
    code, out, _ = run_cli(capsys, "conj", "--by", eye_path, word_path)
    assert code == 0
    assert json.loads(out)["factors"] == json.loads(open(word_path).read())["factors"]


def test_lambda_golden_two_factor_document(capsys, tmp_path):
    # Closed form of the two-reflection product with coefficients 1 and 2.
    doc = {
        "kind": "matrix", "var": "lambda", "nu": 2, "mode": "real_lambda",
        "coeffs": [
            [[scalar(1), scalar(0)], [scalar(0), scalar(1)]],
            [[scalar(-3), scalar(1)], [scalar(-1), scalar(3)]],
            [[scalar(4), scalar(-4)], [scalar(-4), scalar(4)]],
        ],
    }
    path = write_doc(tmp_path, "lam.json", doc)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["normalized"] and report["alternating_coefficients"]
    assert not report["real_coefficients"]
    code, out, _ = run_cli(capsys, "factor", path)
    assert code == 0
    word = json.loads(out)
    assert word["var"] == "lambda"
    assert [f["z"] for f in word["factors"]] == [
        [scalar(1), scalar(1)], [scalar(1), scalar(-1)]
    ]
    assert [f["phi"] for f in word["factors"]] == [["1"], ["2"]]


def test_check_jobs_batch(capsys, tmp_path, word_path):
    _, out, _ = run_cli(capsys, "mul", word_path)
    paths = [write_doc(tmp_path, f"m{i}.json", out) for i in range(3)]
    code, out, _ = run_cli(capsys, "check", "--jobs", "2", *paths)
    assert code == 0
    assert out.count('"kind": "report"') == 3


def test_jobs_are_bounded_by_files_and_cpus(capsys, monkeypatch, tmp_path, word_path):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    _, out, _ = run_cli(capsys, "mul", word_path)
    paths = [write_doc(tmp_path, f"m{i}.json", out) for i in range(6)]
    for jobs, files, want in (("500", 2, [2]), ("500", 6, [4]), ("3", 6, [3]),
                              ("500", 1, []), ("1", 6, [])):
        pools.clear()
        code, out, _ = run_cli(capsys, "check", "--jobs", jobs, *paths[:files])
        assert code == 0 and out.count('"kind": "report"') == files
        assert pools == want
    for jobs in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--jobs", jobs, paths[0]])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_check_normalized_flag(capsys, tmp_path):
    # diag(-1, 1, 1) is a member of the full group but not normalized.
    doc = {
        "kind": "matrix", "var": "omega", "nu": 3, "mode": "complex",
        "coeffs": [[
            [scalar(-1), scalar(0), scalar(0)],
            [scalar(0), scalar(1), scalar(0)],
            [scalar(0), scalar(0), scalar(1)],
        ]],
    }
    path = write_doc(tmp_path, "m.json", doc)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "--normalized", path)
    assert code == 1
    assert json.loads(out)["report"]["member"] is True


def test_wrong_kind_exit_codes(capsys, tmp_path, word_path):
    code, _, err = run_cli(capsys, "check", word_path)
    assert code == 2
    code, _, err = run_cli(capsys, "factor", word_path)
    assert code == 2


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "3", "--count", "2")
    assert code == 0
    assert "FAIL" not in out and "ok:" in out


def test_module_entrypoint_smoke():
    proc = run_module("rand", "--kind", "word", "--nu", "2", "--seed", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "word"


def test_guards_hold_without_asserts(capsys, tmp_path, word_path):
    _, out, _ = run_cli(capsys, "mul", word_path)
    member = write_doc(tmp_path, "member.json", out)
    doc = json.loads(out)
    doc["coeffs"][1][0][1]["re"] = "999/1000"
    perturbed = write_doc(tmp_path, "perturbed.json", jio.dumps(doc))
    for args, want in ((["selftest", "--seed", "3"], 0),
                       (["factor", member], 0),
                       (["factor", perturbed], 1)):
        proc = run_module(*args, flags=("-O",))
        assert proc.returncode == want, (args, proc.stderr)
        assert "Traceback" not in proc.stderr
