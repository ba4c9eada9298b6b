"""JSON interchange documents: exact matrices, words, and reports.

All numbers travel as exact rational strings ("p/q" or "p"); a scalar is
an object {"re": ..., "im": ...}.  A document carries its variable
convention: "omega" documents list coefficients of the internally used
real variable, "lambda" documents list real coefficients of the rotated
variable (lambda = i*omega) and are converted at this boundary, so the
rest of the package only ever sees the omega convention.

Structural problems raise DocumentError (CLI exit 2); semantically
invalid payloads (a direction that is not isotropic, a tangent outside
its space) surface the underlying ValueError (CLI exit 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from jumat.factor import ConstantJUnitary, ReductionStep
from jumat.group import (
    GeneratorParams,
    IsotropicDirection,
    Mode,
    PhasePoly,
    TangentPoly,
    Word,
)
from jumat.poly import MatrixPolynomial
from jumat.scalars import GaussianRational, format_rational, parse_rational

KINDS = ("matrix", "word", "report")
VARIABLES = ("omega", "lambda")

# Powers of i, used when rotating between the two variable conventions.
_I_POW = (
    GaussianRational(1),
    GaussianRational(0, 1),
    GaussianRational(-1),
    GaussianRational(0, -1),
)


class DocumentError(ValueError):
    """Malformed document: wrong structure, key, or literal."""


@dataclass(frozen=True)
class Document:
    kind: str
    var: str
    nu: int
    mode: Mode
    payload: object


def _fail(msg: str) -> DocumentError:
    return DocumentError(msg)


def _parse_rational(obj) -> Fraction:
    try:
        return parse_rational(obj)
    except ValueError as exc:
        raise _fail(str(exc)) from exc


def _parse_scalar(obj) -> GaussianRational:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise _fail(f"scalar must be an object with keys re/im, got {obj!r}")
    return GaussianRational(_parse_rational(obj["re"]), _parse_rational(obj["im"]))


def _scalar_json(x: GaussianRational) -> dict:
    return {"re": format_rational(x.re), "im": format_rational(x.im)}


def _parse_vector(obj, nu: int) -> tuple:
    if not isinstance(obj, list) or len(obj) != nu:
        raise _fail(f"expected a vector of {nu} scalars")
    return tuple(_parse_scalar(x) for x in obj)


def _parse_constant_matrix(obj, nu: int) -> tuple:
    if not isinstance(obj, list) or len(obj) != nu:
        raise _fail(f"expected a {nu}x{nu} matrix")
    return tuple(_parse_vector(row, nu) for row in obj)


def _require_real(x: GaussianRational, what: str) -> GaussianRational:
    if not x.is_real():
        raise _fail(f"{what} must be real in a lambda-variable document")
    return x


def parse_document(data) -> Document:
    """Parse a JSON object (or text) into internal omega-convention objects."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise _fail(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise _fail("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise _fail("document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise _fail(f"unknown document kind: {kind!r}")
    var = data.get("var", "omega")
    if var not in VARIABLES:
        raise _fail(f"unknown variable convention: {var!r}")
    nu = data.get("nu")
    if not isinstance(nu, int) or nu < 2:
        raise _fail("nu must be an integer >= 2")
    mode_text = data.get("mode", "complex")
    try:
        mode = Mode(mode_text)
    except ValueError as exc:
        raise _fail(f"unknown mode: {mode_text!r}") from exc
    if var == "lambda" and mode is not Mode.REAL_LAMBDA:
        raise _fail("lambda-variable documents require mode real_lambda")

    if kind == "matrix":
        payload = _parse_matrix_payload(data, nu, var)
    elif kind == "word":
        payload = _parse_word_payload(data, nu, var, mode)
    else:
        payload = data.get("report", {})
        if not isinstance(payload, dict):
            raise _fail("report payload must be an object")
    return Document(kind=kind, var=var, nu=nu, mode=mode, payload=payload)


def _parse_matrix_payload(data, nu, var) -> MatrixPolynomial:
    coeffs = data.get("coeffs")
    if not isinstance(coeffs, list):
        raise _fail("matrix document needs a list of coefficient matrices")
    mats = [_parse_constant_matrix(c, nu) for c in coeffs]
    if var == "lambda":
        rotated = []
        for k, mat in enumerate(mats):
            for row in mat:
                for x in row:
                    _require_real(x, "matrix coefficient")
            f = _I_POW[k % 4]
            rotated.append(tuple(tuple(f * x for x in row) for row in mat))
        mats = rotated
    return MatrixPolynomial(nu, nu, mats)


def _parse_word_payload(data, nu, var, mode):
    factors_obj = data.get("factors")
    if not isinstance(factors_obj, list):
        raise _fail("word document needs a list of factors")
    factors = tuple(_parse_factor(f, nu, var, mode) for f in factors_obj)
    tail_obj = data.get("tail")
    if tail_obj is None:
        tail = ConstantJUnitary.identity(nu)
    else:
        tail_mat = _parse_constant_matrix(tail_obj, nu)
        if var == "lambda":
            for row in tail_mat:
                for x in row:
                    _require_real(x, "tail entry")
        tail = ConstantJUnitary(tail_mat)
    return factors, tail


def _parse_factor(obj, nu, var, mode) -> GeneratorParams:
    if not isinstance(obj, dict) or not {"z", "phi", "g"} <= set(obj):
        raise _fail("factor must be an object with keys z, phi, g")
    z_entries = _parse_vector(obj["z"], nu)
    phi_obj = obj["phi"]
    if not isinstance(phi_obj, list):
        raise _fail("phi must be a list of rational strings")
    rho_in = [_parse_rational(r) for r in phi_obj]
    g_obj = obj["g"]
    if not isinstance(g_obj, list):
        raise _fail("g must be a list of vector coefficients")
    g_in = [_parse_vector(v, nu) for v in g_obj]

    if var == "lambda":
        rhos = []
        for k, c in enumerate(rho_in):
            power = k + 1
            if power % 2 == 0:
                if c:
                    raise _fail("lambda phases carry odd powers only")
                rhos.append(Fraction(0))
            else:
                sign = -1 if ((power - 1) // 2) % 2 else 1
                rhos.append(sign * c)
        g_coeffs = []
        for k, vec in enumerate(g_in):
            power = k + 1
            for x in vec:
                _require_real(x, "tangent coefficient")
            f = _I_POW[power % 4]
            g_coeffs.append(tuple(f * x for x in vec))
    else:
        rhos = rho_in
        g_coeffs = g_in

    z = IsotropicDirection(z_entries, mode=mode)
    return GeneratorParams(
        z,
        PhasePoly(rhos, mode=mode),
        TangentPoly(z, g_coeffs, mode=mode),
    )


def _matrix_coeffs_json(m: MatrixPolynomial, var: str) -> list:
    count = len(m.coefficients())
    out = []
    for k in range(count):
        mat = m.coefficient(k)
        if var == "lambda":
            f = _I_POW[(-k) % 4]  # (-i)^k
            mat = tuple(tuple(f * x for x in row) for row in mat)
            for row in mat:
                for x in row:
                    if not x.is_real():
                        raise ValueError(
                            "matrix has no lambda-variable representation"
                        )
        out.append([[_scalar_json(x) for x in row] for row in mat])
    return out


def _factor_json(p: GeneratorParams, var: str) -> dict:
    rhos = list(p.phase.rhos)
    g_coeffs = list(p.tangent.coeffs)
    if var == "lambda":
        phi_out = []
        for k, rho in enumerate(rhos):
            power = k + 1
            if power % 2 == 0:
                if rho:
                    raise ValueError("phase has no lambda-variable representation")
                phi_out.append(Fraction(0))
            else:
                sign = -1 if ((power - 1) // 2) % 2 else 1
                phi_out.append(sign * rho)
        g_out = []
        for k, vec in enumerate(g_coeffs):
            power = k + 1
            f = _I_POW[(-power) % 4]
            vec = tuple(f * x for x in vec)
            for x in vec:
                if not x.is_real():
                    raise ValueError(
                        "tangent has no lambda-variable representation"
                    )
            g_out.append(vec)
    else:
        phi_out = rhos
        g_out = g_coeffs
    return {
        "z": [_scalar_json(x) for x in p.z.entries],
        "phi": [format_rational(r) for r in phi_out],
        "g": [[_scalar_json(x) for x in vec] for vec in g_out],
    }


def matrix_document(m: MatrixPolynomial, mode: Mode, var: str = "omega") -> dict:
    return {
        "kind": "matrix",
        "var": var,
        "nu": m.rows,
        "mode": mode.value,
        "coeffs": _matrix_coeffs_json(m, var),
    }


def _step_json(step: ReductionStep, var: str) -> dict:
    return {
        "side": step.side,
        "branch": step.branch,
        "run": step.run,
        "right_stop": step.right_stop,
        "left_stop": step.left_stop,
        "degree_before": step.degree_before,
        "degree_after": step.degree_after,
        "factor": _factor_json(step.params, var),
    }


def word_document(
    word: Word,
    tail: ConstantJUnitary | None = None,
    mode: Mode = Mode.COMPLEX,
    var: str = "omega",
    trace=None,
) -> dict:
    doc = {
        "kind": "word",
        "var": var,
        "nu": word.nu,
        "mode": mode.value,
        "factors": [_factor_json(p, var) for p in word.factors],
    }
    if tail is not None and not tail.is_identity():
        doc["tail"] = [[_scalar_json(x) for x in row] for row in tail.matrix]
    if trace is not None:
        doc["trace"] = [_step_json(s, var) for s in trace]
    return doc


def report_document(nu: int, mode: Mode, report: dict, var: str = "omega") -> dict:
    return {
        "kind": "report",
        "var": var,
        "nu": nu,
        "mode": mode.value,
        "report": report,
    }


def dumps(doc: dict) -> str:
    """Canonical rendering: stable key order, two-space indent, newline end."""
    return json.dumps(doc, indent=2) + "\n"
