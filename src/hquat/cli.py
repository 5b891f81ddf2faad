"""Command-line front-end.

Subcommands: eval | check | series | derive | radius | commute.  The machine
output format is a single JSON document with fixed field order
(tool, version, subcommand, inputs, results); identical inputs and seed
produce byte-identical documents.  :func:`to_json` writes it directly,
byte-identical to ``json.dumps(document, indent=2)``.  Text output is
human-oriented and not a stability contract; each subcommand returns it as
a renderer that :func:`main` calls only for ``--format text``.

:func:`main` builds its parser anew on every call, with arguments only for
the subcommand its first argument names (for all six when it names none,
as with ``--help`` or ``--version``); help, usage and error text do not
depend on which arguments were built.

Exit codes: 0 pass, 1 check failed, 2 usage or parse error, 3 evaluation
error, 4 non-real coefficient.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from . import __version__
from .functions import EvaluationOverflowError, commutator_norm, evaluate, has_nonreal_constant
from .parser import GRAMMAR, ParseError, format_expr, parse
from .quaternion import Quaternion, ZeroDivisorError
from .series import (
    DEFAULT_RHO,
    NonRealCoefficientError,
    PowerSeries,
    RatioTestInconclusive,
    TermRuleMismatchError,
    cos_coefficient,
    exp_coefficient,
    general_term_check,
    maclaurin_extraction,
    ratio_test,
    sin_coefficient,
    sin_cos_coefficient,
)
from .wirtinger import DEFAULT_STEP, DEFAULT_TOL, InvalidPointError, check_holomorphy, kth_derivative

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3
EXIT_NONREAL = 4

# Most points one check or commute samples.
MAX_GRID = 10_000

_KNOWN_TERM_RULES = {
    "exp(p)": ("inverse factorial", exp_coefficient),
    "sin(p)": ("alternating odd inverse factorial", sin_coefficient),
    "cos(p)": ("alternating even inverse factorial", cos_coefficient),
    "sin(p)*cos(p)": ("alternating odd 4^m / l!", sin_cos_coefficient),
}


def sample_ball(rng: random.Random, radius: float, y_zero: bool = False) -> Quaternion:
    """One uniform point of the closed 4-ball (or its y = 0 slice)."""
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    while True:
        x = rng.uniform(-radius, radius)
        y = 0.0 if y_zero else rng.uniform(-radius, radius)
        z = rng.uniform(-radius, radius)
        u = rng.uniform(-radius, radius)
        if x * x + y * y + z * z + u * u <= radius * radius:
            return Quaternion(x, y, z, u)


def _quat(q: Quaternion) -> list[float]:
    return [q.x, q.y, q.z, q.u]


def _cplx(c: complex) -> list[float]:
    return [c.real, c.imag]


def to_json(o, pad: str = "") -> str:
    """``json.dumps(o, indent=2)``, byte for byte, for a document of dicts with
    str keys, lists, str, int, float, bool and None; ``pad`` is the indent of
    the line ``o`` starts on.

    json's own encoder runs in pure Python whenever ``indent`` is set; this one
    joins each list of floats in one C-level pass through ``float.__repr__``.
    NaN and the infinities are spelled as json spells them.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if type(o) is dict:
        if not o:
            return "{}"
        body = sep.join([encode_basestring_ascii(k) + ": " + to_json(v, inner) for k, v in o.items()])
        return "{\n" + inner + body + "\n" + pad + "}"
    if type(o) is list:
        if not o:
            return "[]"
        try:  # TypeError unless every item is a float
            body = sep.join(map(float.__repr__, o))
            if not all(map(math.isfinite, o)):
                raise TypeError
        except TypeError:
            body = sep.join([to_json(v, inner) for v in o])
        return "[\n" + inner + body + "\n" + pad + "]"
    if type(o) is float:
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else ("Infinity" if o > 0 else "-Infinity")
    if type(o) is str:
        return encode_basestring_ascii(o)
    if o is True:
        return "true"
    if o is False:
        return "false"
    if o is None:
        return "null"
    if type(o) is int:
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# What a subcommand returns: exit code, machine-output inputs and results, and
# the text report's renderer, called only for --format text
Report = tuple[int, dict, dict, Callable[[], str]]


def _cmd_eval(args: argparse.Namespace) -> Report:
    expr = parse(args.expr)
    point = Quaternion(*args.point)
    value = evaluate(expr, point)
    a, b = value.to_cd()
    canonical = format_expr(expr)
    inputs = {"expr": canonical, "point": _quat(point)}
    results = {"value": _quat(value), "cd_a": _cplx(a), "cd_b": _cplx(b)}
    return EXIT_OK, inputs, results, lambda: f"{canonical} at ({point}) = {value}\n  a = {a}\n  b = {b}\n"


def _points(args: argparse.Namespace, draw: Callable[[random.Random], tuple]) -> list[tuple]:
    """``[(--point, None)]``, else ``--grid`` draws from one RNG seeded with ``--seed``."""
    if args.point is not None:
        return [(Quaternion(*args.point), None)]
    rng = random.Random(args.seed)
    return [draw(rng) for _ in range(args.grid)]


def _cmd_check(args: argparse.Namespace) -> Report:
    expr = parse(args.expr)
    pairs = _points(args, lambda rng: (sample_ball(rng, args.radius, y_zero=True), sample_ball(rng, args.radius)))
    rows = []
    all_pass = True
    for point, aux in pairs:
        rep = check_holomorphy(expr, point, tol=args.tol, step=args.step, aux_point=aux)
        ok = rep.passed
        all_pass = all_pass and ok
        rows.append(
            {
                "point": _quat(rep.point),
                "aux_point": _quat(rep.aux_point),
                "main_residuals": list(rep.main_residuals),
                "aux_residuals": list(rep.aux_residuals),
                "pass": ok,
            }
        )
    inputs = {"expr": format_expr(expr), "tol": args.tol, "step": args.step}
    if args.point is None:
        inputs.update(grid=args.grid, radius=args.radius, seed=args.seed)
    inputs["nonreal_constant"] = has_nonreal_constant(expr)

    def text() -> str:
        lines = [f"holomorphy check of {inputs['expr']} (tol {args.tol:g})"]
        for row in rows:
            mr = " ".join(f"{r:.3e}" for r in row["main_residuals"])
            ar = " ".join(f"{r:.3e}" for r in row["aux_residuals"])
            lines.append(f"  point {row['point']}  main [{mr}]  aux [{ar}]  {'pass' if row['pass'] else 'FAIL'}")
        lines.append("PASS" if all_pass else "FAIL")
        return "\n".join(lines) + "\n"

    code = EXIT_OK if all_pass else EXIT_CHECK_FAILED
    return code, inputs, {"points": rows, "pass": all_pass}, text


def _radius_results(ext) -> dict:
    coeffs = ext.denoised_coeffs()
    nonzero = sum(1 for c in coeffs if c != 0.0)
    series = PowerSeries(coeffs)
    try:
        rep = ratio_test(series, n_tail=max(2, min(12, nonzero - 1)))
    except (ValueError, RatioTestInconclusive) as exc:
        return {"radius": None, "radius_is_infinite": False, "note": str(exc)}
    return {
        "radius": None if math.isinf(rep.radius) else rep.radius,
        "radius_is_infinite": math.isinf(rep.radius),
        "L_estimate": rep.L_estimate,
        "monotone_decreasing": rep.monotone_decreasing,
        "n_used": rep.n_used,
        "ratios": list(rep.ratios),
    }


def _extract(args: argparse.Namespace):
    """Shared step of series and radius: the extraction, the canonical
    inputs, the worst non-real residue and whether every coefficient is real."""
    expr = parse(args.expr)
    ext = maclaurin_extraction(expr, args.n, rho=args.rho, samples=args.samples)
    inputs = {"expr": format_expr(expr), "n": args.n, "rho": ext.rho, "samples": ext.samples}
    return ext, inputs, max(ext.nonreal_residues), ext.first_nonreal() is None


def _cmd_series(args: argparse.Namespace) -> Report:
    ext, inputs, worst, real = _extract(args)
    canonical = inputs["expr"]
    rule_result = None
    if canonical in _KNOWN_TERM_RULES and real:
        name, rule = _KNOWN_TERM_RULES[canonical]
        try:
            general_term_check(rule, ext.coeffs)
            rule_result = {"rule": name, "matches": True, "mismatch_index": None}
        except TermRuleMismatchError as exc:
            rule_result = {"rule": name, "matches": False, "mismatch_index": exc.index}
    results = {
        "coefficients": list(ext.coeffs),
        "nonreal_residues": list(ext.nonreal_residues),
        "max_nonreal_residue": worst,
        "radius_estimate": _radius_results(ext),
        "general_term": rule_result,
    }

    def text() -> str:
        lines = [f"series coefficients of {canonical} (rho {ext.rho:g}, {ext.samples} samples)"]
        for l, (c, res) in enumerate(zip(ext.coeffs, ext.nonreal_residues)):
            lines.append(f"  r[{l:2d}] = {c: .15g}   (nonreal residue {res:.2e})")
        rr = results["radius_estimate"]
        if rr.get("radius_is_infinite"):
            lines.append(f"radius: infinite (L estimate {rr['L_estimate']:.2e})")
        elif rr.get("radius") is not None:
            lines.append(f"radius: {rr['radius']:.12g}")
        if rule_result is not None:
            lines.append(f"general term rule ({rule_result['rule']}): " + ("matches" if rule_result["matches"] else f"mismatch at {rule_result['mismatch_index']}"))
        if not real:
            lines.append(f"NON-REAL COEFFICIENTS: max residue {worst:.3e}")
        return "\n".join(lines) + "\n"

    return (EXIT_OK if real else EXIT_NONREAL), inputs, results, text


def _cmd_derive(args: argparse.Namespace) -> Report:
    expr = parse(args.expr)
    point = Quaternion(*args.point)
    res = kth_derivative(expr, point, args.k, step=args.step)
    canonical = format_expr(expr)
    inputs = {"expr": canonical, "point": _quat(point), "k": args.k, "step": args.step}
    results = {
        "value": _quat(res.value),
        "method": res.method,
        "truncation_estimate": res.truncation_estimate,
        "accuracy_warning": res.accuracy_warning,
    }

    def text() -> str:
        head = f"derivative order {args.k} of {canonical} at ({point}) = {res.value}\n  method: {res.method}\n"
        if res.accuracy_warning:
            head += f"  warning: estimated truncation error {res.truncation_estimate:.2e} exceeds 1e-4\n"
        return head

    return EXIT_OK, inputs, results, text


def _cmd_radius(args: argparse.Namespace) -> Report:
    ext, inputs, worst, real = _extract(args)
    results = _radius_results(ext)
    results["max_nonreal_residue"] = worst

    def text() -> str:
        if results.get("radius_is_infinite"):
            return f"radius of {inputs['expr']}: infinite (L estimate {results['L_estimate']:.2e}, monotone decreasing evidence over {results['n_used']} ratios)\n"
        if results.get("radius") is not None:
            return f"radius of {inputs['expr']}: {results['radius']:.12g}\n"
        return f"radius of {inputs['expr']}: inconclusive ({results.get('note')})\n"

    return (EXIT_OK if real else EXIT_NONREAL), inputs, results, text


def _cmd_commute(args: argparse.Namespace) -> Report:
    if len(args.expr) != 2:
        raise ValueError(f"commute needs exactly two --expr arguments, got {len(args.expr)}")
    if not 0.0 < args.tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    f = parse(args.expr[0])
    g = parse(args.expr[1])
    rows = []
    all_pass = True
    worst = 0.0
    for point, _ in _points(args, lambda rng: (sample_ball(rng, args.radius), None)):
        fv = evaluate(f, point)
        gv = evaluate(g, point)
        residual = commutator_norm(fv, gv)
        scale = 1.0 + fv.norm() * gv.norm()
        ok = residual <= args.tol * scale
        all_pass = all_pass and ok
        worst = max(worst, residual)
        rows.append({"point": _quat(point), "residual": residual, "pass": ok})
    inputs = {"expr_f": format_expr(f), "expr_g": format_expr(g), "tol": args.tol}
    if args.point is None:
        inputs.update(grid=args.grid, radius=args.radius, seed=args.seed)

    def text() -> str:
        return (
            f"commutator of {inputs['expr_f']} and {inputs['expr_g']}: max residual {worst:.3e} "
            f"over {len(rows)} points -> {'PASS' if all_pass else 'FAIL'}\n"
        )

    code = EXIT_OK if all_pass else EXIT_CHECK_FAILED
    return code, inputs, {"points": rows, "max_residual": worst, "pass": all_pass}, text


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def grid_size(text: str) -> int:
    value = positive_int(text)
    if value > MAX_GRID:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_GRID}")
    return value


def _eval_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--expr", required=True)
    sp.add_argument("--point", nargs=4, type=float, required=True, metavar=("X", "Y", "Z", "U"))


def _sampling_args(sp: argparse.ArgumentParser, grid_help: str | None) -> None:
    """``--point``, or a ``--grid`` drawn from the ``--radius`` ball with ``--seed``."""
    sp.add_argument("--point", nargs=4, type=float, default=None, metavar=("X", "Y", "Z", "U"))
    sp.add_argument("--grid", type=grid_size, default=20, help=grid_help)
    sp.add_argument("--radius", type=float, default=2.0)
    sp.add_argument("--seed", type=int, default=0)


def _check_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--expr", required=True)
    _sampling_args(sp, "number of sampled point pairs")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--step", type=float, default=DEFAULT_STEP)


def _extraction_args(sp: argparse.ArgumentParser, n: int, n_help: str | None) -> None:
    sp.add_argument("--expr", required=True)
    sp.add_argument("--n", type=int, default=n, help=n_help)
    sp.add_argument("--rho", type=float, default=DEFAULT_RHO)
    sp.add_argument("--samples", type=int, default=None)


def _series_args(sp: argparse.ArgumentParser) -> None:
    _extraction_args(sp, 8, "highest coefficient index")


def _derive_args(sp: argparse.ArgumentParser) -> None:
    _eval_args(sp)
    sp.add_argument("--k", type=positive_int, default=1)
    sp.add_argument("--step", type=float, default=DEFAULT_STEP)


def _radius_args(sp: argparse.ArgumentParser) -> None:
    _extraction_args(sp, 24, None)


def _commute_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--expr", action="append", required=True, help="give twice: f and g")
    _sampling_args(sp, None)
    sp.add_argument("--tol", type=float, default=1e-9)


# name -> (help, adds the subcommand's own arguments, handler)
SUBCOMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None], Callable[[argparse.Namespace], Report]]] = {
    "eval": ("evaluate an expression at a point", _eval_args, _cmd_eval),
    "check": ("holomorphy residuals on the y=0 slice plus auxiliary identities", _check_args, _cmd_check),
    "series": ("Maclaurin coefficients by circle sampling", _series_args, _cmd_series),
    "derive": ("k-th full quaternionic derivative", _derive_args, _cmd_derive),
    "radius": ("ratio-test radius of the extracted series", _radius_args, _cmd_radius),
    "commute": ("commutator residual of two expressions", _commute_args, _cmd_commute),
}


def build_arg_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The hquat parser, with arguments only for ``command`` when it names a
    subcommand and for every subcommand otherwise.

    All subcommands are registered either way, so the main usage line, the
    main help and argparse's invalid-choice error name each of them.
    """
    parser = argparse.ArgumentParser(
        prog="hquat",
        description="Quaternionic holomorphic function toolkit",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "expression grammar (EBNF):\n"
            + GRAMMAR
            + "left-associative binary operators, precedence +,- < *,/ < ^ < unary -;\n"
            "exit codes: 0 pass, 1 check failed, 2 usage or parse error,\n"
            "3 evaluation error, 4 non-real coefficient"
        ),
    )
    parser.add_argument("--version", action="version", version=f"hquat {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_arguments, handler) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if command == name or command not in SUBCOMMANDS:
            add_arguments(sp)
            sp.add_argument("--format", choices=("text", "machine"), default="text")
            sp.add_argument("--out", default=None, help="write the report to FILE instead of stdout")
            sp.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # argparse reads the -p of "--expr -p" as a flag, never that of "--expr=-p"
    given = iter(sys.argv[1:] if argv is None else argv)
    argv = []
    for arg in given:
        value = next(given, None) if arg == "--expr" else None
        argv.append(arg if value is None else f"--expr={value}")
    parser = build_arg_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        code, inputs, results, render = args.func(args)
        if args.format == "machine":
            report = {"tool": "hquat", "version": __version__, "subcommand": args.subcommand, "inputs": inputs, "results": results}
            text = to_json(report) + "\n"
        else:
            text = render()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except ParseError as exc:
        print(f"hquat: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ZeroDivisorError, EvaluationOverflowError, InvalidPointError) as exc:
        print(f"hquat: evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL_ERROR
    except NonRealCoefficientError as exc:
        print(f"hquat: non-real coefficient: {exc}", file=sys.stderr)
        return EXIT_NONREAL
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
