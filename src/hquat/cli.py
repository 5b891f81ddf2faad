"""Command-line front-end.

Subcommands: eval | check | series | derive | radius | commute.  The machine
output format is a single JSON document with fixed field order
(tool, version, subcommand, inputs, results); identical inputs and seed
produce byte-identical documents.  It is written on one line as
``json.dumps(document)``, followed by a newline; one reused
``json.JSONEncoder(check_circular=False)`` writes those bytes.  Text output
is human-oriented and not a stability contract; each subcommand returns it
as a renderer that :func:`main` calls only for ``--format text``.

:func:`main` parses a named subcommand with that subcommand's parser alone; it
builds the full parser, all six sub-parsers, to parse a call that names none
and to report a leftover argument or a library error, in the same bytes.

Exit codes: 0 pass, 1 check failed, 2 usage or parse error, 3 evaluation
error, 4 non-real coefficient.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from gettext import gettext
from typing import Callable, Sequence

from . import __version__
from .functions import EvaluationOverflowError, commutator_norm, evaluate, has_nonreal_constant
from .parser import GRAMMAR, ParseError, format_expr, parse
from .quaternion import Quaternion, ZeroDivisorError
from .series import (
    DEFAULT_RHO,
    SIGNAL_FLOORS,
    NonRealCoefficientError,
    PowerSeries,
    RatioTestInconclusive,
    cos_coefficient,
    exp_coefficient,
    maclaurin_extraction,
    ratio_test,
    sin_coefficient,
    sin_cos_coefficient,
)
from .wirtinger import DEFAULT_STEP, DEFAULT_TOL, InvalidPointError, _accuracy_bound, check_holomorphy, kth_derivative

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3
EXIT_NONREAL = 4

# Most points one check or commute samples.
MAX_GRID = 10_000

# json.dumps's encoder minus the cycle check, which a freshly built report never needs
_ENCODER = json.JSONEncoder(check_circular=False)

_KNOWN_TERM_RULES = {
    "exp(p)": ("inverse factorial", exp_coefficient),
    "sin(p)": ("alternating odd inverse factorial", sin_coefficient),
    "cos(p)": ("alternating even inverse factorial", cos_coefficient),
    "sin(p)*cos(p)": ("alternating odd 4^m / l!", sin_cos_coefficient),
}


def sample_ball(rng: random.Random, radius: float, y_zero: bool = False) -> Quaternion:
    """One uniform point of the closed 4-ball (or its y = 0 slice) by rejection
    from the cube, each coordinate drawn as CPython's ``rng.uniform(-radius,
    radius)`` computes it: the same points, and the same state after them."""
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    # past about 1.34e154 radius^2 is inf and every point of the cube passes
    if radius * radius == math.inf:
        raise ValueError(f"radius must have a finite square (about 1.34e154 at most), got {radius!r}")
    # below about 1.49e-154 radius^2 is subnormal or 0 and points of the cube
    # outside the ball pass: 129 of 200 at 1e-200 (seed 0)
    if radius * radius < sys.float_info.min:
        raise ValueError(f"radius must have a normal square (about 1.49e-154 at least), got {radius!r}")
    lo, width, draw = -radius, radius - -radius, rng.random
    while True:
        x = lo + width * draw()
        y = 0.0 if y_zero else lo + width * draw()
        z = lo + width * draw()
        u = lo + width * draw()
        if x * x + y * y + z * z + u * u <= radius * radius:
            return Quaternion(x, y, z, u)


def _quat(q: Quaternion) -> list[float]:
    return [q.x, q.y, q.z, q.u]


def _cplx(c: complex) -> list[float]:
    return [c.real, c.imag]


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


def _judge_points(args: argparse.Namespace, draw: Callable[[random.Random], tuple], judge: Callable[..., dict]):
    """check's and commute's loop: each row is ``judge(point, aux)`` at ``--point``
    (aux None), else at ``--grid`` draws from one RNG seeded with ``--seed``.
    Returns exit 0 when every row's "pass" holds (1 otherwise), the rows, and
    the grid, radius and seed inputs, empty with ``--point``."""
    if args.point is not None:
        points = [(Quaternion(*args.point), None)]
        sampling = {}
    else:
        rng = random.Random(args.seed)
        points = [draw(rng) for _ in range(args.grid)]
        sampling = {"grid": args.grid, "radius": args.radius, "seed": args.seed}
    rows = [judge(point, aux) for point, aux in points]
    return (EXIT_OK if all(row["pass"] for row in rows) else EXIT_CHECK_FAILED), rows, sampling


def _cmd_check(args: argparse.Namespace) -> Report:
    expr = parse(args.expr)

    def judge(point: Quaternion, aux: Quaternion | None) -> dict:
        rep = check_holomorphy(expr, point, tol=args.tol, step=args.step, aux_point=aux)
        return {
            "point": _quat(rep.point),
            "aux_point": _quat(rep.aux_point),
            "main_residuals": rep.main_residuals,
            "aux_residuals": rep.aux_residuals,
            "pass": rep.passed,
        }

    code, rows, sampling = _judge_points(args, lambda rng: (sample_ball(rng, args.radius, y_zero=True), sample_ball(rng, args.radius)), judge)
    inputs = {"expr": format_expr(expr), "tol": args.tol, "step": args.step, **sampling, "nonreal_constant": has_nonreal_constant(expr)}

    def text() -> str:
        lines = [f"holomorphy check of {inputs['expr']} (tol {args.tol:g})"]
        for row in rows:
            mr = " ".join(f"{r:.3e}" for r in row["main_residuals"])
            ar = " ".join(f"{r:.3e}" for r in row["aux_residuals"])
            lines.append(f"  point {row['point']}  main [{mr}]  aux [{ar}]  {'pass' if row['pass'] else 'FAIL'}")
        lines.append("FAIL" if code else "PASS")
        return "\n".join(lines) + "\n"

    return code, inputs, {"points": rows, "pass": code == EXIT_OK}, text


def _radius_results(ext) -> dict:
    try:
        rep = ratio_test(PowerSeries(ext.denoised_coeffs()))
    except (ValueError, RatioTestInconclusive) as exc:
        return {"radius": None, "radius_is_infinite": False, "note": str(exc)}
    return {
        "radius": None if math.isinf(rep.radius) else rep.radius,
        "radius_is_infinite": math.isinf(rep.radius),
        "L_estimate": rep.L_estimate,
        "L_error": rep.L_error,
        "monotone_decreasing": rep.monotone_decreasing,
        "n_used": rep.n_used,
        "ratios": rep.ratios,
    }


def _extract(args: argparse.Namespace):
    """Shared step of series and radius: the extraction, the canonical
    inputs, the worst non-real residue and the first non-real index."""
    expr = parse(args.expr)
    ext = maclaurin_extraction(expr, args.n, rho=args.rho, samples=args.samples)
    inputs = {"expr": format_expr(expr), "n": args.n, "rho": ext.rho, "samples": ext.samples}
    return ext, inputs, max(ext.nonreal_residues), ext.first_nonreal()


def _cmd_series(args: argparse.Namespace) -> Report:
    ext, inputs, worst, nonreal = _extract(args)
    canonical = inputs["expr"]
    rule_result = None
    if canonical in _KNOWN_TERM_RULES and nonreal is None:
        name, rule = _KNOWN_TERM_RULES[canonical]
        k = ext.first_mismatch(rule)
        rule_result = {"rule": name, "matches": k is None, "mismatch_index": k}
    results = {
        "coefficients": ext.coeffs,
        "nonreal_residues": ext.nonreal_residues,
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
            lines.append(f"radius: infinite (L estimate within its error bar {rr['L_error']:.2e} of 0)")
        elif rr.get("radius") is not None:
            lines.append(f"radius: {rr['radius']:.12g}")
        else:
            lines.append(f"radius: inconclusive ({rr['note']})")
        if rule_result is not None:
            lines.append(f"general term rule ({rule_result['rule']}): " + ("matches" if rule_result["matches"] else f"mismatch at {rule_result['mismatch_index']}"))
        if nonreal is not None:
            lines.append(
                f"NON-REAL COEFFICIENTS: max residue {worst:.3e}; first r[{nonreal}], residue "
                f"{ext.nonreal_residues[nonreal]:.3e} above {SIGNAL_FLOORS:g} noise floors ({ext.threshold(nonreal):.3e})"
            )
        return "\n".join(lines) + "\n"

    return (EXIT_OK if nonreal is None else EXIT_NONREAL), inputs, results, text


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
            head += (
                f"  warning: estimated truncation error {res.truncation_estimate:.2e} "
                f"exceeds 1e-4 * max(1, |value|) = {_accuracy_bound(res.value):.2e}\n"
            )
        return head

    return EXIT_OK, inputs, results, text


def _cmd_radius(args: argparse.Namespace) -> Report:
    ext, inputs, worst, nonreal = _extract(args)
    results = _radius_results(ext)
    results["max_nonreal_residue"] = worst

    def text() -> str:
        if results.get("radius_is_infinite"):
            return f"radius of {inputs['expr']}: infinite (L estimate within its error bar {results['L_error']:.2e} of 0 over {results['n_used']} ratios)\n"
        if results.get("radius") is not None:
            return f"radius of {inputs['expr']}: {results['radius']:.12g}\n"
        return f"radius of {inputs['expr']}: inconclusive ({results.get('note')})\n"

    return (EXIT_OK if nonreal is None else EXIT_NONREAL), inputs, results, text


def _cmd_commute(args: argparse.Namespace) -> Report:
    if len(args.expr) != 2:
        raise ValueError(f"commute needs exactly two --expr arguments, got {len(args.expr)}")
    if not 0.0 < args.tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    f = parse(args.expr[0])
    g = parse(args.expr[1])

    def judge(point: Quaternion, _) -> dict:
        fv = evaluate(f, point)
        gv = evaluate(g, point)
        residual = commutator_norm(fv, gv)
        scale = 1.0 + fv.norm() * gv.norm()
        if math.isfinite(scale):
            ok = residual <= args.tol * scale
        else:  # |f||g| overflowed: the same test on f/4 and g/4
            ok = residual / 16 <= args.tol * (1 / 16 + (fv / 4).norm() * (gv / 4).norm())
        return {"point": _quat(point), "residual": residual, "pass": ok}

    code, rows, sampling = _judge_points(args, lambda rng: (sample_ball(rng, args.radius), None), judge)
    worst = max((row["residual"] for row in rows), default=0.0)
    inputs = {"expr_f": format_expr(f), "expr_g": format_expr(g), "tol": args.tol, **sampling}

    def text() -> str:
        return (
            f"commutator of {inputs['expr_f']} and {inputs['expr_g']}: max residual {worst:.3e} "
            f"over {len(rows)} points -> {'FAIL' if code else 'PASS'}\n"
        )

    return code, inputs, {"points": rows, "max_residual": worst, "pass": code == EXIT_OK}, text


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


def _add_subcommand(sp: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``sp`` given what ``hquat name`` parses: its own arguments, --format, --out, func and subcommand."""
    _, add_arguments, handler = SUBCOMMANDS[name]
    add_arguments(sp)
    sp.add_argument("--format", choices=("text", "machine"), default="text")
    sp.add_argument("--out", default=None, help="write the report to FILE instead of stdout")
    sp.set_defaults(func=handler, subcommand=name)
    return sp


def build_arg_parser() -> argparse.ArgumentParser:
    """The full hquat parser: all six sub-parsers, each built by :func:`_add_subcommand`."""
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
    for name, (help_text, _, _) in SUBCOMMANDS.items():
        _add_subcommand(sub.add_parser(name, help=help_text), name)
    return parser


def _point_value(text: str) -> str:
    """A --point value as argparse takes it: argparse reads a token that
    starts with "-" as a flag unless it is plain digits, so a finite negative
    double in any form ("-1e-5") goes with a leading space, which float()
    skips; any other text goes unchanged."""
    try:
        negative = text[:1] == "-" and math.isfinite(float(text))
    except ValueError:
        negative = False
    return " " + text if negative else text


def main(argv: Sequence[str] | None = None) -> int:
    # argparse reads the -p of "--expr -p" as a flag, never that of "--expr=-p"
    given = iter(sys.argv[1:] if argv is None else argv)
    argv = []
    for arg in given:
        value = next(given, None) if arg == "--expr" else None
        argv.append(arg if value is None else f"--expr={value}")
        if arg == "--point":
            argv += map(_point_value, itertools.islice(given, 4))
    # the full parser reads any "--=..." as ambiguous between its own --help and --version
    if argv and argv[0] in SUBCOMMANDS and not any(arg.startswith("--=") for arg in argv):
        args, extras = _add_subcommand(argparse.ArgumentParser(prog=f"hquat {argv[0]}"), argv[0]).parse_known_args(argv[1:])
        if extras:
            build_arg_parser().error(gettext("unrecognized arguments: %s") % " ".join(extras))
    else:
        args = build_arg_parser().parse_args(argv)
    try:
        code, inputs, results, render = args.func(args)
        if args.format == "machine":
            report = {"tool": "hquat", "version": __version__, "subcommand": args.subcommand, "inputs": inputs, "results": results}
            text = _ENCODER.encode(report) + "\n"
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
        build_arg_parser().error(str(exc))
