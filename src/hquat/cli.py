"""Command-line front-end.

Subcommands: eval | check | series | derive | radius | commute.  The machine
output format is a single JSON document with fixed field order
(tool, version, subcommand, inputs, results); identical inputs and seed
produce byte-identical documents.  Text output is human-oriented and not a
stability contract.

Exit codes: 0 pass, 1 check failed, 2 usage or parse error, 3 evaluation
error, 4 non-real coefficient.  An expression that starts with "-" is given
as ``--expr=-p``: argparse reads ``--expr -p`` as a missing argument.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Callable, Sequence

from . import __version__
from .functions import EvaluationOverflowError, commutator_norm, evaluate, has_nonreal_constant
from .parser import ParseError, format_expr, parse
from .quaternion import Quaternion, ZeroDivisorError
from .series import (
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
from .wirtinger import InvalidPointError, check_holomorphy, kth_derivative

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_EVAL_ERROR = 3
EXIT_NONREAL = 4

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


def _report(subcommand: str, inputs: dict, results: dict) -> dict:
    return {
        "tool": "hquat",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "results": results,
    }


def _emit(args: argparse.Namespace, report: dict, text: str) -> None:
    out = json.dumps(report, indent=2) + "\n" if args.format == "machine" else text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    expr = parse(args.expr)
    point = Quaternion(*args.point)
    value = evaluate(expr, point)
    a, b = value.to_cd()
    canonical = format_expr(expr)
    report = _report(
        "eval",
        {"expr": canonical, "point": _quat(point)},
        {"value": _quat(value), "cd_a": _cplx(a), "cd_b": _cplx(b)},
    )
    text = f"{canonical} at ({point}) = {value}\n  a = {a}\n  b = {b}\n"
    _emit(args, report, text)
    return EXIT_OK


def _grid(args: argparse.Namespace, draw: Callable[[random.Random], object]) -> list:
    """``--grid`` results of ``draw(rng)``, one RNG seeded with ``--seed``."""
    rng = random.Random(args.seed)
    return [draw(rng) for _ in range(args.grid)]


def _cmd_check(args: argparse.Namespace) -> int:
    expr = parse(args.expr)
    if args.point is not None:
        pairs = [(Quaternion(*args.point), None)]
    else:
        pairs = _grid(args, lambda rng: (sample_ball(rng, args.radius, y_zero=True), sample_ball(rng, args.radius)))
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
    report = _report("check", inputs, {"points": rows, "pass": all_pass})
    lines = [f"holomorphy check of {inputs['expr']} (tol {args.tol:g})"]
    for row in rows:
        mr = " ".join(f"{r:.3e}" for r in row["main_residuals"])
        ar = " ".join(f"{r:.3e}" for r in row["aux_residuals"])
        lines.append(f"  point {row['point']}  main [{mr}]  aux [{ar}]  {'pass' if row['pass'] else 'FAIL'}")
    lines.append("PASS" if all_pass else "FAIL")
    _emit(args, report, "\n".join(lines) + "\n")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


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


def _cmd_series(args: argparse.Namespace) -> int:
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
    report = _report("series", inputs, results)
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
    _emit(args, report, "\n".join(lines) + "\n")
    return EXIT_OK if real else EXIT_NONREAL


def _cmd_derive(args: argparse.Namespace) -> int:
    expr = parse(args.expr)
    point = Quaternion(*args.point)
    res = kth_derivative(expr, point, args.k, step=args.step)
    canonical = format_expr(expr)
    report = _report(
        "derive",
        {"expr": canonical, "point": _quat(point), "k": args.k, "step": args.step},
        {
            "value": _quat(res.value),
            "method": res.method,
            "truncation_estimate": res.truncation_estimate,
            "accuracy_warning": res.accuracy_warning,
        },
    )
    text = f"derivative order {args.k} of {canonical} at ({point}) = {res.value}\n  method: {res.method}\n"
    if res.accuracy_warning:
        text += f"  warning: estimated truncation error {res.truncation_estimate:.2e} exceeds 1e-4\n"
    _emit(args, report, text)
    return EXIT_OK


def _cmd_radius(args: argparse.Namespace) -> int:
    ext, inputs, worst, real = _extract(args)
    results = _radius_results(ext)
    results["max_nonreal_residue"] = worst
    report = _report("radius", inputs, results)
    if results.get("radius_is_infinite"):
        text = f"radius of {inputs['expr']}: infinite (L estimate {results['L_estimate']:.2e}, monotone decreasing evidence over {results['n_used']} ratios)\n"
    elif results.get("radius") is not None:
        text = f"radius of {inputs['expr']}: {results['radius']:.12g}\n"
    else:
        text = f"radius of {inputs['expr']}: inconclusive ({results.get('note')})\n"
    _emit(args, report, text)
    return EXIT_OK if real else EXIT_NONREAL


def _cmd_commute(args: argparse.Namespace) -> int:
    if len(args.expr) != 2:
        raise ValueError(f"commute needs exactly two --expr arguments, got {len(args.expr)}")
    if not 0.0 < args.tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    f = parse(args.expr[0])
    g = parse(args.expr[1])
    if args.point is not None:
        points = [Quaternion(*args.point)]
    else:
        points = _grid(args, lambda rng: sample_ball(rng, args.radius))
    rows = []
    all_pass = True
    worst = 0.0
    for point in points:
        fv = evaluate(f, point)
        gv = evaluate(g, point)
        residual = commutator_norm(fv, gv)
        scale = 1.0 + fv.norm() * gv.norm()
        ok = residual <= args.tol * scale
        all_pass = all_pass and ok
        worst = max(worst, residual)
        rows.append({"point": _quat(point), "residual": residual, "pass": ok})
    inputs = {
        "expr_f": format_expr(f),
        "expr_g": format_expr(g),
        "tol": args.tol,
        "grid": args.grid,
        "radius": args.radius,
        "seed": args.seed,
    }
    report = _report("commute", inputs, {"points": rows, "max_residual": worst, "pass": all_pass})
    text = (
        f"commutator of {inputs['expr_f']} and {inputs['expr_g']}: max residual {worst:.3e} "
        f"over {len(rows)} points -> {'PASS' if all_pass else 'FAIL'}\n"
    )
    _emit(args, report, text)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hquat",
        description="Quaternionic holomorphic function toolkit",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "expression grammar (EBNF):\n"
            '  expr   := term (("+"|"-") term)* ;\n'
            '  term   := factor (("*"|"/") factor)* ;\n'
            '  factor := unary ("^" uint)? ;\n'
            '  unary  := "-" unary | atom ;\n'
            '  atom   := "p" | real | "(" expr ")"\n'
            '          | ("exp"|"sin"|"cos") "(" expr ")" | ("i"|"j"|"k") ;\n'
            "  real   := decimal literal with optional fraction and exponent ;\n"
            "left-associative binary operators, precedence +,- < *,/ < ^ < unary -;\n"
            'an expression that starts with "-" is given as --expr=-p;\n'
            "exit codes: 0 pass, 1 check failed, 2 usage or parse error,\n"
            "3 evaluation error, 4 non-real coefficient"
        ),
    )
    parser.add_argument("--version", action="version", version=f"hquat {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", choices=("text", "machine"), default="text")
        sp.add_argument("--out", default=None, help="write the report to FILE instead of stdout")

    sp = sub.add_parser("eval", help="evaluate an expression at a point")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--point", nargs=4, type=float, required=True, metavar=("X", "Y", "Z", "U"))
    common(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("check", help="holomorphy residuals on the y=0 slice plus auxiliary identities")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--point", nargs=4, type=float, default=None, metavar=("X", "Y", "Z", "U"))
    sp.add_argument("--grid", type=positive_int, default=20, help="number of sampled point pairs")
    sp.add_argument("--radius", type=float, default=2.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--step", type=float, default=1e-5)
    common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("series", help="Maclaurin coefficients by circle sampling")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--n", type=int, default=8, help="highest coefficient index")
    sp.add_argument("--rho", type=float, default=0.8)
    sp.add_argument("--samples", type=int, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_series)

    sp = sub.add_parser("derive", help="k-th full quaternionic derivative")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--point", nargs=4, type=float, required=True, metavar=("X", "Y", "Z", "U"))
    sp.add_argument("--k", type=positive_int, default=1)
    sp.add_argument("--step", type=float, default=1e-5)
    common(sp)
    sp.set_defaults(func=_cmd_derive)

    sp = sub.add_parser("radius", help="ratio-test radius of the extracted series")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--n", type=int, default=24)
    sp.add_argument("--rho", type=float, default=0.8)
    sp.add_argument("--samples", type=int, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_radius)

    sp = sub.add_parser("commute", help="commutator residual of two expressions")
    sp.add_argument("--expr", action="append", required=True, help="give twice: f and g")
    sp.add_argument("--point", nargs=4, type=float, default=None, metavar=("X", "Y", "Z", "U"))
    sp.add_argument("--grid", type=positive_int, default=20)
    sp.add_argument("--radius", type=float, default=2.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp)
    sp.set_defaults(func=_cmd_commute)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
