"""The three workloads: seeded, endless streams of CLI operations.

Each operation is the argv of one ``hquat`` call with ``--format machine``
and a judge that compares what the call did with the reference oracles.
A judge returns a :class:`Verdict`: the failure kind (None when the call
matched the reference) and the error against the reference of a passing
call.  The same seed always gives the same stream.

The timed streams hold only operations on which hquat matches its
reference, so a failed operation there is a regression.  The inputs that
meet a known defect of hquat are decided from the inputs alone, labelled
with that defect (``Op.defect``) and kept out of the timed streams; each
workload's ``DEFECT_PROBES`` lists a fixed set of them, which the traced
run executes and counts as ``known_defects.failing``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from harness import Outcome
from oracles import (
    CHECK_CATALOG,
    SLICE_FUNCTIONS,
    SQUARE_OVERFLOW_NORM,
    UNIT_ROUNDOFF,
    EvaluationError,
    Undecidable,
    ball_points,
    coefficient_tolerance,
    derivative_reference,
    qmul,
    qnorm,
    ref_eval,
)
from trees import argv_rejected, random_tree, to_text

CHECK_TOL = 1e-6
DERIVE_REL_TOL = 1e-6
RADIUS_TOL = 1e-6
COMMUTE_TOL = 1e-9
ERROR_BOUND_MARGIN = 8.0


@dataclass
class Verdict:
    failure: str | None = None
    err: float | None = None


@dataclass
class Op:
    kind: str
    argv: list[str]
    judge: Callable[[Outcome], Verdict]
    defect: str | None = None  # the known defect these inputs meet


def _machine(o: Outcome) -> dict | None:
    try:
        doc = json.loads(o.stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "results" in doc else None


def _unexpected(o: Outcome, expected: str) -> Verdict:
    """Verdict for a call whose exit status contradicts the reference."""
    if o.raised is not None:
        return Verdict(f"raised {o.raised} (expected {expected})")
    return Verdict(f"exit {o.code} (expected {expected})")


def _point_text(p) -> list[str]:
    # fixed-point text: argparse reads "-0.5" as a value but "-5e-05" as a flag
    return [f"{c:.6f}" for c in p]


def _sample_ball(rng: random.Random, radius: float):
    while True:
        p = tuple(rng.uniform(-radius, radius) for _ in range(4))
        if sum(c * c for c in p) <= radius * radius:
            return tuple(float(s) for s in _point_text(p))


def _qdist(a, b) -> float:
    return qnorm(tuple(x - y for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# check-grid
# ---------------------------------------------------------------------------

# Known defect: these holomorphic catalog entries exit 1 on some grids, as
# residuals near the pole sphere |V| = 2, and the stencil truncation of p^8
# near |p| = 2, exceed the 1e-6 tolerance.
KNOWN_CHECK_FAILURES = {
    "(p^2+1)/(p^2+4)": "check: residual above 1e-6 near the pole sphere |V| = 2",
    "p^8": "check: stencil truncation above 1e-6 near |p| = 2",
}
PROBE_GRID_SEEDS = 64


def _judge_check(expr: str, holomorphic: bool):
    def judge(o: Outcome) -> Verdict:
        expected = "exit 0" if holomorphic else "exit 1"
        doc = _machine(o)
        if o.raised is not None or o.code not in (0, 1):
            return _unexpected(o, expected)
        if doc is None or len(doc["results"]["points"]) != 16:
            return Verdict("check: output is not a 16-point machine report")
        rows = doc["results"]["points"]
        worst = max(max(r["main_residuals"] + r["aux_residuals"]) for r in rows)
        if doc["results"]["pass"] != (o.code == 0) or (worst <= CHECK_TOL) != (o.code == 0):
            return Verdict("check: exit code disagrees with the reported residuals")
        if holomorphic and o.code == 1:
            return Verdict(f"check: holomorphic {expr} exits 1")
        if not holomorphic and o.code == 0:
            return Verdict(f"check: non-holomorphic {expr} passes")
        return Verdict(err=worst if holomorphic else None)

    return judge


def _check_op(expr: str, grid_seed: int) -> Op:
    holomorphic = CHECK_CATALOG[expr]
    argv = ["check", "--expr", expr, "--grid", "16", "--radius", "2", "--tol", "1e-6",
            "--seed", str(grid_seed), "--format", "machine"]
    return Op("check", argv, _judge_check(expr, holomorphic), KNOWN_CHECK_FAILURES.get(expr))


def check_grid(seed: int) -> Iterator[Op]:
    """Every catalog expression without a known defect once per cycle, in
    an order shuffled by the workload seed; cycle c checks each expression
    on grid seed c.

    The grid seeds do not depend on the workload seed on purpose: the
    largest residual of a holomorphic expression (ref_err_max) depends on
    how close its 16 random points come to the ball's edge, so over
    seed-drawn grids it would wander between seeds.
    """
    rng = random.Random(seed)
    catalog = [expr for expr in CHECK_CATALOG if expr not in KNOWN_CHECK_FAILURES]
    for grid_seed in itertools.count():
        rng.shuffle(catalog)
        for expr in catalog:
            yield _check_op(expr, grid_seed)


def check_grid_defects() -> list[Op]:
    return [_check_op(expr, s) for expr in KNOWN_CHECK_FAILURES for s in range(PROBE_GRID_SEEDS)]


# ---------------------------------------------------------------------------
# series-spectral
# ---------------------------------------------------------------------------

SPECTRAL_EXPRS = ("exp(p)", "sin(p)", "cos(p)", "sin(p)*cos(p)", "1/(1-p)")
SERIES_ORDERS = (17, 32, 64)
# (rho, samples); None leaves the sample count to hquat's default 8(n+1)
SERIES_SETTINGS = ((0.8, None), (0.8, 1024), (1.0, None), (1.0, 1024))
CYCLES_PER_PERIOD = 4
STENCIL_RADIUS = 0.5
STENCIL_CONTENT_SEED = 2407
# Known defects of derive at 1e-6 relative: the series route at the origin
# amplifies rounding by rho**-k and misses from k = 12 on; the stencil
# route's per-level step step**(1/k) leaves a truncation error above 1e-6
# for every k >= 2.
MAX_ORIGIN_K = 11
MAX_PROBE_ORIGIN_K = 24
MAX_PROBE_STENCIL_K = 4
ORIGIN_DEFECT = "derive: series route at the origin off for k >= 12"
STENCIL_DEFECT = "derive: stencil route off for k >= 2"


def _judge_series(name: str, n: int, rho: float):
    pole_on_circle = rho >= SLICE_FUNCTIONS[name].radius

    def judge(o: Outcome) -> Verdict:
        if pole_on_circle:
            # the sampling circle passes through the pole p = 1
            return Verdict() if o.raised is None and o.code == 3 else _unexpected(o, "exit 3")
        if o.raised is not None or o.code != 0:
            return _unexpected(o, "exit 0")
        doc = _machine(o)
        if doc is None or len(doc["results"]["coefficients"]) != n + 1:
            return Verdict(f"series: output is not {n + 1} coefficients")
        samples = doc["inputs"]["samples"]
        fn = SLICE_FUNCTIONS[name]
        worst = 0.0
        for k, c in enumerate(doc["results"]["coefficients"]):
            err = abs(c - fn.coeff(k))
            if err > coefficient_tolerance(name, k, rho, samples):
                return Verdict(f"series: {name} coefficient {k} off the closed form")
            worst = max(worst, err)
        return Verdict(err=worst)

    return judge


def _judge_radius(name: str):
    def judge(o: Outcome) -> Verdict:
        if o.raised is not None or o.code != 0:
            return _unexpected(o, "exit 0")
        doc = _machine(o)
        if doc is None:
            return Verdict("radius: no machine report")
        res = doc["results"]
        want = SLICE_FUNCTIONS[name].radius
        if math.isinf(want):
            ok = res.get("radius_is_infinite") is True
        else:
            ok = res.get("radius") is not None and abs(res["radius"] - want) <= RADIUS_TOL * want
        return Verdict() if ok else Verdict(f"radius: {name} radius off the closed form")

    return judge


def _judge_derive(name: str, k: int, p):
    ref = derivative_reference(name, k, p)
    route = "stencil" if any(p) else "series"

    def judge(o: Outcome) -> Verdict:
        if o.raised is not None or o.code != 0:
            return _unexpected(o, "exit 0")
        doc = _machine(o)
        if doc is None:
            return Verdict("derive: no machine report")
        err = _qdist(doc["results"]["value"], ref) / max(1.0, qnorm(ref))
        if err > DERIVE_REL_TOL:
            return Verdict(f"derive: {route} route off for k={k}")
        return Verdict(err=err)

    return judge


def _derive_op(name: str, k: int, p) -> Op:
    argv = ["derive", "--expr", name, "--point", *_point_text(p), "--k", str(k), "--format", "machine"]
    if any(p):
        return Op("derive-stencil", argv, _judge_derive(name, k, p), STENCIL_DEFECT if k >= 2 else None)
    return Op("derive-origin", argv, _judge_derive(name, k, p), ORIGIN_DEFECT if k > MAX_ORIGIN_K else None)


def _stencil_points() -> dict:
    content = random.Random(STENCIL_CONTENT_SEED)
    return {(name, c): _sample_ball(content, STENCIL_RADIUS)
            for c in range(CYCLES_PER_PERIOD) for name in SPECTRAL_EXPRS}


def series_spectral(seed: int) -> Iterator[Op]:
    """Per cycle and expression: series at n = 17, 32 and 64, radius --n 32,
    about a quarter of the derivatives k = 1..11 at the origin and the
    stencil derivative k = 1 at one point of the ball |p| <= 0.5; the ops
    of a cycle are shuffled.

    Four cycles make a period in which, for every expression, each series
    order meets each (rho, samples) setting and the origin derivatives walk
    a permutation of k = 1..11 once, so every period does the same work.
    The workload seed orders all of this.  The stencil points are the same
    20 points in every period and for every seed: the stencil error varies
    continuously with the point, so over seed-drawn points the largest
    error below the 1e-6 tolerance (ref_err_max) would wander between seeds.
    """
    rng = random.Random(seed)
    points = _stencil_points()
    while True:
        settings = {(name, n): rng.sample(SERIES_SETTINGS, len(SERIES_SETTINGS))
                    for name in SPECTRAL_EXPRS for n in SERIES_ORDERS}
        origin_ks = {name: rng.sample(range(1, MAX_ORIGIN_K + 1), MAX_ORIGIN_K) for name in SPECTRAL_EXPRS}
        for c in range(CYCLES_PER_PERIOD):
            cycle = []
            for name in SPECTRAL_EXPRS:
                for n in SERIES_ORDERS:
                    rho, samples = settings[name, n].pop()
                    argv = ["series", "--expr", name, "--n", str(n), "--rho", str(rho)]
                    if samples is not None:
                        argv += ["--samples", str(samples)]
                    cycle.append(Op("series", argv + ["--format", "machine"], _judge_series(name, n, rho)))
                argv = ["radius", "--expr", name, "--n", "32", "--format", "machine"]
                cycle.append(Op("radius", argv, _judge_radius(name)))
                for k in origin_ks[name][c::CYCLES_PER_PERIOD]:
                    cycle.append(_derive_op(name, k, (0.0, 0.0, 0.0, 0.0)))
                cycle.append(_derive_op(name, 1, points[name, c]))
            rng.shuffle(cycle)
            yield from cycle


def series_spectral_defects() -> list[Op]:
    points = _stencil_points()
    origin = [_derive_op(name, k, (0.0, 0.0, 0.0, 0.0))
              for name in SPECTRAL_EXPRS for k in range(MAX_ORIGIN_K + 1, MAX_PROBE_ORIGIN_K + 1)]
    stencil = [_derive_op(name, k, points[name, 0])
               for name in SPECTRAL_EXPRS for k in range(2, MAX_PROBE_STENCIL_K + 1)]
    return origin + stencil


# ---------------------------------------------------------------------------
# tree-sweep
# ---------------------------------------------------------------------------

TREE_RADIUS = 1.5
EVALS_PER_TREE = 4
COMMUTE_GRID = 4
TREE_CONTENT_SEED = 2407
PAIRS_PER_PERIOD = 16
PROBE_PAIRS = 256

# Known defects: argparse takes an expression text that starts with "-"
# for an option and rejects the command line; hquat's Quaternion.norm_sq
# overflows for |q| beyond about 1.3e154, so dividing by such a value
# multiplies by a zero inverse, and commute reports an infinite residual
# that passes its infinite limit.
ARGV_DEFECT = "argparse rejects an expression starting with '-'"
HUGE_NORM_DEFECT = "|q|^2 overflows for |q| > 1.3e154"


def _eval_op(tree, text: str, p) -> Op:
    divisor = 0.0
    try:
        ref, bound, divisor = ref_eval(tree, p)
        expect = "value"
    except EvaluationError:
        expect = "error"
    except Undecidable:
        expect = "either"

    def judge(o: Outcome) -> Verdict:
        if expect == "either" and o.raised is None and o.code in (0, 3):
            return Verdict()
        if expect == "error":
            return Verdict() if o.raised is None and o.code == 3 else _unexpected(o, "exit 3")
        if o.raised is not None or o.code != 0:
            return _unexpected(o, "exit 0")
        doc = _machine(o)
        if doc is None:
            return Verdict("eval: no machine report")
        err = _qdist(doc["results"]["value"], ref)
        if err > ERROR_BOUND_MARGIN * bound + 1e-300:
            return Verdict("eval: value off the reference beyond its error bound")
        # relative to the magnitude the evaluation's rounding is bounded by
        return Verdict(err=err / max(qnorm(ref), bound / UNIT_ROUNDOFF, 1e-300))

    argv = ["eval", "--expr", text, "--point", *_point_text(p), "--format", "machine"]
    defect = ARGV_DEFECT if argv_rejected(text) else None
    if divisor >= SQUARE_OVERFLOW_NORM:
        defect = HUGE_NORM_DEFECT
    return Op("eval", argv, judge, defect)


def _commute_reference(f, g, seed: int):
    """Expected exit status and per-point (residual, error bound) of
    ``commute --grid 4 --radius 1.5 --seed seed``, and whether a value or
    divisor on the way is beyond SQUARE_OVERFLOW_NORM."""
    rows = []
    expected = {0}
    huge = False
    for p in ball_points(seed, COMMUTE_GRID, TREE_RADIUS):
        try:
            fv, ef, f_div = ref_eval(f, p)
            gv, eg, g_div = ref_eval(g, p)
        except EvaluationError:
            return {3}, None, huge
        except Undecidable:
            return {0, 1, 3}, None, huge
        fg, gf = qmul(fv, gv), qmul(gv, fv)
        nf, ng = qnorm(fv), qnorm(gv)
        huge = huge or max(nf, ng, f_div, g_div) >= SQUARE_OVERFLOW_NORM
        residual = _qdist(fg, gf)
        bound = ERROR_BOUND_MARGIN * (2 * (nf * eg + ng * ef + ef * eg) + 16 * UNIT_ROUNDOFF * nf * ng)
        limit = COMMUTE_TOL * (1.0 + nf * ng)
        if residual - bound > limit:
            expected = {1}
        elif residual + bound > limit and expected != {1}:
            expected = {0, 1}
        rows.append((residual, bound))
    return expected, rows, huge


def _commute_op(f, g, texts: tuple[str, str], seed: int) -> Op:
    expected, rows, huge = _commute_reference(f, g, seed)

    def judge(o: Outcome) -> Verdict:
        if o.raised is not None or o.code not in expected:
            return _unexpected(o, "exit " + "/".join(str(c) for c in sorted(expected)))
        if rows is None or o.code == 3:
            return Verdict()
        doc = _machine(o)
        if doc is None or len(doc["results"]["points"]) != COMMUTE_GRID:
            return Verdict("commute: output is not a 4-point machine report")
        for row, (residual, bound) in zip(doc["results"]["points"], rows):
            if abs(row["residual"] - residual) > bound + 1e-300:
                return Verdict("commute: residual off the reference beyond its error bound")
        return Verdict()

    argv = ["commute", "--expr", texts[0], "--expr", texts[1], "--grid", str(COMMUTE_GRID),
            "--radius", str(TREE_RADIUS), "--seed", str(seed), "--format", "machine"]
    defect = ARGV_DEFECT if any(argv_rejected(t) for t in texts) else None
    if huge:
        defect = HUGE_NORM_DEFECT
    return Op("commute", argv, judge, defect)


def _tree_pairs() -> Iterator[list[Op]]:
    """The fixed sequence of tree pairs, each with its nine operations."""
    rng = random.Random(TREE_CONTENT_SEED)
    while True:
        ops, pair = [], []
        for _ in range(2):
            tree = random_tree(rng)
            text = to_text(tree)
            pair.append((tree, text))
            for _ in range(EVALS_PER_TREE):
                ops.append(_eval_op(tree, text, _sample_ball(rng, TREE_RADIUS)))
        (f, ft), (g, gt) = pair
        ops.append(_commute_op(f, g, (ft, gt), rng.randrange(2**31)))
        yield ops


def tree_sweep(seed: int) -> Iterator[Op]:
    """Pairs of fresh random trees: four evals of each at random points of
    the ball |p| <= 1.5, then one commute of the pair on a random 4-point
    grid.  Every tree is used by these five calls and never again.

    The pairs come from a fixed sequence, less the pairs with an operation
    that meets a known defect, and the workload seed shuffles them within
    each period of 16 pairs.  The largest evaluation error is an extreme
    value of a heavy-tailed distribution (ill-conditioned trees); over
    seed-drawn trees ref_err_max spread by 2-8x between seeds, so the trees
    are the same for every seed.
    """
    order = random.Random(seed)
    pairs = (ops for ops in _tree_pairs() if not any(op.defect for op in ops))
    while True:
        period = list(itertools.islice(pairs, PAIRS_PER_PERIOD))
        order.shuffle(period)
        for ops in period:
            yield from ops


def tree_sweep_defects() -> list[Op]:
    return [op for ops in itertools.islice(_tree_pairs(), PROBE_PAIRS) for op in ops if op.defect]


WORKLOADS = {
    "check-grid": check_grid,
    "series-spectral": series_spectral,
    "tree-sweep": tree_sweep,
}
DEFECT_PROBES = {
    "check-grid": check_grid_defects,
    "series-spectral": series_spectral_defects,
    "tree-sweep": tree_sweep_defects,
}
# Ops in one period of each stream.  A timed run ends on a period boundary,
# so that every run does whole periods of the same mix.
PERIODS = {
    "check-grid": len(CHECK_CATALOG) - len(KNOWN_CHECK_FAILURES),
    "series-spectral": len(SPECTRAL_EXPRS)
    * (CYCLES_PER_PERIOD * (len(SERIES_ORDERS) + 2) + MAX_ORIGIN_K),
    "tree-sweep": PAIRS_PER_PERIOD * (2 * EVALS_PER_TREE + 1),
}
