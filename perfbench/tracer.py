"""Per-layer tracing of hquat from outside the package.

The public functions of each module are wrapped at every binding site: a
function imported by name into another module (``from .functions import
evaluate``) is replaced there too, so no call escapes the count.  Every
wrapped call records a span (name, start, end, parent span, op id) in
compact in-memory arrays; the spans are summarised, and written out, once
at the end.  A span's self time is its duration minus the durations of its
children (spans of one thread nest, so children never overlap).

Quaternion construction is only counted: it happens in every arithmetic
operation and a span per instance would dwarf the work it measures.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from harness import EXIT_BUCKETS

# span name -> (defining module, function)
FUNCTION_LAYERS = {
    "cli.main": ("hquat.cli", "main"),
    "parser.parse": ("hquat.parser", "parse"),
    "parser.format_expr": ("hquat.parser", "format_expr"),
    "functions.evaluate": ("hquat.functions", "evaluate"),
    "functions.phi_components": ("hquat.functions", "phi_components"),
    "functions.commutator_residual": ("hquat.functions", "commutator_residual"),
    "wirtinger.partials": ("hquat.wirtinger", "partials"),
    "wirtinger.check_holomorphy": ("hquat.wirtinger", "check_holomorphy"),
    "wirtinger.kth_derivative": ("hquat.wirtinger", "kth_derivative"),
    "series.maclaurin_extraction": ("hquat.series", "maclaurin_extraction"),
    "series.ratio_test": ("hquat.series", "ratio_test"),
}
# span name -> Quaternion method
METHOD_LAYERS = {"quaternion.mul": "__mul__", "quaternion.inverse": "inverse"}

# layers whose self time is reported
SELF_TIMED = (
    "cli.main", "parser.parse", "parser.format_expr", "functions.evaluate", "functions.phi_components",
    "quaternion.mul", "wirtinger.partials", "wirtinger.kth_derivative", "series.maclaurin_extraction",
    "series.ratio_test",
)


class Tracer:
    def __init__(self) -> None:
        self.names = list(FUNCTION_LAYERS) + list(METHOD_LAYERS)
        self.span_name = array("B")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counters: Counter = Counter()
        self.exits: Counter = Counter()

    # --- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None, on_result=None):
        nid = self.names.index(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack, counters = self.span_start, self.span_end, self.stack, self.counters
        clock = time.perf_counter
        raised_key = name + ".raised"

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(i)
            if on_call is not None:
                on_call(args, kwargs)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                counters[raised_key] += 1
                raise
            ends[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding site of the traced functions, and restore them."""
        from hquat import functions
        from hquat.quaternion import Quaternion

        closed_form_heads = (functions.Exp, functions.Sin, functions.Cos)

        def phi_call(args, kwargs):
            expr = args[0] if args else kwargs["expr"]
            if isinstance(expr, closed_form_heads) and isinstance(expr.arg, functions.Var):
                self.counters["functions.phi_components.closed_form"] += 1

        def extraction_result(ext):
            self.counters["series.samples"] += ext.samples
            self.counters["series.fourier_terms"] += ext.samples * len(ext.coeffs)

        hooks = {
            "functions.phi_components": (phi_call, None),
            "series.maclaurin_extraction": (None, extraction_result),
        }
        modules = [m for n, m in sorted(sys.modules.items()) if (n == "hquat" or n.startswith("hquat.")) and m]
        restore = []
        for name, (module_name, attr) in FUNCTION_LAYERS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, value))
                        setattr(module, key, wrapped)
        for name, attr in METHOD_LAYERS.items():
            original = Quaternion.__dict__[attr]
            restore.append((Quaternion, attr, original))
            setattr(Quaternion, attr, self._wrap(name, original))
        post_init = Quaternion.__dict__["__post_init__"]
        counters = self.counters

        def counted_post_init(q):
            counters["quaternion.constructed"] += 1
            post_init(q)

        restore.append((Quaternion, "__post_init__", post_init))
        Quaternion.__post_init__ = counted_post_init
        try:
            yield self
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    # --- summaries -------------------------------------------------------

    def layer_metrics(self, op_scale: list[float]) -> dict[str, float]:
        """Per-layer counts and self times over every recorded span, each
        span's duration multiplied by ``op_scale`` of its op."""
        n = len(self.span_start)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        dur = [(self.span_end[i] - self.span_start[i]) * op_scale[ops[i]] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        self_s = Counter()
        check_id = self.names.index("wirtinger.check_holomorphy")
        phi_id = self.names.index("functions.phi_components")
        in_check = [False] * n
        evals_in_checks = 0
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            p = parents[i]
            in_check[i] = nid == check_id or (p >= 0 and in_check[p])
            if nid == phi_id and in_check[i]:
                evals_in_checks += 1
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
        for name in SELF_TIMED:
            out[name + ".self_s"] = self_s[self.names.index(name)]
        phi_calls = out["functions.phi_components.calls"]
        checks = out["wirtinger.check_holomorphy.calls"]
        out["functions.evaluate.raised"] = self.counters["functions.evaluate.raised"]
        out["functions.phi_components.closed_form_share"] = (
            self.counters["functions.phi_components.closed_form"] / phi_calls if phi_calls else 0.0
        )
        out["quaternion.constructed"] = self.counters["quaternion.constructed"]
        out["wirtinger.evals_per_check"] = evals_in_checks / checks if checks else 0.0
        out["series.samples"] = self.counters["series.samples"]
        out["series.fourier_terms"] = self.counters["series.fourier_terms"]
        for bucket in EXIT_BUCKETS:
            out["cli.exit." + bucket] = self.exits[bucket]
        return out

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the five arrays' bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [["name", "B"], ["parent", "l"], ["op", "l"], ["start", "d"], ["end", "d"]],
            "itemsizes": [a.itemsize for a in arrays],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)
