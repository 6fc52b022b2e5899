"""Spans around contactsurg's public functions, installed from outside.

Only a traced run (``--trace 1``) installs them. ``Tracer.install``
wraps every public module-level function of the nine layer modules and
rebinds each name wherever the package holds it, so calls through a
``from .x import f`` name (``cosmetic`` takes ``shorten`` and
``d3_spectrum_detail`` that way, ``cli`` takes ``scan``) and calls
inside a module (``char_poly_interpolate`` calling ``determinant``) are
seen too. Private helpers stay unwrapped, so their time counts toward
the self time of the public caller.

A span records its name, start, end, parent and query id. Spans stay in
memory until the run ends. Self time is a span's duration minus the time
its children cover; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import sys
import time
from collections import defaultdict
from functools import update_wrapper

LAYERS = ("cli", "cosmetic", "closedforms", "regressions", "invariants",
          "surgery", "linalg", "farey", "slopes")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _path_blocks(vertices):
    """Continued-fraction blocks of a minimal Farey path: an edge starts
    a new block unless its outer vertices have |det| = 2."""
    edges = len(vertices) - 1
    if edges < 1:
        return 0
    return 1 + sum(
        1 for i in range(1, edges)
        if abs(vertices[i - 1].num * vertices[i + 1].den
               - vertices[i + 1].num * vertices[i - 1].den) != 2)


def _determinant(tracer, args, kwargs, result, start_ns, end_ns):
    n = len(_arg(args, kwargs, 0, "rows"))
    tracer.counters["linalg.determinant.n_max"] = max(
        tracer.counters["linalg.determinant.n_max"], n)
    tracer.counters["linalg.determinant.n3_sum"] += n ** 3


def _char_poly(tracer, args, kwargs, result, start_ns, end_ns):
    tracer.char_poly_spans.append((len(_arg(args, kwargs, 0, "rows")), start_ns, end_ns))


def _minimal_path(tracer, args, kwargs, result, start_ns, end_ns):
    tracer.counters["farey.minimal_path.vertices"] += len(result)
    tracer.counters["farey.minimal_path.blocks"] += _path_blocks(result)


def _count(name, measure):
    def annotate(tracer, args, kwargs, result, start_ns, end_ns):
        tracer.counters[name] += measure(args, kwargs, result)
    return annotate


# Work counts read from a call's arguments or result, keyed by span name.
ANNOTATORS = {
    "linalg.determinant": _determinant,
    "linalg.char_poly_interpolate": _char_poly,
    "linalg.solve_columns": _count(
        "linalg.solve_columns.cols_sum", lambda a, k, r: len(_arg(a, k, 1, "cols"))),
    "surgery.convert": _count("surgery.convert.presentations", lambda a, k, r: len(r)),
    "surgery.linking_matrix": _count("surgery.linking_matrix.n_sum", lambda a, k, r: r.n),
    "surgery.enumerate_rotations": _count(
        "surgery.enumerate_rotations.vectors", lambda a, k, r: len(r)),
    "invariants.d3_spectrum_detail": _count(
        "invariants.d3_values", lambda a, k, r: sum(len(rec["values"]) for rec in r)),
    "cosmetic.scan": _count("cosmetic.scan.cells", lambda a, k, r: len(r["cells"])),
    "closedforms.verify_closed_forms": _count(
        "closedforms.checks", lambda a, k, r: r["checks"]),
    "farey.minimal_path": _minimal_path,
    "farey.cf_blocks": _count("farey.cf_blocks.blocks", lambda a, k, r: len(r)),
    "farey.shorten": _count("farey.shorten.tight", lambda a, k, r: r[1] == "tight"),
}


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self, package_name: str):
        self.package_name = package_name
        self.query_id = 0
        self.spans = []  # (query_id, span_id, parent_id, name, start_ns, end_ns, self_ns, error)
        self.counters = defaultdict(int)
        self.char_poly_spans = []  # (n, start_ns, end_ns)
        self._stack = []  # [span_id, start_ns, child_ns] per open span
        self._ids = itertools.count(1)
        self._rebound = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        annotate = ANNOTATORS.get(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent_id = stack[-1][0] if stack else 0
            frame = [next(ids), clock(), 0]
            stack.append(frame)
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append((self.query_id, frame[0], parent_id, name, frame[1], end,
                              duration - frame[2], error))
            if annotate is not None:
                annotate(self, args, kwargs, result, frame[1], end)
            return result

        return update_wrapper(wrapper, fn)

    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package_name}.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        prefix = self.package_name + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package_name and not mod_name.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("query_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\tself_ns\terror\n")
            for span in self.spans:
                out.write("\t".join(str(int(x) if isinstance(x, bool) else x)
                                    for x in span) + "\n")

    def layer_metrics(self, factor) -> dict:
        """Per-layer metrics from the spans and counters recorded so far;
        ``factor(start_ns, end_ns)`` converts a span's plain seconds to
        reference seconds."""
        calls, self_ns, errors = defaultdict(int), defaultdict(float), defaultdict(int)
        for _, _, _, name, start, end, own, error in self.spans:
            own *= factor(start, end)
            for key in (name, name.split(".", 1)[0]):
                calls[key] += 1
                self_ns[key] += own
                errors[key] += error
        c = self.counters
        m = {}

        def count(name, value):
            m[name] = (value, "count")

        def seconds(name, ns):
            m[name] = (ns / 1e9, "s")

        def ratio(name, num, den):
            m[name] = (num / den if den else 0.0, "ratio")

        for layer in LAYERS:
            count(f"{layer}.calls", calls[layer])
            seconds(f"{layer}.self_s", self_ns[layer])
            count(f"{layer}.errors", errors[layer])
        for fn in ("linalg.determinant", "linalg.signature", "linalg.solve_columns",
                   "farey.minimal_path", "farey.shorten"):
            count(f"{fn}.calls", calls[fn])
        for fn in ("linalg.determinant", "linalg.descartes_signature",
                   "linalg.char_poly_interpolate", "linalg.congruence_signature",
                   "linalg.solve_columns", "linalg.is_negative_definite",
                   "invariants.d3_spectrum_detail",
                   "cosmetic.scan", "cosmetic.solve_d3_equation",
                   "cosmetic.equivalent_surgery_count", "closedforms.verify_closed_forms",
                   "regressions.verify_d3_regressions", "cli.main",
                   "farey.minimal_path", "farey.shorten"):
            seconds(f"{fn}.self_s", self_ns[fn])
        m["linalg.determinant.n_max"] = (c["linalg.determinant.n_max"], "n")
        m["linalg.determinant.n3_sum"] = (c["linalg.determinant.n3_sum"], "ops_computed")
        ratio("linalg.signature.memo_hit_ratio",
              calls["linalg.signature"] - calls["linalg.congruence_signature"],
              calls["linalg.signature"])
        m["linalg.char_poly.exponent"] = (loglog_slope(
            [(n, (end - start) * factor(start, end)) for n, start, end in self.char_poly_spans]),
            "log-log")
        for name in ("linalg.solve_columns.cols_sum", "invariants.d3_values",
                     "surgery.convert.presentations", "surgery.linking_matrix.n_sum",
                     "surgery.enumerate_rotations.vectors", "cosmetic.scan.cells",
                     "closedforms.checks", "farey.minimal_path.vertices",
                     "farey.cf_blocks.blocks"):
            count(name, c[name])
        ratio("farey.vertices_per_block", c["farey.minimal_path.vertices"],
              c["farey.minimal_path.blocks"])
        ratio("farey.shorten.tight_ratio", c["farey.shorten.tight"], calls["farey.shorten"])
        return m


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when fewer
    than two distinct sizes were seen."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
