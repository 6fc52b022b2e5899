"""Command line front end.

Subcommands: d3 (single surgery computation), cs-set (cosmetic slope
set), unknot (classification of a contact surgery on a Legendrian
unknot), verify (closed-form sweep, d3 regressions, obstruction scan:
the reports of ``regressions.verify``, formatted).

All numbers in reports are exact integers or "p/q" strings; exit code 0
means success, 1 a verification mismatch or a failed internal check, 2 a
usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__, regressions
from .cosmetic import unknot_classify
from .invariants import d3_records, ratio_text
from .linalg import _band, _Path
from .slopes import SlopeError, _cs_set_dens, parse_slope
from .surgery import LegendrianData


def envelope(command: str, inputs: dict, results) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }


_ESCAPE = json.encoder.encode_basestring_ascii
_INT_TEXTS = {i: str(i) for i in range(-256, 257)}  # the texts of small ints, made once


def _row(path, i, head, sep, tail, text=int.__repr__):
    """head + the n entries of row i of the ``_Path`` ``path`` joined by sep
    + tail: only the band (``linalg._band``) goes through ``text``, and each
    run of zeros around it is one repeated string."""
    start, entries = _band(path, i)
    for x in entries:
        if type(x) is not int:  # not isinstance: True is no matrix entry
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    zero = text(0)
    return (head + (zero + sep) * start + sep.join(map(text, entries))
            + (sep + zero) * (len(path.a) - start - len(entries)) + tail)


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, where a
    ``linalg._Path`` stands for the dense rows of its form.

    The stdlib drops its C encoder when ``indent`` is set, and its Python
    encoder then writes a matrix one token at a time.  Here each row of a
    ``_Path`` is one ``_row`` string, and a list whose elements are
    all exactly ``int`` is one join in which only large ints go through
    ``str`` (``_ints``); a dict writes its str, int, bool and None values
    and its int lists in place (``_fields``), and a list of dicts writes
    each in one pass, with the sorted keys of each key set made once; an
    element that is the same object as the one before it reuses that
    one's text; and any other list or tuple met again at the same indent,
    such as the matrix that a chain's presentations share, copies the
    pieces of its first text.  The ids that key those spans stay valid
    because every node belongs to the caller's tree for the whole call.
    The tree may hold dicts with str keys, lists, tuples, str, int, bool
    and None; anything else, floats and Fractions included, raises
    TypeError, because reports are exact.
    """
    out = []
    _write(obj, "\n", out, {})
    return "".join(out)


def _ints(obj, newline):
    """The JSON text of the nonempty list or tuple ``obj`` of exact ints
    (a caller checks the types: True prints as true); an int outside
    ``_INT_TEXTS`` goes through str."""
    texts = [_INT_TEXTS.get(x) or str(x) for x in obj]
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _heads(keys, inner):
    """(key, head) for the str ``keys`` in sorted order, head the text
    that starts the key's line in a dict whose lines begin with ``inner``."""
    sep, heads = "{" + inner, []
    for key in sorted(keys):
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        heads.append((key, sep + _ESCAPE(key) + ": "))
        sep = "," + inner
    return heads


def _fields(obj, heads, newline, out, spans):
    """Append the JSON text of the nonempty dict ``obj``, its keys and
    their heads ``heads`` (``_heads``): scalars and int lists in place,
    not by a call each."""
    inner = newline + "  "
    for key, head in heads:
        value = obj[key]
        kind = type(value)
        if kind is str:
            out.append(head + _ESCAPE(value))
        elif kind is int:
            out.append(head + int.__repr__(value))
        elif kind is bool or value is None:
            out.append(head + ("null" if value is None else "true" if value else "false"))
        elif (kind is list or kind is tuple) and value and set(map(type, value)) == {int}:
            out.append(head + _ints(value, inner))
        else:
            out.append(head)
            _write(value, inner, out, spans)
    out.append(newline + "}")


def _write(obj, newline, out, spans):
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is a line
    break plus the indent of the line ``obj`` starts on, and ``spans``
    maps id(list) to (newline, start, end) of a text already in ``out``."""
    if isinstance(obj, str):
        out.append(_ESCAPE(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        form = type(obj) is _Path  # written as its dense rows
        if not (obj.a if form else obj):
            out.append("[]")
            return
        kinds = set(map(type, obj))
        if kinds == {int}:  # not isinstance: True prints as true
            out.append(_ints(obj, newline))
            return
        span = spans.get(id(obj))
        if span is not None and span[0] == newline:
            out += out[span[1]:span[2]]
            return
        inner = newline + "  "
        start, sep = len(out), "," + inner
        lead, last = "[" + inner, out  # no element is the output list
        if form:  # one piece per row
            entry = inner + "  "
            for i in range(len(obj.a)):
                out.append(_row(obj, i, lead + "[" + entry, "," + entry, inner + "]"))
                lead = sep
        elif kinds == {dict}:  # one pass; the sorted keys once per key set
            order = {}
            for x in obj:
                out.append(lead)
                if x is last:
                    out += out[mark:end]
                elif not x:
                    last, mark = x, len(out)
                    out.append("{}")
                    end = len(out)
                else:
                    keys = tuple(x)
                    heads = order.get(keys) or order.setdefault(keys, _heads(keys, inner + "  "))
                    last, mark = x, len(out)
                    _fields(x, heads, inner, out, spans)
                    end = len(out)
                lead = sep
        else:
            for x in obj:
                out.append(lead)
                if x is last:
                    out += out[mark:end]
                else:
                    last, mark = x, len(out)
                    _write(x, inner, out, spans)
                    end = len(out)
                lead = sep
        out.append(newline + "]")
        spans[id(obj)] = newline, start, len(out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        _fields(obj, _heads(obj, newline + "  "), newline, out, spans)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit(report: dict, as_json: bool, lines) -> None:
    """Print the report; a reader closing the pipe early ends only the output."""
    try:
        if as_json:
            print(json_text(report))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now writes to nowhere, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _d3_lines(pres, results, spectrum):
    """Text report of ``cmd_d3``, produced only when it is printed; the
    framings of ``pres`` and its form's rows made once, for every entry
    of ``results``, the spectrum in numeric order."""
    path = pres.path
    head = f"presentation: framings {path.a} (l = {pres.l})"
    rows = [_row(path, i, "  ", " ", "", "{:4d}".format) for i in range(len(path.a))]
    for res in results:
        yield head
        yield from rows
        for v in res["values"]:
            yield (f"  rot {v['rotations']}: chi={v['chi']} sigma={v['sigma']} "
                   f"c^2={v['c_squared']} l={v['l']}  d3 = {v['d3']}")
    values = sorted(spectrum, key=lambda pair: Fraction(*pair))
    yield "d3 spectrum: " + ", ".join(ratio_text(*v) for v in values)


def cmd_d3(args) -> int:
    if (args.slope is None) == (args.coeff is None):
        print("error: give exactly one of --slope (smooth) or --coeff (contact)",
              file=sys.stderr)
        return 2
    L = LegendrianData(args.tb, args.rot)
    if args.slope is not None:
        smooth = parse_slope(args.slope)
    else:
        smooth = args.tb + parse_slope(args.coeff)
    # a fresh plan is made at L.rot: its presentations are this knot's
    plan, _, nums, pairs = d3_records(L, smooth)
    pres = plan.presentation
    framings, l, pins = pres.path.a, pres.l, pres.pinned.count(1)
    head = {"chi": len(framings) + 1, "sigma": plan.sigma, "l": l}
    value = {num: {**head, "c_squared": ratio_text(num, plan.det), "d3": ratio_text(a, b)}
             for num, (a, b) in pairs.items()}
    values = [{"rotations": list(r), **value[num]} for r, num in zip(plan.rotations(0), nums)]
    # the l push-offs share one dict, the chain rows of one framing one, and
    # the stabilized push-off, if there is one, has a dict per rotation number
    pushoffs = [{"role": "pushoff", "tb": pres.base_tb, "rot": pres.base_rot, "sign": 1}] * l
    chain = framings[pins:]
    links = {x: {"role": "chain", "tb": x + 1, "rot": None, "sign": -1} for x in set(chain)}
    tail = list(map(links.__getitem__, chain))
    stabilized = ([[{"role": "pushoff", "tb": framings[l] + 1, "rot": r, "sign": -1}]
                   for r in pres.choices[l]] if pins > l else [[]])
    results = [{"presentation": {"components": pushoffs + one + tail, "l": l},
                "matrix": pres.path, "values": run}  # one path, written once
               for one, run in zip(stabilized, plan.runs(values))]
    spectrum = set(pairs.values())
    report = envelope("d3", {"tb": args.tb, "rot": args.rot, "smooth_slope": str(smooth)},
                      {"presentations": results,
                       "spectrum": sorted(ratio_text(a, b) for a, b in spectrum)})
    emit(report, args.json, _d3_lines(pres, results, spectrum))
    return 0


def _cs_set_lines(members):
    """Text report of ``cmd_cs_set``, produced only when it is printed."""
    yield ", ".join(members)


def cmd_cs_set(args) -> int:
    p = args.p
    # -p/q' is in lowest terms: q' is q or its inverse mod p, plus a multiple of p
    members = [f"-{p}/{d}" if d > 1 else f"{p}/{-d}" if d < -1 else str(-p * d)
               for d in _cs_set_dens(p, args.q, args.bound)]
    report = envelope("cs-set", {"p": args.p, "q": args.q, "bound": args.bound},
                      {"members": members})
    emit(report, args.json, _cs_set_lines(members))
    return 0


def _unknot_lines(args, result):
    """Text report of ``cmd_unknot``, produced only when it is printed."""
    count = result.count_at_slope
    yield (f"contact ({result.contact_coeff})-surgery on the tb={args.tb}, "
           f"rot={args.rot} unknot: smooth slope {result.smooth_slope}")
    yield f"tightness: {result.tightness}"
    yield f"canonical slope: {result.canonical}  lens space: L{result.lens}"
    yield (f"equivalence class: {result.equivalence}"
           + ("" if count is None else
              f", {count} equivalent {'surgery' if count == 1 else 'surgeries'} at this slope"))


def cmd_unknot(args) -> int:
    L = LegendrianData(args.tb, args.rot)
    result = unknot_classify(L, parse_slope(args.coeff))
    emit(envelope("unknot", {"tb": args.tb, "rot": args.rot, "coeff": args.coeff},
                  result.to_json()), args.json, _unknot_lines(args, result))
    return 0


def cmd_verify(args) -> int:
    summaries = []
    lines = []
    for name, rep in regressions.verify(args.k_max, args.n_max).items():
        summaries.append({"name": name, "ok": rep["ok"], "checks": rep["checks"],
                          "mismatches": rep["mismatches"]})
        status = "ok" if rep["ok"] else "MISMATCH"
        lines.append(f"{name}: {rep['checks']} checks, {status}")
        if not rep["ok"]:
            lines.append(f"  first mismatch: {rep['mismatches'][0]}")
    ok = all(summary["ok"] for summary in summaries)
    emit(envelope("verify", {"k_max": args.k_max, "n_max": args.n_max},
                  {"summaries": summaries, "ok": ok}),
         args.json, lines)
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: building it costs
    more than most commands."""
    parser = argparse.ArgumentParser(
        prog="contactsurg",
        description="exact contact-surgery invariants and cosmetic-surgery checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("d3", help="d3 invariants of a contact surgery")
    p.add_argument("--tb", type=int, required=True)
    p.add_argument("--rot", type=int, required=True)
    p.add_argument("--slope", help="smooth surgery coefficient p/q")
    p.add_argument("--coeff", help="contact surgery coefficient p/q")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_d3)

    p = sub.add_parser("cs-set", help="cosmetic slope set of -p/q")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--bound", type=int, default=20, help="denominator bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cs_set)

    p = sub.add_parser("unknot", help="classify a contact surgery on an unknot")
    p.add_argument("--tb", type=int, required=True)
    p.add_argument("--rot", type=int, required=True)
    p.add_argument("--coeff", required=True, help="contact surgery coefficient")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_unknot)

    p = sub.add_parser("verify", help="closed forms, d3 regressions, scan")
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def _join_slope_values(argv):
    """Merge '--slope -1/2' into '--slope=-1/2' so argparse does not read
    the negative slope as an option string."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--slope", "--coeff") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_join_slope_values(list(argv)))
    try:
        return args.func(args)
    except (SlopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a self-check of the library failed
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
