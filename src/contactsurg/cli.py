"""Command line front end.

Subcommands: d3 (single surgery computation), cs-set (cosmetic slope
set), unknot (classification of a contact surgery on a Legendrian
unknot), verify (closed-form sweep, d3 regressions, obstruction scan).

All numbers in reports are exact integers or "p/q" strings; exit code 0
means success, 1 a verification mismatch, 2 a usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .closedforms import verify_closed_forms
from .cosmetic import scan, solve_d3_equation, unknot_classify
from .invariants import d3_spectrum_detail
from .regressions import verify_d3_regressions
from .slopes import SlopeError, cs_set, parse_slope
from .surgery import LegendrianData


def _fraction(text: str) -> Fraction:
    return parse_slope(text).as_fraction()


def envelope(command: str, inputs: dict, results) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }


def emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _d3_lines(detail, results, values):
    """Text report of ``cmd_d3``, produced only when it is printed."""
    for rec, res in zip(detail, results):
        pres = rec["presentation"]
        yield (f"presentation: framings {[c.framing for c in pres.components]} "
               f"(l = {pres.l})")
        for row in res["matrix"]:
            yield "  " + " ".join(f"{x:4d}" for x in row)
        for v in res["values"]:
            yield (f"  rot {v['rotations']}: chi={v['chi']} sigma={v['sigma']} "
                   f"c^2={v['c_squared']} l={v['l']}  d3 = {v['d3']}")
    yield "d3 spectrum: " + ", ".join(str(v) for v in sorted(values))


def cmd_d3(args) -> int:
    if (args.slope is None) == (args.coeff is None):
        print("error: give exactly one of --slope (smooth) or --coeff (contact)",
              file=sys.stderr)
        return 2
    L = LegendrianData(args.tb, args.rot)
    smooth = _fraction(args.slope) if args.slope else args.tb + _fraction(args.coeff)
    detail = d3_spectrum_detail(L, smooth)
    results = []
    values = set()
    for rec in detail:
        vals = [{"rotations": v["rotations"], **v["d3"].to_json()} for v in rec["values"]]
        values.update(v["d3"].d3 for v in rec["values"])
        results.append({
            "presentation": rec["presentation"].to_json(),
            "matrix": rec["form"].rows(),
            "values": vals,
        })
    report = envelope("d3", {"tb": args.tb, "rot": args.rot, "smooth_slope": str(smooth)},
                      {"presentations": results,
                       "spectrum": sorted(str(v) for v in sorted(values))})
    emit(report, args.json, _d3_lines(detail, results, values))
    return 0


def cmd_cs_set(args) -> int:
    members = cs_set(args.p, args.q, args.bound)
    report = envelope("cs-set", {"p": args.p, "q": args.q, "bound": args.bound},
                      {"members": [str(s) for s in members]})
    emit(report, args.json, [", ".join(str(s) for s in members)])
    return 0


def cmd_unknot(args) -> int:
    L = LegendrianData(args.tb, args.rot)
    result = unknot_classify(L, _fraction(args.coeff))
    data = result.to_json()
    lines = [
        f"contact ({result.contact_coeff})-surgery on the tb={args.tb}, "
        f"rot={args.rot} unknot: smooth slope {result.smooth_slope}",
        f"tightness: {result.tightness}",
        f"canonical slope: {result.canonical}  lens space: L{result.lens}",
        f"equivalence class: {result.equivalence}"
        + (f", {result.count_at_slope} equivalent surgeries at this slope"
           if result.count_at_slope is not None else ""),
    ]
    emit(envelope("unknot", {"tb": args.tb, "rot": args.rot, "coeff": args.coeff},
                  data), args.json, lines)
    return 0


def _scan_summary(n_max):
    report = scan(-8, -1, min(n_max, 8))
    ok = report["not_obstructed"] == [{"tb": -1, "rot": 0, "v": "2"}]
    ok = ok and not report["solver_solutions"]
    return {"ok": ok,
            "checks": len(report["cells"]),
            "mismatches": [] if ok else [{"check": "scan",
                                          "not_obstructed": report["not_obstructed"],
                                          "solver_solutions": report["solver_solutions"]}]}


def cmd_verify(args) -> int:
    summaries = []
    lines = []
    failed = False
    for name, job in (
        ("closed forms", lambda: verify_closed_forms(args.k_max, args.n_max)),
        ("d3 regressions", lambda: verify_d3_regressions(args.n_max)),
        ("obstruction scan", lambda: _scan_summary(args.n_max)),
    ):
        rep = job()
        summaries.append({"name": name, "ok": rep["ok"], "checks": rep["checks"],
                          "mismatches": rep["mismatches"]})
        status = "ok" if rep["ok"] else "MISMATCH"
        lines.append(f"{name}: {rep['checks']} checks, {status}")
        if not rep["ok"]:
            failed = True
            first = rep["mismatches"][0]
            lines.append(f"  first mismatch: {first}")
    for tb in range(-args.k_max, -2):
        for family in ("pm_one", "pm_one_over_n") + (("pm_two",) if tb <= -4 else ()):
            sols = solve_d3_equation(tb, family, n_max=args.n_max)
            if sols:
                failed = True
                lines.append(f"equation family {family} at tb={tb}: solutions {sols}")
    emit(envelope("verify", {"k_max": args.k_max, "n_max": args.n_max},
                  {"summaries": summaries, "ok": not failed}),
         args.json, lines)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(_join_slope_values(list(argv)))
    try:
        return args.func(args)
    except (SlopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
