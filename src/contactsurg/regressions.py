"""The worked d3 spectra, and ``verify``: the one walk over tb behind
``contactsurg verify``, whose three stages share each tb's plans.

Every (tb, slope) pair with a known exact d3 spectrum is recomputed
through the full pipeline (conversion, linking matrix, signature, c1^2)
and compared against the closed expectation.  These are the values
behind the cosmetic-surgery obstructions for tb = -1, -2, -3:

  tb=-1: smooth -1/n gives {1}, +1/n gives {0} (n >= 2), both +-2 give 1/4;
  tb=-2: smooth -1 gives {1}, +1 gives {0, 2}, -1/n gives {1, 3-2n},
         and the +1/n spectrum is {0, 2, 4, ..., 2n};
  tb=-3: smooth -2 gives {3/4, 5/4} and +2 gives {1/4, 7/4, 17/4},
         split by rotation number as recorded below.
"""

from __future__ import annotations

from fractions import Fraction

from . import closedforms, cosmetic
from .invariants import NonTorsionEulerClassError, PipelineCheckError, d3_records
from .surgery import LegendrianData


def _cells(tb: int, n_bound: int):
    """The cells (tb, rot, smooth slope, expected spectrum) of tb."""
    cells = []
    if tb == -1:
        for n in range(2, n_bound + 1):
            cells.append((-1, 0, Fraction(-1, n), {Fraction(1)}))
            cells.append((-1, 0, Fraction(1, n), {Fraction(0)}))
        cells.append((-1, 0, Fraction(-2), {Fraction(1, 4)}))
        cells.append((-1, 0, Fraction(2), {Fraction(1, 4)}))
    elif tb == -2:
        for rot in (1, -1):
            cells.append((-2, rot, Fraction(-1), {Fraction(1)}))
            cells.append((-2, rot, Fraction(1), {Fraction(0), Fraction(2)}))
            for n in range(2, n_bound + 1):
                cells.append((-2, rot, Fraction(-1, n), {Fraction(1), Fraction(3 - 2 * n)}))
                cells.append((-2, rot, Fraction(1, n),
                              {Fraction(0)} | {Fraction(m) for m in range(2, 2 * n + 1, 2)}))
    elif tb == -3:
        for rot, neg, pos in (
            (0, {Fraction(5, 4)}, {Fraction(7, 4)}),
            (2, {Fraction(3, 4)}, {Fraction(1, 4), Fraction(17, 4)}),
            (-2, {Fraction(3, 4)}, {Fraction(1, 4), Fraction(17, 4)}),
        ):
            cells.append((-3, rot, Fraction(-2), neg))
            cells.append((-3, rot, Fraction(2), pos))
    return cells


# a pipeline error on a cell: verify records it as a mismatch of the
# stage it hit, as ``closedforms._family`` does, and goes on
_ERRORS = (PipelineCheckError, NonTorsionEulerClassError)


def _check_cells(tb, n_bound, plans):
    """(ok, context) of each cell of tb, their plans made in ``plans``; a
    cell whose d3 route raises one of ``_ERRORS`` is not ok, with the
    error's text in place of its actual spectrum."""
    results = []
    for _, rot, slope, expected in _cells(tb, n_bound):
        context = {"tb": tb, "rot": rot, "smooth_slope": str(slope),
                   "expected": sorted(str(v) for v in expected)}
        try:
            pairs = d3_records(LegendrianData(tb, rot), slope, plans)[3]
        except _ERRORS as exc:
            results.append((False, {**context, "error": str(exc)}))
            continue
        actual = {Fraction(a, b) for a, b in pairs.values()}
        results.append((actual == expected, {**context, "actual": sorted(str(v) for v in actual)}))
    return results


def verify(k_max: int = 20, n_max: int = 20) -> dict:
    """The reports of verify's three stages, in print order.  They walk
    tb = -1, -2, ..., -max(k_max, 8) once, and at each tb share one dict
    of plans, made in it and dropped when tb moves on: the closed-form
    families of tb (``closedforms._families``, the lemma matrices checked
    first), its d3 regression cells, and for tb >= -8 its obstruction-scan
    cells with n <= min(n_max, 8), of which the count and the unobstructed
    cells are kept; the scan's report adds the d3-equality solutions for
    -k_max <= tb <= -3 (none expected).  Mismatches are collected, not
    raised: a pipeline error (``_ERRORS``) on a regression cell fails that
    cell, one in a tb's scan cells is one scan mismatch of that tb, whose
    cells are then not counted, and one in the d3-equality solver (its
    check of a solution against the closed forms) is one scan mismatch.
    ValueError unless k_max >= 3 and n_max >= 1."""
    closed = closedforms._lemmas(k_max, n_max)
    results, scanned, not_obstructed, errors = [], 0, [], []
    for tb in range(-1, -max(k_max, 8) - 1, -1):
        plans = {}
        closedforms._families(closed, tb, k_max, n_max, plans)
        results += _check_cells(tb, n_max, plans)
        if tb >= -8:
            try:
                cells, tb_open = cosmetic._scan_tb(tb, min(n_max, 8), plans)
            except _ERRORS as exc:
                errors.append({"check": "scan", "tb": tb, "error": str(exc)})
                continue
            scanned += len(cells)
            not_obstructed[:0] = tb_open  # ascending tb, as scan_cells lists them
            del cells  # their sides hold the plans of tb
    mismatches = [ctx for ok, ctx in results if not ok]
    try:
        solutions = cosmetic.solve_d3_equations(-k_max, -3, n_max)
    except _ERRORS as exc:
        solutions = []
        errors.append({"check": "scan", "error": str(exc)})
    ok = not_obstructed == [{"tb": -1, "rot": 0, "v": "2"}] and not solutions and not errors
    scan = {"ok": ok, "checks": scanned, "mismatches": [] if ok else errors + [
        {"check": "scan", "not_obstructed": not_obstructed, "solver_solutions": solutions}]}
    return {"closed forms": closed.as_dict(),
            "d3 regressions": {"checks": len(results), "mismatches": mismatches,
                               "ok": not mismatches},
            "obstruction scan": scan}
