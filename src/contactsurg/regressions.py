"""Regression suite for the worked d3 spectra.

Every (tb, slope) pair with a known exact d3 spectrum is recomputed
through the full pipeline (conversion, linking matrix, signature, c1^2)
and compared against the closed expectation; the cells of one tb share
one plan dict, so each (tb, slope) is planned once.  These are the values
behind the cosmetic-surgery obstructions for tb = -1, -2, -3:

  tb=-1: smooth -1/n gives {1}, +1/n gives {0} (n >= 2), both +-2 give 1/4;
  tb=-2: smooth -1 gives {1}, +1 gives {0, 2}, -1/n gives {1, 3-2n},
         and the +1/n spectrum is {0, 2, 4, ..., 2n};
  tb=-3: smooth -2 gives {3/4, 5/4} and +2 gives {1/4, 7/4, 17/4},
         split by rotation number as recorded below.
"""

from __future__ import annotations

from fractions import Fraction

from .invariants import d3_records
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


def _check_cells(tb, n_bound, plans):
    """(ok, context) of each cell of tb, their plans made in ``plans``."""
    results = []
    for _, rot, slope, expected in _cells(tb, n_bound):
        pairs = d3_records(LegendrianData(tb, rot), slope, plans)[3]
        actual = {Fraction(a, b) for a, b in pairs.values()}
        results.append((actual == expected, {
            "tb": tb,
            "rot": rot,
            "smooth_slope": str(slope),
            "expected": sorted(str(v) for v in expected),
            "actual": sorted(str(v) for v in actual),
        }))
    return results


def _report(results) -> dict:
    mismatches = [ctx for ok, ctx in results if not ok]
    return {"checks": len(results), "mismatches": mismatches, "ok": not mismatches}


def verify_d3_regressions(n_bound: int = 50) -> dict:
    """Recompute all worked d3 spectra and report mismatches."""
    return _report([result for tb in (-1, -2, -3) for result in _check_cells(tb, n_bound, {})])
