"""Cosmetic contact surgery obstructions and the unknot classification.

A pair of contact surgeries on the same Legendrian knot can only be
contactomorphic if the underlying smooth surgeries already agree, which
restricts the slope pair to +-2 (Seifert genus 2 only) or +-1/n, forces
the concordance invariant tau to vanish, and hence pins the rotation
number range.  For each admissible cell the two d3 spectra are computed
exactly; disjoint spectra obstruct cosmetic surgeries.  The only cell
this machinery cannot obstruct is +-2 surgery on a tb = -1 knot, where
both spectra are {1/4}; that cell is reported together with the list of
knot-type predicates any exceptional knot would have to satisfy.

The module also classifies contact surgeries on Legendrian unknots:
which are unique, which admit infinitely many cosmetic companions, and
how many equivalent contact surgeries live at a given companion slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .closedforms import DEFAULT_FORMS
from .farey import (
    CLOCKWISE,
    DecoratedFareyPath,
    cf_blocks,
    decorated_path_key,
    minimal_path,
    shorten,
)
from .invariants import d3_spectrum, d3_spectrum_detail
from .slopes import Slope, SlopeError, canonical_slope, lens_parameters
from .surgery import ContactZeroError, LegendrianData

EXCEPTIONAL_FLAGS = (
    "tau=0",
    "max_tb=-1",
    "seifert_genus=2",
    "slice_genus=0",
    "prime",
    "quasi-positive",
    "lagrangian-slice",
)


def rot_range(tb: int):
    """Rotation numbers admissible for a knot with tau = 0 and the given
    tb: the Bennequin-type bound tb + |rot| <= -1 with parity gives
    tb+1, tb+3, ..., -tb-1."""
    if tb > -1:
        raise ValueError(
            "tb >= 0 is outside the obstruction machinery; such knots are "
            "handled by the classical bounds alone"
        )
    return list(range(tb + 1, -tb, 2))


def candidate_slopes(genus: int, n_max: int = 10):
    """Positive magnitudes v of candidate cosmetic slope pairs {+-v}.

    Every candidate pair is +-1/n; +-2 occurs only in Seifert genus 2.
    """
    out = []
    if genus == 2:
        out.append(Fraction(2))
    out.extend(Fraction(1, n) for n in range(1, n_max + 1))
    return out


@dataclass(frozen=True)
class CosmeticVerdict:
    slope_pair: tuple
    spectrum_neg: frozenset
    spectrum_pos: frozenset
    outcome: str  # obstructed | not_obstructed | contact_zero
    exception_flags: tuple = ()

    def to_json(self):
        return {
            "slope_pair": [str(s) for s in self.slope_pair],
            "spectrum_neg": sorted(str(v) for v in self.spectrum_neg),
            "spectrum_pos": sorted(str(v) for v in self.spectrum_pos),
            "outcome": self.outcome,
            "exception_flags": list(self.exception_flags),
        }


def check_pair(L: LegendrianData, v) -> CosmeticVerdict:
    """Obstruct the cosmetic pair {-v, +v} on L through d3 spectra.

    The cell where -v equals the contact-0 slope (v = -tb) is reported
    as contact_zero rather than silently skipped.
    """
    v = Fraction(v)
    if v <= 0:
        raise ValueError("slope magnitude must be positive")
    if L.rot not in rot_range(L.tb):
        raise ValueError("rotation number outside the admissible range")
    return _verdict(L.tb, v, lambda slope: d3_spectrum(L, slope))


def _verdict(tb: int, v: Fraction, spectrum) -> CosmeticVerdict:
    """Verdict on the pair {-v, +v} for a knot with this tb, where
    ``spectrum(slope)`` is the d3 spectrum at a smooth slope.  It is not
    called for the contact-0 cell (-v = tb)."""
    pair = (-v, v)
    if -v == tb:
        return CosmeticVerdict(pair, frozenset(), frozenset(), "contact_zero")
    neg = frozenset(spectrum(-v))
    pos = frozenset(spectrum(v))
    if neg.isdisjoint(pos):
        return CosmeticVerdict(pair, neg, pos, "obstructed")
    flags = EXCEPTIONAL_FLAGS if (tb, v) == (-1, 2) else ()
    return CosmeticVerdict(pair, neg, pos, "not_obstructed", flags)


# ---------------------------------------------------------------------------
# integer-solution searches for the d3-equality equations, tb = -k <= -3

def _integer_roots_quadratic(b, c):
    """Integer roots of x^2 + b x + c."""
    disc = b * b - 4 * c
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    out = []
    for r in ((-b + root), (-b - root)):
        if r % 2 == 0:
            out.append(r // 2)
    return sorted(set(out))


def d3_negative_one_over_n(k, n, i, e, j):
    """d3 of the -1/n surgery trace on a tb = -k knot (exact rational)."""
    return Fraction(DEFAULT_FORMS["one_neg_csq"](k, n, i, e, j) + k + n - 2, 4) + 1


def d3_positive_one_over_n(k, n, i, e, s):
    """d3 of the +1/n surgery trace on a tb = -k knot (exact rational)."""
    return Fraction(DEFAULT_FORMS["one_pos_csq"](k, n, i, e, s) + k - 5, 4) + 1


def solve_d3_equation(tb: int, family: str, n_max: int = 20):
    """Admissible integer solutions of the d3-equality equations.

    family 'pm_one' and 'pm_two' reduce, for each choice of the two
    stabilization signs, to a monic quadratic in the rotation number i;
    'pm_one_over_n' is linear in (n, s) for fixed (i, signs, j), and n is
    solved exactly with the constraints 2 <= n <= n_max, -n < s < n and
    the parity of s.  Returns every admissible solution (the cosmetic
    surgery statements amount to these lists being empty).
    """
    k = -tb
    if k < 3:
        raise ValueError("the equation families cover tb <= -3")
    rots = rot_range(tb)
    solutions = []

    if family in ("pm_one", "pm_two"):
        if family == "pm_two" and k < 4:
            raise ValueError("the +-2 equation family needs tb <= -4")
        for e1, e2 in product((1, -1), repeat=2):
            if family == "pm_one":
                b = -(k * e2 + e1 * (k - 2))
            else:
                b = e2 * (k + 1) - e1 * (k - 3)
            c = k * k - 2 * k - 1
            for i in _integer_roots_quadratic(b, c):
                if i in rots:
                    solutions.append({"family": family, "i": i, "e1": e1, "e2": e2})
        return solutions

    if family != "pm_one_over_n":
        raise ValueError(f"unknown family {family!r}")

    sign_k = (-1) ** k
    for i in rots:
        for e1, e2, j in product((1, -1), repeat=3):
            # coefficient of n, of s, and the constant in c2pos - c2neg - n - 3
            a_n = (
                2 * i * i
                - 2 * (k - 1) * (e1 + e2) * i
                + 2 * (k - 1) ** 2
                - 2 * j * sign_k * (i - e1 * (k - 1))
            )
            d_s = 2 * sign_k * (i - e2 * (k - 1))
            c_0 = 2 * (e1 - e2) * i - 4 + 2 * j * sign_k * (i - e1 * (k - 1))
            for s in range(-(n_max - 1), n_max):
                if a_n == 0:
                    if d_s * s + c_0 == 0:
                        solutions.append(
                            {"family": family, "i": i, "e1": e1, "e2": e2,
                             "j": j, "s": s, "n": "all"}
                        )
                    continue
                num = -(d_s * s + c_0)
                if num % a_n != 0:
                    continue
                n = num // a_n
                if not (2 <= n <= n_max):
                    continue
                if abs(s) >= n or (s - (n - 1)) % 2 != 0:
                    continue
                sol = {"family": family, "i": i, "e1": e1, "e2": e2, "j": j, "s": s, "n": n}
                neg = d3_negative_one_over_n(k, n, i, e1, j)
                pos = d3_positive_one_over_n(k, n, i, e2, s)
                if neg != pos:
                    raise RuntimeError(f"solver and closed forms disagree at tb={tb}, "
                                       f"{sol}: d3 {neg} at -1/n against {pos} at +1/n")
                solutions.append(sol)
    return solutions


def scan(tb_min: int, tb_max: int, n_max: int) -> dict:
    """Run check_pair over tb in [tb_min, tb_max], all admissible
    rotation numbers, the +-2 pair and the +-1/n pairs with n <= n_max.

    The report carries both spectra and the matrix provenance for every
    cell, plus the equation-solver results for tb <= -3.
    """
    if tb_max > -1:
        raise ValueError("scan covers tb <= -1")
    cells = []
    not_obstructed = []
    magnitudes = [Fraction(2)] + [Fraction(1, n) for n in range(1, n_max + 1)]
    for tb in range(tb_min, tb_max + 1):
        for rot in rot_range(tb):
            L = LegendrianData(tb, rot)
            for v in magnitudes:
                prov = {}

                def spectrum(slope):
                    prov[slope] = _provenance(L, slope)
                    return [Fraction(v["d3"]) for rec in prov[slope] for v in rec["values"]]

                verdict = _verdict(tb, v, spectrum)
                cell = {"tb": tb, "rot": rot, "pair": [str(-v), str(v)],
                        "verdict": verdict.to_json()}
                if prov:
                    cell["provenance"] = {"neg": prov[-v], "pos": prov[v]}
                cells.append(cell)
                if verdict.outcome == "not_obstructed":
                    not_obstructed.append({"tb": tb, "rot": rot, "v": str(v)})
    solver = []
    for tb in range(tb_min, min(tb_max, -3) + 1):
        families = ["pm_one", "pm_one_over_n"] + (["pm_two"] if tb <= -4 else [])
        for family in families:
            for sol in solve_d3_equation(tb, family, n_max=n_max):
                solver.append({"tb": tb, **sol})
    return {
        "range": {"tb_min": tb_min, "tb_max": tb_max, "n_max": n_max},
        "cells": cells,
        "not_obstructed": not_obstructed,
        "solver_solutions": solver,
    }


def _provenance(L, slope):
    detail = d3_spectrum_detail(L, slope)
    out = []
    for rec in detail:
        out.append({
            "framings": [c.framing for c in rec["presentation"].components],
            "l": rec["presentation"].l,
            "values": [
                {"rotations": v["rotations"], "d3": str(v["d3"].d3)}
                for v in rec["values"]
            ],
        })
    return out


# ---------------------------------------------------------------------------
# Legendrian unknots

@dataclass(frozen=True)
class UnknotSurgeryClass:
    tb: int
    rot: int
    contact_coeff: Fraction
    smooth_slope: Fraction
    tightness: str  # tight | overtwisted
    canonical: Slope
    lens: tuple
    equivalence: str  # unique | infinite
    count_at_slope: int | None

    def to_json(self):
        return {
            "tb": self.tb,
            "rot": self.rot,
            "contact_coeff": str(self.contact_coeff),
            "smooth_slope": str(self.smooth_slope),
            "tightness": self.tightness,
            "canonical_slope": str(self.canonical),
            "lens_space": list(self.lens),
            "equivalence": self.equivalence,
            "count_at_slope": self.count_at_slope,
        }


def _complement_signs(tb: int, rot: int):
    """Sign multiset decorating the complement of a Legendrian unknot.

    The complement path runs from the surgery-dual slope 0 back to tb;
    its first edge is unsigned and the remaining -tb - 1 edges carry the
    stabilization signs, whose sum is the rotation number.
    """
    k = -tb
    plus = (k - 1 + rot) // 2
    minus = (k - 1) - plus
    if plus < 0 or minus < 0:
        raise ValueError("rotation number out of range for an unknot")
    return [1] * plus + [-1] * minus


def _surgery_decorations(path):
    """One representative decoration per block-equivalence class, for a
    solid-torus path (first edge unsigned)."""
    blocks = cf_blocks(path)
    per_block = []
    for block in blocks:
        signed = [i for i in block if i != 0]
        per_block.append((signed, range(len(signed) + 1)))
    reps = []
    for choice in product(*(r for _, r in per_block)):
        signs = [None] * (len(path) - 1)
        for (edges, _), plus_count in zip(per_block, choice):
            for pos, idx in enumerate(edges):
                signs[idx] = 1 if pos < plus_count else -1
        reps.append(tuple(signs))
    return reps


def equivalent_surgery_count(tb: int, rot: int, contact_coeff) -> int:
    """Number of contact surgeries at this slope giving one and the same
    tight result, computed by the block-quotient fiber argument.

    Enumerates the decorated surgery tori at the slope, glues each to
    the complement of the Legendrian unknot, shortens, and counts the
    decorations landing on a single tight structure of the lens space.
    All tight fibers have equal size, which is asserted.
    """
    contact_coeff = Fraction(contact_coeff)
    smooth = tb + contact_coeff
    if smooth == 0:
        raise SlopeError("zero smooth slope excluded")
    if tb < smooth < 0:
        raise ValueError("overtwisted regime; per-slope counts are tight-only")
    surgery_path = minimal_path(Slope(smooth), Slope(tb), CLOCKWISE)
    comp_vertices = [Slope(t) for t in range(tb, 1)]  # tb, tb+1, ..., 0
    comp_signs = [s for s in _complement_signs(tb, rot)] + [None]
    vertices = tuple(surgery_path) + tuple(comp_vertices[1:])
    fibers = {}
    for dec in _surgery_decorations(surgery_path):
        signs = tuple(dec) + tuple(comp_signs)
        shortened, verdict = shorten(DecoratedFareyPath(vertices, signs))
        if verdict != "tight":
            continue
        key = decorated_path_key(shortened)
        fibers[key] = fibers.get(key, 0) + 1
    if not fibers:
        raise RuntimeError("no tight decoration found in the tight regime")
    sizes = set(fibers.values())
    if len(sizes) != 1:
        raise RuntimeError(f"tight fibers of unequal size: {fibers}")
    return sizes.pop()


def unknot_classify(L: LegendrianData, contact_coeff) -> UnknotSurgeryClass:
    """Classify a contact surgery on a Legendrian unknot.

    With |rot| < |tb + 1| and smooth slope below tb the surgery is a
    chain of Legendrian surgeries: tight, and equivalent to no other
    contact surgery on the knot.  Every other admissible case admits
    infinitely many cosmetic companions across the slope set of its lens
    space; boundary-rotation unknots (|rot| = |tb + 1|) give tight
    results exactly when the smooth slope avoids the interval (tb, 0),
    and then the number of equivalent surgeries at the slope itself is
    computed by the Farey block count.
    """
    tb, rot = L.tb, L.rot
    if tb > -1:
        raise ValueError("Legendrian unknots have tb <= -1")
    if abs(rot) > -tb - 1:
        raise ValueError("|rot| must be at most -tb - 1 for an unknot")
    contact_coeff = Fraction(contact_coeff)
    if contact_coeff == 0:
        raise ContactZeroError("contact (0)-surgery is not well-defined")
    smooth = tb + contact_coeff
    if smooth == 0:
        raise SlopeError("zero smooth surgery excluded")
    canonical = canonical_slope(Slope(smooth))
    lens = lens_parameters(Slope(smooth))
    boundary_rotation = abs(rot) == abs(tb + 1)
    in_overtwisted_interval = tb < smooth < 0
    if not boundary_rotation and smooth < tb:
        return UnknotSurgeryClass(tb, rot, contact_coeff, smooth, "tight",
                                  canonical, lens, "unique", None)
    if not boundary_rotation:
        # slope not less than tb forces mixed signs against the complement
        return UnknotSurgeryClass(tb, rot, contact_coeff, smooth, "overtwisted",
                                  canonical, lens, "infinite", None)
    if in_overtwisted_interval:
        return UnknotSurgeryClass(tb, rot, contact_coeff, smooth, "overtwisted",
                                  canonical, lens, "infinite", None)
    count = equivalent_surgery_count(tb, rot, contact_coeff)
    return UnknotSurgeryClass(tb, rot, contact_coeff, smooth, "tight",
                              canonical, lens, "infinite", count)
