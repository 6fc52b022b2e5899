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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .closedforms import DEFAULT_FORMS
from .farey import _classes, _edges, minimal_path_blocks
from .invariants import d3_records, ratio_text
from .slopes import SlopeError, canonical_slope, lens_parameters
from .surgery import ContactZeroError, LegendrianData, rot_range

EXCEPTIONAL_FLAGS = (
    "tau=0",
    "max_tb=-1",
    "seifert_genus=2",
    "slice_genus=0",
    "prime",
    "quasi-positive",
    "lagrangian-slice",
)


def candidate_slopes(genus: int, n_max: int = 10):
    """Positive magnitudes v of candidate cosmetic slope pairs {+-v}.

    Every candidate pair is +-1/n; +-2 occurs only in Seifert genus 2.
    """
    out = []
    if genus == 2:
        out.append(Fraction(2))
    out.extend(Fraction(1, n) for n in range(1, n_max + 1))
    return out


# ---------------------------------------------------------------------------
# integer-solution searches for the d3-equality equations, tb = -k <= -3

def _shifted_d3(k):
    """The integer 4 (d3 - 1) = c1^2 - 3 sigma - 2 size of each surgery
    trace on a tb = -k knot that the d3-equality families compare, from the
    csq and sigma forms of DEFAULT_FORMS, read once a call: the -1/n and
    +1/n traces as functions of (n, i, e, j) and (n, i, e, s), then the -2
    and +2 traces as functions of (i, e).  size is the number of rows of
    the trace's form, the linking matrix of the ``_presentation`` at tb = -k
    and that smooth slope."""
    f = DEFAULT_FORMS
    neg, neg_sigma, pos, pos_sigma = (f["one_neg_csq"], f["one_neg_sigma"], f["one_pos_csq"],
                                      f["one_pos_sigma"])
    two_neg, two_neg_sigma, two_pos, two_pos_sigma = (f["two_neg_csq"], f["two_neg_sigma"],
                                                      f["two_pos_csq"], f["two_pos_sigma"])
    return (lambda n, i, e, j: neg(k, n, i, e, j) - (3 * neg_sigma(k, n) + 2 * (k + n - 2)),
            lambda n, i, e, s: pos(k, n, i, e, s) - (3 * pos_sigma(k, n) + 2 * (k + 1)),
            lambda i, e: two_neg(k, i, e) - (3 * two_neg_sigma(k) + 2 * (k - 2)),
            lambda i, e: two_pos(k, i, e) - (3 * two_pos_sigma(k) + 2 * (k + 2)))


def solve_d3_equation(tb: int, family: str, n_max: int = 20):
    """Admissible integer solutions of the d3-equality equations.

    Each side's d3 comes from the closed forms of DEFAULT_FORMS, as the
    integer 4 (d3 - 1); e1 is the stabilization sign on the negative
    side and e2 on the positive one.  'pm_one' (the n = 1 case of the
    +-1/n forms) and 'pm_two' compare the sides at every admissible
    rotation number i.  For 'pm_one_over_n' and fixed (i, e1, e2, j) the
    difference of the sides is affine in (n, s); its coefficients are
    read at (n, s) = (0, 0), (1, 0) and (0, 1), the line is solved
    exactly with the constraints 2 <= n <= n_max, -n < s < n and the
    parity of s (``_affine_solutions``), and each solution is checked
    against the forms at its own (n, s), which guards the affine
    assumption.  Returns every admissible solution (the
    cosmetic surgery statements amount to these lists being empty).
    """
    k = -tb
    if k < 3:
        raise ValueError("the equation families cover tb <= -3")
    rots = rot_range(tb)
    signs = (1, -1)
    neg_n, pos_n, neg_2, pos_2 = _shifted_d3(k)

    if family in ("pm_one", "pm_two"):
        if family == "pm_two" and k < 4:
            raise ValueError("the +-2 equation family needs tb <= -4")
        if family == "pm_one":
            neg = {(i, e): neg_n(1, i, e, 0) for i in rots for e in signs}
            pos = {(i, e): pos_n(1, i, e, 0) for i in rots for e in signs}
        else:
            neg = {(i, e): neg_2(i, e) for i in rots for e in signs}
            pos = {(i, e): pos_2(i, e) for i in rots for e in signs}
        return [{"family": family, "i": i, "e1": e1, "e2": e2}
                for e1, e2 in product(signs, repeat=2) for i in rots
                if neg[i, e1] == pos[i, e2]]

    if family != "pm_one_over_n":
        raise ValueError(f"unknown family {family!r}")

    solutions = []
    for i in rots:
        # each side at the (n, s) that the coefficients are read from
        neg = {(e, j): (neg_n(0, i, e, j), neg_n(1, i, e, j)) for e, j in product(signs, repeat=2)}
        pos = {e: (pos_n(0, i, e, 0), pos_n(1, i, e, 0), pos_n(0, i, e, 1)) for e in signs}
        for e1, e2, j in product(signs, repeat=3):
            # 4 (d3 at +1/n - d3 at -1/n) = a_n n + d_s s + c_0
            (neg_0, neg_1), (pos_00, pos_10, pos_01) = neg[e1, j], pos[e2]
            c_0 = pos_00 - neg_0
            a_n = pos_10 - neg_1 - c_0
            d_s = pos_01 - neg_0 - c_0
            for s, n in _affine_solutions(a_n, d_s, c_0, n_max):
                sol = {"family": family, "i": i, "e1": e1, "e2": e2, "j": j, "s": s, "n": n}
                if n != "all" and pos_n(n, i, e2, s) != neg_n(n, i, e1, j):
                    raise RuntimeError(
                        f"solver and closed forms disagree at tb={tb}, {sol}: d3 "
                        f"{ratio_text(neg_n(n, i, e1, j) + 4, 4)} at -1/n "
                        f"against {ratio_text(pos_n(n, i, e2, s) + 4, 4)} at +1/n")
                solutions.append(sol)
    return solutions


def _affine_solutions(a_n, d_s, c_0, n_max):
    """The (s, n) with a_n n + d_s s + c_0 = 0, 2 <= n <= n_max, |s| < n
    and s = n - 1 (mod 2), in ascending s; for a_n = 0, (s, "all") for
    each |s| < n_max with d_s s + c_0 = 0.

    By extended Euclid (``pow``'s modular inverse), the integer solutions
    are s = s0 + step t, n = n0 + dn t over all t, with g = gcd(a_n, d_s)
    dividing c_0 and step = |a_n| / g.  Each bound is linear in t, so the
    solutions are one interval of t, every t or every other one by the
    parity of s - n + 1; the interval is bounded, by 2 <= n <= n_max when
    dn != 0 and by |s| < n when dn = 0.  O(log) steps and one per
    solution, where a walk over s takes O(n_max).
    """
    if a_n == 0:
        if d_s == 0:
            return [(s, "all") for s in range(-(n_max - 1), n_max)] if c_0 == 0 else []
        s, rest = divmod(-c_0, d_s)
        return [(s, "all")] if not rest and abs(s) < n_max else []
    g = gcd(a_n, d_s)
    if c_0 % g:
        return []
    a, d, c = a_n // g, d_s // g, c_0 // g
    step = abs(a)
    s0 = -c * pow(d, -1, step) % step
    n0, dn = (-c - d * s0) // a, -d if a > 0 else d
    lows, highs = [], []
    # p t + q >= 0 for n >= 2, n <= n_max, n - s >= 1 and n + s >= 1
    for p, q in ((dn, n0 - 2), (-dn, n_max - n0), (dn - step, n0 - s0 - 1),
                 (dn + step, n0 + s0 - 1)):
        if p > 0:
            lows.append(-(q // p))
        elif p < 0:
            highs.append(q // -p)
        elif q < 0:
            return []
    lo, parity = max(lows), s0 - n0 + 1
    if (step - dn) % 2:  # s - n + 1 = parity + (step - dn) t is even for every other t
        lo += (lo + parity) % 2
    elif parity % 2:
        return []
    return [(s0 + step * t, n0 + dn * t)
            for t in range(lo, min(highs) + 1, 1 + (step - dn) % 2)]


def solve_d3_equations(tb_min: int, tb_max: int, n_max: int) -> list:
    """Solutions of every d3-equality family for tb_min <= tb <= tb_max,
    each tagged with its tb; the families start at tb = -3, and +-2 at
    tb = -4."""
    return [{"tb": tb, **sol}
            for tb in range(tb_min, min(tb_max, -3) + 1)
            for family in ("pm_one", "pm_one_over_n") + (("pm_two",) if tb <= -4 else ())
            for sol in solve_d3_equation(tb, family, n_max=n_max)]


def scan_cells(tb_min: int, tb_max: int, n_max: int) -> dict:
    """The verdict of each cell over tb in [tb_min, tb_max], all
    admissible rotation numbers, the +-2 pair and the +-1/n pairs with
    n <= n_max.

    A cell is contact_zero where -v is the contact-0 slope tb, with empty
    spectra and no provenance; otherwise it is obstructed exactly when
    the d3 spectra at -v and v are disjoint.  Only the unobstructed +-2
    cell on a tb = -1 knot carries the exception flags.  Every other cell
    carries both spectra, as sorted d3 strings, and the matrix
    provenance; the cells left unobstructed are listed apart.  The cells
    of one tb share one dict of plans (a plan per smooth slope) and their
    d3 strings, dropped when tb moves on.
    """
    if tb_max > -1:
        raise ValueError("scan covers tb <= -1")
    cells, not_obstructed = [], []
    for tb in range(tb_min, tb_max + 1):
        tb_cells, tb_open = _scan_tb(tb, n_max, {})
        for cell in tb_cells:
            if "provenance" in cell:
                cell["provenance"] = {k: _provenance(*v) for k, v in cell["provenance"].items()}
        cells += tb_cells
        not_obstructed += tb_open
    return {"cells": cells, "not_obstructed": not_obstructed}


def _scan_tb(tb, n_max, plans):
    """The cells of tb, and those left unobstructed, their plans made in
    ``plans``; a cell's provenance holds each side as ``_spectra`` gives it.
    Each slope's spectra are read at every rotation number of tb in one
    pass, the slopes in cell order, so each plan is made at the first
    rotation number, as a walk cell by cell makes it."""
    cells, not_obstructed, rots = [], [], rot_range(tb)
    knots = [LegendrianData(tb, rot) for rot in rots]
    slopes = [(v, -v, [str(-v), str(v)]) for v in candidate_slopes(2, n_max)]
    sides = [None if minus_v == tb else
             (_spectra(knots, minus_v, plans), _spectra(knots, v, plans))
             for v, minus_v, _ in slopes]
    for r, rot in enumerate(rots):
        for (v, minus_v, pair), spectra in zip(slopes, sides):
            verdict = {"slope_pair": pair, "spectrum_neg": [], "spectrum_pos": [],
                       "outcome": "contact_zero", "exception_flags": []}
            cell = {"tb": tb, "rot": rot, "pair": pair, "verdict": verdict}
            cells.append(cell)
            if spectra is None:
                continue
            (neg_side, neg), (pos_side, pos) = spectra[0][r], spectra[1][r]
            verdict["spectrum_neg"], verdict["spectrum_pos"] = sorted(neg), sorted(pos)
            cell["provenance"] = {"neg": neg_side, "pos": pos_side}
            if neg.isdisjoint(pos):
                verdict["outcome"] = "obstructed"
                continue
            verdict["outcome"] = "not_obstructed"
            if (tb, v) == (-1, 2):
                verdict["exception_flags"] = list(EXCEPTIONAL_FLAGS)
            not_obstructed.append({"tb": tb, "rot": rot, "v": str(v)})
    return cells, not_obstructed


def scan(tb_min: int, tb_max: int, n_max: int) -> dict:
    """``scan_cells`` plus the equation-solver results for tb <= -3."""
    return {"range": {"tb_min": tb_min, "tb_max": tb_max, "n_max": n_max},
            **scan_cells(tb_min, tb_max, n_max),
            "solver_solutions": solve_d3_equations(tb_min, tb_max, n_max)}


def _spectra(knots, slope, plans):
    """(side, spectrum) at each knot of ``knots``, all of one tb: side =
    (plan, d, nums, text) of ``d3_records`` at the knot, text the d3
    string ``str`` gives each num's Fraction, one dict for every knot, and
    the spectrum the set of those."""
    text, spectra = {}, []
    for L in knots:
        plan, d, nums, pairs = d3_records(L, slope, plans)
        for num in pairs.keys() - text.keys():
            a, b = pairs[num]
            text[num] = str(a) if b == 1 else f"{a}/{b}"
        spectra.append(((plan, d, nums, text), set(map(text.__getitem__, pairs))))
    return spectra


def _provenance(plan, d, nums, text):
    """The framings (diag Q), l and d3 strings of each presentation of a side."""
    values = [{"rotations": r, "d3": text[num]} for r, num in zip(plan.rotations(d), nums)]
    return [{"framings": plan.form.path.a, "l": plan.form.l, "values": run}
            for run in plan.runs(values)]


# ---------------------------------------------------------------------------
# Legendrian unknots

@dataclass(frozen=True)
class UnknotSurgeryClass:
    tb: int
    rot: int
    contact_coeff: Fraction
    smooth_slope: Fraction
    tightness: str  # tight | overtwisted
    canonical: Fraction
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


def _junction_cascade(blocks, tb: int):
    """Merges made when the complement path tb, tb + 1, ..., 0 is glued
    after a minimal path with these blocks ending at tb, and shortened.

    Follows the stack pass of the shortening move (merges at the top of a
    stack of path vertices, leftmost first) a block at a time.
    Pushing c_i = tb + i merges the junction edge into c_i when the last
    surviving path vertex x neighbours c_i; then the path loses its last
    vertex for as long as the vertex before it neighbours c_i too.  Along
    a block det(start + j step, c_i) is linear in j, so a block costs
    O(1): its whole tail goes when the step is parallel to c_i, at most
    two vertices otherwise.  Once two complement vertices stand side by
    side (|det| = 2) nothing merges again.  When x is infinity, every
    c_i neighbours it, and the pushes merge straight through to the
    first c_i that the vertex before x neighbours (solving det = +-1).

    Returns the surviving edges of each block and the merged edges in
    merge order, as runs ("path", block, n, edges left in the block) and
    ("complement", i, j) for the edges into c_i, ..., c_j.
    """
    k = -tb
    alive = [block.edges for block in blocks]
    merged = []
    # The last path edge, into tb, is the junction edge until it merges.
    alive[-1] -= 1
    top = len(blocks) - 1 if alive[-1] else len(blocks) - 2

    def vertex(back):
        """The surviving path vertex ``back`` places before the last one."""
        if top < 0:
            return blocks[0].start
        (sn, sd), (wn, wd), _ = blocks[top]
        j = alive[top] - back
        return (sn + j * wn, sd + j * wd)

    def eat(t):
        nonlocal top
        while top >= 0:
            (sn, sd), (wn, wd), _ = blocks[top]
            d0, dw = sn - t * sd, wn - t * wd  # det(vertex j, c) = d0 + j dw
            j = alive[top]
            n = j if dw == 0 and abs(d0) == 1 else 0
            while dw and n < j and abs(d0 + (j - 1 - n) * dw) == 1:
                n += 1
            if n:
                alive[top] -= n
                merged.append(("path", top, n, alive[top]))
            if alive[top]:
                return
            top -= 1

    i = 1
    while i <= k:
        xn, xd = vertex(0)
        if abs(xn - (tb + i) * xd) != 1:
            break
        if not merged:
            merged.append(("path", len(blocks) - 1, 1, alive[-1]))
        stop = i
        if xd == 0:  # x is infinity, never the path's first (finite) vertex
            stop = k + 1
            pn, pd = vertex(1)
            for s in (1, -1):
                if (pn - s) % pd == 0 and i <= (pn - s) // pd - tb < stop:
                    stop = (pn - s) // pd - tb
        if stop > i:
            merged.append(("complement", i, stop - 1))
            i = stop
            continue
        merged.append(("complement", i, i))
        eat(tb + i)
        i += 1
    if not merged:
        alive[-1] += 1
    return alive, merged


def equivalent_surgery_count(tb: int, rot: int, contact_coeff) -> int:
    """Number of contact surgeries at this slope giving one and the same
    tight result, computed by the block-quotient fiber argument.

    A decorated surgery torus is a choice of plus signs per block of the
    minimal path from the smooth slope to tb (first edge unsigned).  It
    is glued to the complement of the Legendrian unknot, the path tb,
    tb + 1, ..., 0 whose last edge is unsigned and whose other -tb - 1
    edges carry the stabilization signs, plus first, summing to rot.
    Blocks the merge cascade leaves alone keep their signs, so distinct
    choices there give distinct tight structures.  Eaten blocks fold
    into the junction edge: signed edges merged before the first
    unsigned one must share one sign (a clash is overtwisted), and after
    it every choice gives the same result.  The fiber size is the
    product over eaten blocks of their tight choices.  As a check, the
    tight decorations must number fiber size x the decorations that the
    surviving edges carry on the lens space's own minimal path.
    """
    contact_coeff = Fraction(contact_coeff)
    smooth = tb + contact_coeff
    if smooth == 0:
        raise SlopeError("zero smooth slope excluded")
    if tb < smooth < 0:
        raise ValueError("overtwisted regime; per-slope counts are tight-only")
    blocks = minimal_path_blocks((smooth.numerator, smooth.denominator), (tb, 1))
    k = -tb
    plus = (k - 1 + rot) // 2
    if not 0 <= plus <= k - 1:
        raise ValueError("rotation number out of range for an unknot")
    alive, merged = _junction_cascade(blocks, tb)

    # signed edges merged before the first unsigned one: per block, and
    # the complement's edges into tb + 1, ..., tb + h
    held, h = {}, 0
    for kind, *run in merged:
        if kind == "path":
            b, n, left = run
            unsigned = b == 0 and left == 0
            held[b] = held.get(b, 0) + n - unsigned
        else:
            h = min(run[1], k - 1)
            unsigned = run[1] == k
        if unsigned:
            break
    # The first merge takes the complement edge into tb + 1, so when two
    # or more edges are held they include a complement sign to match.
    constrained = sum(held.values()) + h > 1
    if constrained and 0 < plus < h:
        raise RuntimeError("no tight decoration found in the tight regime")

    tight = fiber = 1
    for b, block in enumerate(blocks):
        signed = block.edges - (b == 0)
        if alive[b] == block.edges:
            tight *= signed + 1
            continue
        if alive[b] or (constrained and 0 < held.get(b, 0) < signed):
            raise RuntimeError("the merge cascade splits a continued-fraction block")
        choices = 1 if constrained and held.get(b, 0) else signed + 1
        tight *= choices
        fiber *= choices

    edges = _edges((smooth.numerator, smooth.denominator), (0, 1))
    keys = _classes(edges, 1, sum(edges) - sum(alive))
    if tight != fiber * keys:
        raise RuntimeError(f"{tight} tight decorations at smooth slope {smooth}, but "
                           f"fibers of {fiber} over {keys} tight structures")
    return fiber


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
    boundary_rotation = abs(rot) == abs(tb + 1)
    if boundary_rotation:
        tight = not tb < smooth < 0
    else:
        # below tb a chain of Legendrian surgeries; a slope not less than
        # tb forces mixed signs against the complement
        tight = smooth < tb
    count = equivalent_surgery_count(tb, rot, contact_coeff) if boundary_rotation and tight else None
    return UnknotSurgeryClass(tb, rot, contact_coeff, smooth,
                              "tight" if tight else "overtwisted",
                              canonical_slope(smooth), lens_parameters(smooth),
                              "infinite" if boundary_rotation or not tight else "unique", count)
