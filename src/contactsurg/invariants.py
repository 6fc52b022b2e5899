"""Homotopy invariants of contact structures from surgery presentations.

For a presentation with intersection form Q, rotation vector r, and l
contact (+1)-surgeries, the four-manifold X of the surgery trace has
Euler characteristic n + 1, signature sigma(Q), and c1^2 = r^T Q^{-1} r
(defined when det Q != 0, i.e. the Euler class of the contact structure
is torsion).  The homotopy invariant of the induced plane field is

    d3 = (c1^2 - 3 sigma - 2 (chi - 1)) / 4 + l,

an exact rational; no rounding occurs anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

from . import linalg
from .surgery import (IntersectionForm, LegendrianData, SurgeryPresentation, convert,
                      linking_matrix, rotation_choices)


class NonTorsionEulerClassError(ValueError):
    """det Q = 0: c1^2 undefined (non-torsion Euler class)."""


class PipelineCheckError(RuntimeError):
    """A self-check of the d3 route failed; internal error."""


@dataclass(frozen=True)
class PlanEntry:
    """One presentation of a plan, with the integers its d3 values need;
    the presentations of a plan share ``form``, ``det``, ``sigma``,
    ``support``, ``block`` and U.

    ``choices`` are its ``rotation_choices`` at ``pres.base_rot`` and u =
    ``pinned`` is 1 on the push-offs, whose rotation numbers follow the
    knot's: at the shift d = rot - base_rot, each rotation vector v
    becomes v + d u.  ``block`` is B = adj(Q)[S, S] on the ascending index
    tuple S = ``support``, which holds the support of u and the vectors,
    so (Q^-1)_{S[a], S[b]} = B[a][b] / det; c1^2 of v + d u is
    (N_v + 2 d W_v + d^2 U) / det for N_v = v^T B v (``quad``),
    W_v = u^T B v (``cross``), U = u^T B u.
    """

    pres: SurgeryPresentation
    form: IntersectionForm
    choices: list
    pinned: tuple
    det: int
    sigma: int
    support: tuple
    block: tuple
    quad: list
    cross: list
    U: int

    def rotations(self, d):
        """The rotation vectors at shift d, as an iterator of tuples."""
        return product(*[(c[0] + d,) if p else c for c, p in zip(self.choices, self.pinned)])


def _plan(L: LegendrianData, smooth_slope: Fraction, plans: dict, extra=()) -> list:
    """The plan of (L.tb, smooth_slope) in ``plans``, made at L.rot on
    first request: a PlanEntry per presentation of one ``convert`` call.
    These differ only in their pinned rotation numbers, so they share Q,
    S and B, and one ``linking_matrix`` and one ``linalg.adjugate_block``
    pass (its signature checked against Descartes') serve them all.  S
    holds every pinned index, as a pinned entry that is 0 here is not at
    other rotation numbers, every index a rotation vector can make
    nonzero, and those indices in ``extra`` that Q has, for a caller that
    reads entries of Q^-1 off B (``extra`` acts only when the plan is
    made).  The form is checked against its slope p/q: |det Q| = |p| and
    U / det = q / p mod 1, the linking form on the knot's meridian.  A
    singular Q raises; a raise keeps no plan.  ``plans`` is keyed by
    (tb, p, q) for the smooth slope p/q."""
    p, q = smooth_slope.numerator, smooth_slope.denominator
    key = (L.tb, p, q)
    plan = plans.get(key)
    if plan is not None:
        return plan
    presentations = convert(L, smooth_slope - L.tb)
    first = presentations[0]
    form = linking_matrix(first)
    pinned = tuple(int(c.rot is not None) for c in first.components)
    chosen = [rotation_choices(pres) for pres in presentations]
    support = tuple(i for i, c in enumerate(chosen[0]) if pinned[i] or any(c) or i in extra)
    try:
        det, sigma, block = linalg.adjugate_block(form.rows, support)
    except linalg.SingularMatrixError:
        raise NonTorsionEulerClassError("c1^2 undefined: non-torsion Euler class") from None
    u = [pinned[i] for i in support]
    bu = [sum(map(mul, row, u)) for row in block]
    U = sum(map(mul, bu, u))
    if abs(det) != abs(p) or (U * p - q * det) % (det * p):
        raise PipelineCheckError(f"tb={L.tb}, smooth slope {smooth_slope}: det Q = {det} and "
                                 f"meridian square {ratio_text(U, det)} disagree with the slope")
    plan = []
    for pres, choices in zip(presentations, chosen):
        vectors = list(product(*choices))
        plan.append(PlanEntry(pres, form, choices, pinned, det, sigma, support, block,
                              [linalg.adjugate_quadratic(block, support, v) for v in vectors],
                              [sum(map(mul, bu, map(v.__getitem__, support))) for v in vectors],
                              U))
    plans[key] = plan
    return plan


def d3_records(L: LegendrianData, smooth_slope, plans=None) -> list:
    """The d3 route, in integers: (e, d, nums, pairs) per PlanEntry e,
    with d the shift to L.rot, nums[i] = det c1^2 of rotation vector i,
    and pairs mapping each distinct num to d3 = (num - K det) / (4 det),
    K = 3 sigma + 2 n - 4 l, reduced with denominator > 0 and checked by
    the d3 identity 4 d3 + K = c1^2, cross-multiplied.  Requests on knots
    of one tb may share the dict ``plans`` (see ``_plan``); without it,
    the plan is made at L.rot and d is 0."""
    smooth_slope = smooth_slope if isinstance(smooth_slope, Fraction) else Fraction(smooth_slope)
    plan = _plan(L, smooth_slope, {} if plans is None else plans)
    first = plan[0]  # the entries of a plan share base_rot, det, sigma, form and U
    d, det = L.rot - first.pres.base_rot, first.det
    k = 3 * first.sigma + 2 * first.form.n - 4 * first.form.l
    k_det, den, sign = k * det, 4 * det, 1 if det > 0 else -1
    lin, sq = 2 * d, d * d * first.U
    out = []
    for e in plan:
        nums = [N + lin * W + sq for N, W in zip(e.quad, e.cross)] if d else e.quad
        pairs = {}
        for num in set(nums):
            top = num - k_det
            g = gcd(top, den) * sign
            a, b = top // g, den // g
            if (4 * a + k * b) * det != num * b:
                raise PipelineCheckError(f"inconsistent d3 data: {a}/{b} at c1^2 {num}/{det}")
            pairs[num] = a, b
        out.append((e, d, nums, pairs))
    return out


def ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den != 0, without the Fraction."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def d3_spectrum(L: LegendrianData, smooth_slope) -> set:
    """All d3 values of contact surgeries on L with the given smooth
    coefficient, over every presentation and rotation vector."""
    pairs = {pair for *_, known in d3_records(L, smooth_slope) for pair in known.values()}
    return {Fraction(a, b) for a, b in pairs}
