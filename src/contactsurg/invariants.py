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
from itertools import compress, product
from math import gcd, prod
from operator import add, mul

from . import linalg
from .surgery import LegendrianData, SurgeryPresentation, _presentation


class NonTorsionEulerClassError(ValueError):
    """det Q = 0: c1^2 undefined (non-torsion Euler class)."""


class PipelineCheckError(RuntimeError):
    """A self-check of the d3 route failed; internal error."""


@dataclass(eq=False)
class Plan:
    """The one presentation of a conversion, the number ``count`` of the
    presentations it stands for, which differ only in pinned rotation
    numbers, and the integers their d3 values need: they share Q, det,
    sigma, S, B and U.  The plan reads the presentation's ``choices`` and
    ``pinned``, and holds no copy of them: the pinned coordinates come
    first, so ``product(*choices)`` is presentation-major (``runs``), in
    the order of the pinned range.
    u = ``pinned`` is 1 on the push-offs, whose rotation numbers follow the
    knot's: at the shift d = rot - base_rot, each vector v becomes v + d u.
    ``block`` is B = adj(Q)[S, S] on the ascending S = ``support``, which
    holds the support of u and of the vectors, so (Q^-1)_{S[a], S[b]} =
    B[a][b] / det; c1^2 of v + d u is (N_v + 2 d W_v + d^2 U) / det for
    N_v = v^T B v (``quad``), W_v = u^T B v (``cross``, both by ``_walk``)
    and U = u^T B u; only ``c1_numerators`` applies the shift.  A caller
    that checks every shift reads the vectors once, at d = 0, over S
    (``closedforms._csq``), and one that needs d3 at every rotation number
    reads the plan once for all of them (``_d3_pass``).  Plans are made
    once, by ``_plan``, and read, never written; a plain dataclass, as a
    frozen one pays a guarded store per field.
    """

    presentation: SurgeryPresentation
    count: int
    det: int
    sigma: int
    support: tuple
    block: tuple
    quad: list
    cross: list
    U: int

    def rotations(self, d):
        """The rotation vectors at shift d, as an iterator of tuples: those
        at 0 with d added on ``pinned``."""
        pres = self.presentation
        if not d:
            return product(*pres.choices)
        return product(*[[x + d for x in c] if pin else c
                         for c, pin in zip(pres.choices, pres.pinned)])

    def runs(self, items):
        """``items``, one per vector, cut into a run per presentation."""
        k = len(self.quad) // self.count
        return [items[i:i + k] for i in range(0, len(items), k)]


def _plan(L: LegendrianData, smooth_slope: Fraction, plans: dict, extra=()) -> Plan:
    """The plan of (L.tb, smooth_slope) in ``plans``, made at L.rot on
    first request from one conversion (``_presentation``: its path is the
    form, and no rows are built), one ``linalg.adjugate_block`` pass on
    that path (its signature checked against Descartes') and one
    ``_walk`` over the vectors of every presentation.
    S holds every pinned index, as a pinned entry that is 0 here is not at
    other rotation numbers, every index the plan's choices can make
    nonzero, and those indices in ``extra`` that Q has, for a caller that
    reads entries of Q^-1 off B (``extra`` acts only when the plan is
    made).  The form is checked against its slope p/q: |det Q| = |p| and
    U / det = q / p mod 1, the linking form on the knot's meridian.  A
    singular Q raises; a raise keeps no plan.  ``plans`` is keyed by
    (tb, p, q) for the smooth slope p/q; a caller keeps one dict for one
    call and one tb, so no plan outlives either (``verify``'s three
    stages share each tb's dict, and no dict is kept across calls)."""
    p, q = smooth_slope.numerator, smooth_slope.denominator
    key = (L.tb, p, q)
    plan = plans.get(key)
    if plan is not None:
        return plan
    pres = _presentation(L, p - L.tb * q, q)
    pinned, choices = pres.pinned, pres.choices
    pins, n = pinned.count(1), len(choices)  # the pinned rows come first
    support = tuple(sorted({*range(pins), *compress(range(pins, n), map(any, choices[pins:])),
                            *(i for i in extra if i < n)}))
    try:
        det, sigma, block = linalg.adjugate_block(pres.path, support)
    except linalg.SingularMatrixError:
        raise NonTorsionEulerClassError("c1^2 undefined: non-torsion Euler class") from None
    bu = [sum(row[:pins]) for row in block]  # B u, u the first pins entries of S
    U = sum(bu[:pins])
    if abs(det) != abs(p) or (U * p - q * det) % (det * p):
        raise PipelineCheckError(f"tb={L.tb}, smooth slope {smooth_slope}: det Q = {det} and "
                                 f"meridian square {ratio_text(U, det)} disagree with the slope")
    quad, cross = _walk(block, bu, [choices[i] for i in support])
    plan = plans[key] = Plan(pres, prod(map(len, choices[:pins])), det, sigma, support, block,
                             quad, cross, U)
    return plan


def _walk(block, bu, choices):
    """(quad, cross): v^T B v and (Bu)^T v for B = ``block`` at each v of
    ``product(*choices)``, in its order, by an odometer that keeps y = B v.
    When coordinate a moves by t, v^T B v gains t (2 y_a + t B_aa), (Bu)^T v
    gains t (Bu)_a and y gains t B[a]: O(len(v)) a move, not O(len(v)^2).
    The last, fastest coordinate z is read off y_z for all its values."""
    z = len(choices) - 1
    v = [c[0] for c in choices]
    y = [sum(map(mul, row, v)) for row in block]
    N, W = sum(map(mul, y, v)), sum(map(mul, bu, v))
    inner, b_zz, bu_z = [x - v[z] for x in choices[z]], block[z][z], bu[z]
    quad, cross, pos = [], [], [0] * z
    moving = [a for a in reversed(range(z)) if len(choices[a]) > 1]
    while True:
        quad += [N + t * (2 * y[z] + t * b_zz) for t in inner]
        cross += [W + t * bu_z for t in inner]
        for a in moving:
            c, row = choices[a], block[a]
            k = pos[a] = (pos[a] + 1) % len(c)
            t = c[k] - c[k - 1]
            N += t * (2 * y[a] + t * row[a])
            W += t * bu[a]
            y = list(map(add, y, map(t.__mul__, row)))
            if k:
                break
        else:
            return quad, cross


def c1_numerators(plan, d) -> list:
    """nums at the shift d: nums[i] = N_v + 2 d W_v + d^2 U = det c1^2 at the
    i-th vector v of plan.rotations(d), over every presentation."""
    lin, sq = 2 * d, d * d * plan.U
    return [N + lin * W + sq for N, W in zip(plan.quad, plan.cross)] if d else plan.quad


def _d3_pass(plan, shifts) -> tuple:
    """(runs, table): runs[i] = ``c1_numerators`` at shifts[i], and table
    mapping each distinct num of every run, reduced once, to (a, b), b > 0,
    for d3 = (num - K det) / (4 det), K = 3 sigma + 2 n - 4 l, checked by
    the d3 identity 4 d3 + K = c1^2, cross-multiplied: the one check."""
    pres = plan.presentation
    det, k = plan.det, 3 * plan.sigma + 2 * len(pres.path.a) - 4 * pres.l
    k_det, den, sign = k * det, 4 * det, 1 if det > 0 else -1
    runs, table = [c1_numerators(plan, d) for d in shifts], {}
    for num in set().union(*runs):
        top = num - k_det
        g = gcd(top, den) * sign
        a, b = top // g, den // g
        if (4 * a + k * b) * det != num * b:
            raise PipelineCheckError(f"inconsistent d3 data: {a}/{b} at c1^2 {num}/{det}")
        table[num] = a, b
    return runs, table


def d3_records(L: LegendrianData, smooth_slope, plans=None) -> tuple:
    """(plan, d, nums, pairs) at L, the one-shift case of ``_d3_pass``: d =
    L.rot - base_rot, nums at d and pairs their table.  Knots of one tb
    may share the dict ``plans`` (see ``_plan``); without it, d is 0."""
    smooth_slope = smooth_slope if isinstance(smooth_slope, Fraction) else Fraction(smooth_slope)
    plan = _plan(L, smooth_slope, {} if plans is None else plans)
    d = L.rot - plan.presentation.base_rot
    (nums,), pairs = _d3_pass(plan, (d,))
    return plan, d, nums, pairs


def ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den != 0, without the Fraction."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def d3_spectrum(L: LegendrianData, smooth_slope) -> set:
    """All d3 values of contact surgeries on L with the given smooth
    coefficient, over every presentation and rotation vector."""
    return {Fraction(a, b) for a, b in set(d3_records(L, smooth_slope)[3].values())}
