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
from itertools import compress

from . import linalg
from .surgery import (
    IntersectionForm,
    LegendrianData,
    convert,
    enumerate_rotations,
    linking_matrix,
    relabel,
)


class NonTorsionEulerClassError(ValueError):
    """det Q = 0: c1^2 undefined (non-torsion Euler class)."""


@dataclass(frozen=True)
class D3Result:
    chi: int
    sigma: int
    c_squared: Fraction
    l: int
    d3: Fraction

    def __post_init__(self):
        # 4 (d3 - l) + 3 sigma + 2 (chi - 1) = c1^2, cross-multiplied
        a, b = self.d3.numerator, self.d3.denominator
        c, d = self.c_squared.numerator, self.c_squared.denominator
        if (4 * (a - self.l * b) + (3 * self.sigma + 2 * (self.chi - 1)) * b) * d != c * b:
            raise ValueError("inconsistent d3 data")

    def to_json(self):
        return {
            "chi": self.chi,
            "sigma": self.sigma,
            "c_squared": str(self.c_squared),
            "l": self.l,
            "d3": str(self.d3),
        }


def _assemble(chi, sigma, l, det, num):
    """The D3Result with c1^2 = num / det, num = r^T adj(Q) r: d3 is the
    single fraction (num - (3 sigma + 2 (chi - 1) - 4 l) det) / (4 det)."""
    d3 = Fraction(num - (3 * sigma + 2 * (chi - 1) - 4 * l) * det, 4 * det)
    return D3Result(chi=chi, sigma=sigma, c_squared=Fraction(num, det), l=l, d3=d3)


class D3Cache:
    """Work that d3 requests on knots of one tb share.

    ``plans`` maps (tb, smooth slope) to the presentations of one
    ``convert`` call, each with its form and rotation vectors; a request
    at another rotation number relabels them (``surgery.relabel``).
    ``forms`` maps Q to {support S: (det Q, sigma, adj(Q)[S, S])}, the
    cache of d3_values.
    """

    def __init__(self):
        self.plans = {}
        self.forms = {}


def d3_values(form: IntersectionForm, vectors, cache=None) -> list:
    """d3 of ``form`` for each rotation vector, as D3Results.

    det Q, sigma and the block B = adj(Q)[S, S] on the joint support S
    of the vectors cost one ``linalg.adjugate_block`` pass, and c1^2 of
    a vector r is v^T B v / det Q with v = r on S.  ``cache`` maps Q to
    {support: (det, sigma, B)}, so forms met again (the stabilization
    variants of one conversion, the rotation numbers of a scan) reuse
    them.  A singular Q raises and leaves nothing in the cache.
    """
    if any(len(v) != form.n for v in vectors):
        raise ValueError("rotation vector length must match Q")
    support = tuple(compress(range(form.n), map(any, zip(*vectors))))
    if cache is None:
        cache = {}
    hit = cache.get(form.Q, {}).get(support)
    if hit is None:
        try:
            hit = linalg.adjugate_block(form.Q, support)
        except linalg.SingularMatrixError:
            raise NonTorsionEulerClassError(
                "c1^2 undefined: non-torsion Euler class") from None
        cache.setdefault(form.Q, {})[support] = hit
    det, sigma, block = hit
    chi = form.n + 1  # one 0-handle plus one 2-handle per component
    return [_assemble(chi, sigma, form.l, det, linalg.adjugate_quadratic(block, support, r))
            for r in vectors]


def d3_spectrum(L: LegendrianData, smooth_slope) -> set:
    """All d3 values of contact surgeries on L with the given smooth
    coefficient, over every presentation and rotation vector."""
    return {v["d3"].d3 for rec in d3_spectrum_detail(L, smooth_slope)
            for v in rec["values"]}


def d3_spectrum_detail(L: LegendrianData, smooth_slope, cache=None):
    """Like d3_spectrum but keeps the provenance of every value.

    A caller that asks for many slopes or rotation numbers of one tb can
    share a D3Cache among the calls.  The first request at a (tb, slope)
    keeps its plan: the presentations of one ``convert`` call with their
    forms and rotation vectors.  A request at another rotation number
    relabels the plan instead of converting again, since the rotation
    number changes neither the forms nor the free chain rotations.  A
    request that raises keeps nothing.
    """
    smooth_slope = Fraction(smooth_slope)
    if cache is None:
        cache = D3Cache()
    key = (L.tb, smooth_slope)
    plan = cache.plans.get(key)
    if plan is None:
        plan = [(pres, linking_matrix(pres), enumerate_rotations(pres))
                for pres in convert(L, smooth_slope - L.tb)]
    records = []
    for pres, form, vectors in plan:
        pres, vectors = relabel(pres, vectors, L.rot)
        rots = [{"rotations": rvec, "d3": res}
                for rvec, res in zip(vectors, d3_values(form, vectors, cache.forms))]
        records.append({"presentation": pres, "form": form, "values": rots})
    cache.plans[key] = plan
    return records
