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

from . import linalg
from .surgery import (
    IntersectionForm,
    LegendrianData,
    convert,
    enumerate_rotations,
    linking_matrix,
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
        if 4 * (self.d3 - self.l) + 3 * self.sigma + 2 * (self.chi - 1) != self.c_squared:
            raise ValueError("inconsistent d3 data")

    def to_json(self):
        return {
            "chi": self.chi,
            "sigma": self.sigma,
            "c_squared": str(self.c_squared),
            "l": self.l,
            "d3": str(self.d3),
        }


def _assemble(chi, sigma, csq, l):
    value = Fraction(csq - 3 * sigma - 2 * (chi - 1), 4) + l
    return D3Result(chi=chi, sigma=sigma, c_squared=csq, l=l, d3=value)


def d3_values(form: IntersectionForm, vectors, cache=None) -> list:
    """d3 of ``form`` for each rotation vector, as D3Results.

    sigma, det Q and the columns of adj(Q) on the joint support of the
    vectors cost one elimination pass and one signature; a cache keyed by
    (Q, support) lets the stabilization variants of one conversion
    (identical framed links, different pinned rotations) share them.
    """
    if any(len(v) != form.n for v in vectors):
        raise ValueError("rotation vector length must match Q")
    support = sorted({i for v in vectors for i, x in enumerate(v) if x})
    key = (form.Q, tuple(support))
    hit = cache.get(key) if cache is not None else None
    if hit is None:
        rows = form.rows()
        try:
            det, cols = linalg.adjugate_columns(rows, support)
        except linalg.SingularMatrixError:
            raise NonTorsionEulerClassError(
                "c1^2 undefined: non-torsion Euler class") from None
        hit = (linalg.signature(rows), det, cols)
        if cache is not None:
            cache[key] = hit
    sigma, det, cols = hit
    chi = form.n + 1  # one 0-handle plus one 2-handle per component
    return [_assemble(chi, sigma, linalg.inverse_quadratic(det, cols, r), form.l)
            for r in vectors]


def d3_spectrum(L: LegendrianData, smooth_slope) -> set:
    """All d3 values of contact surgeries on L with the given smooth
    coefficient, over every presentation and rotation vector."""
    return {v["d3"].d3 for rec in d3_spectrum_detail(L, smooth_slope)
            for v in rec["values"]}


def d3_spectrum_detail(L: LegendrianData, smooth_slope):
    """Like d3_spectrum but keeps the provenance of every value."""
    smooth_slope = Fraction(smooth_slope)
    contact = smooth_slope - L.tb
    records = []
    cache = {}
    for pres in convert(L, contact):
        form = linking_matrix(pres)
        vectors = enumerate_rotations(pres)
        rots = [{"rotations": list(rvec), "d3": res}
                for rvec, res in zip(vectors, d3_values(form, vectors, cache))]
        records.append({"presentation": pres, "form": form, "values": rots})
    return records
