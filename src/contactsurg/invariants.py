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


def d3_values(form: IntersectionForm, vectors, cache=None) -> list:
    """d3 of ``form`` for each rotation vector, as D3Results.

    sigma, det Q and the columns of adj(Q) on the joint support of the
    vectors cost one elimination pass and one signature.  ``cache`` maps
    Q to {support: (sigma, det, columns)}, so forms met again (the
    stabilization variants of one conversion, the rotation numbers of a
    scan) reuse them, and a new support of a known Q reuses its sigma.
    """
    if any(len(v) != form.n for v in vectors):
        raise ValueError("rotation vector length must match Q")
    support = tuple(sorted({i for v in vectors for i, x in enumerate(v) if x}))
    known = cache.setdefault(form.Q, {}) if cache is not None else {}
    hit = known.get(support)
    if hit is None:
        rows = form.rows()
        try:
            det, cols = linalg.adjugate_columns(rows, support)
        except linalg.SingularMatrixError:
            raise NonTorsionEulerClassError(
                "c1^2 undefined: non-torsion Euler class") from None
        sigma = next(iter(known.values()))[0] if known else linalg.signature(rows)
        hit = known[support] = (sigma, det, cols)
    sigma, det, cols = hit
    chi = form.n + 1  # one 0-handle plus one 2-handle per component
    return [_assemble(chi, sigma, form.l, det, linalg.adjugate_quadratic(cols, r))
            for r in vectors]


def d3_spectrum(L: LegendrianData, smooth_slope) -> set:
    """All d3 values of contact surgeries on L with the given smooth
    coefficient, over every presentation and rotation vector."""
    return {v["d3"].d3 for rec in d3_spectrum_detail(L, smooth_slope)
            for v in rec["values"]}


def d3_spectrum_detail(L: LegendrianData, smooth_slope, cache=None):
    """Like d3_spectrum but keeps the provenance of every value.

    ``cache`` is handed to d3_values; a caller that asks for many slopes
    or rotation numbers of one tb can share it among the calls.
    """
    smooth_slope = Fraction(smooth_slope)
    contact = smooth_slope - L.tb
    if cache is None:
        cache = {}
    records = []
    for pres in convert(L, contact):
        form = linking_matrix(pres)
        vectors = enumerate_rotations(pres)
        rots = [{"rotations": list(rvec), "d3": res}
                for rvec, res in zip(vectors, d3_values(form, vectors, cache))]
        records.append({"presentation": pres, "form": form, "values": rots})
    return records
