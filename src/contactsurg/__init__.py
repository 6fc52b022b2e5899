"""Exact computation of contact-surgery invariants and cosmetic-surgery
obstructions: slope calculus, the tight lens count, surgery
presentations, and the chi / sigma / c1^2 / d3 invariants, all in exact
integer and rational arithmetic."""

__version__ = "0.1.0"

from .slopes import (SlopeError, canonical_slope, cs_set, lens_parameters, neg_cf_runs,
                     parse_slope)
from .farey import count_tight_lens_pq
from .surgery import ContactZeroError, LegendrianData, rot_range
from .invariants import d3_spectrum
from .cosmetic import candidate_slopes, scan, solve_d3_equation, unknot_classify
from .regressions import verify

__all__ = [
    # slopes
    "SlopeError", "canonical_slope", "cs_set", "lens_parameters", "neg_cf_runs",
    "parse_slope",
    # the tight lens count
    "count_tight_lens_pq",
    # surgery presentations
    "ContactZeroError", "LegendrianData", "rot_range",
    # d3
    "d3_spectrum",
    # cosmetic obstructions and unknots
    "candidate_slopes", "scan", "solve_d3_equation", "unknot_classify",
    # verification
    "verify",
]
