"""Exact computation of contact-surgery invariants and cosmetic-surgery
obstructions: slope calculus, Farey-graph classification data, surgery
presentations, and the chi / sigma / c1^2 / d3 invariants, all in exact
integer and rational arithmetic."""

__version__ = "0.1.0"

from .slopes import (INFINITY, Slope, SlopeError, canonical_slope, cs_set,
                     lens_parameters, neg_cf_runs, parse_slope, same_lens_space)
from .farey import (ANTICLOCKWISE, CLOCKWISE, count_tight_lens, count_tight_lens_pq,
                    count_tight_solid_torus, count_tight_thickened_torus, is_edge,
                    minimal_path_blocks)
from .surgery import (ContactZeroError, IntersectionForm, LegendrianData, linking_matrix,
                      rot_range)
from .invariants import d3_spectrum
from .cosmetic import candidate_slopes, scan, solve_d3_equation, unknot_classify
from .closedforms import verify_closed_forms
from .regressions import verify_d3_regressions

__all__ = [
    # slopes
    "INFINITY", "Slope", "SlopeError", "canonical_slope", "cs_set",
    "lens_parameters", "neg_cf_runs", "parse_slope", "same_lens_space",
    # Farey counts
    "ANTICLOCKWISE", "CLOCKWISE", "count_tight_lens", "count_tight_lens_pq",
    "count_tight_solid_torus", "count_tight_thickened_torus", "is_edge",
    "minimal_path_blocks",
    # surgery presentations
    "ContactZeroError", "IntersectionForm", "LegendrianData", "linking_matrix",
    "rot_range",
    # d3
    "d3_spectrum",
    # cosmetic obstructions and unknots
    "candidate_slopes", "scan", "solve_d3_equation", "unknot_classify",
    # verification
    "verify_closed_forms", "verify_d3_regressions",
]
