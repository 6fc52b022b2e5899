"""Exact answers the benchmark checks contactsurg against.

Every oracle here is computed by the benchmark itself and shares no code
with the package: the lens-space count comes from Honda's product
formula, not from Farey paths, and the scan checks restate the paper's
claims rather than calling back into ``cosmetic``.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Verdict flags of the one cell the d3 machinery cannot obstruct.
EXCEPTIONAL_FLAGS = [
    "tau=0",
    "max_tb=-1",
    "seifert_genus=2",
    "slice_genus=0",
    "prime",
    "quasi-positive",
    "lagrangian-slice",
]

# Per-stage check counts of ``contactsurg verify`` at its defaults
# (k_max = n_max = 20).
VERIFY_CHECKS = {
    "closed forms": 113303,
    "d3 regressions": 126,
    "obstruction scan": 324,
}


def tight_lens_count(p: int, q: int) -> int:
    """Tight structures on L(p, q) by Honda's formula |(r_0+1)...(r_k+1)|.

    The r_i <= -2 are the negative continued fraction of -p/q; this
    loop runs the equivalent expansion p/q = [b_0, ..., b_k] with
    b_i = -r_i >= 2, and multiplies the b_i - 1.
    """
    if p < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}) is not a lens space with p >= 2")
    q %= p
    count = 1
    while q:
        b = -(-p // q)
        count *= b - 1
        p, q = q, b * q - p
    return count


def d3_chain_spectrum(tb: int, n: int) -> set:
    """d3 spectrum of smooth -1/n surgery on the tb = -1 or -2 knots:
    {1} for tb = -1 and {1, 3 - 2n} for tb = -2."""
    if tb == -1:
        return {"1"}
    if tb == -2:
        return {"1", str(3 - 2 * n)}
    raise ValueError("the long-chain oracle covers tb = -1 and -2")


def unknot_count(k: int, open_interval: bool) -> int:
    """Equivalent contact surgeries on the tb = -1, rot = 0 unknot at
    smooth slope 1/k (k + 1) or 2/(2k+1), inside (1/(k+1), 1/k) (k + 2)."""
    return k + 2 if open_interval else k + 1


def scan_cell_problem(tb: int, n_max: int, report: dict) -> str | None:
    """Why a ``scan(tb, tb, n_max)`` report is wrong, or None if it is right.

    Only (tb=-1, rot=0, v=2) is unobstructed and it carries the
    exceptional flags; every verdict agrees with whether its spectra are
    disjoint and with its own provenance; the equation solver finds
    nothing; the contact-0 cell sits exactly where -v = tb.
    """
    rots = range(tb + 1, -tb, 2)
    cells = report["cells"]
    if len(cells) != len(rots) * (n_max + 1):  # v = 2 and v = 1/n, n <= n_max
        return f"{len(cells)} cells"
    if report["solver_solutions"]:
        return "solver found solutions"
    unobstructed = [{"tb": -1, "rot": 0, "v": "2"}] if tb == -1 else []
    if report["not_obstructed"] != unobstructed:
        return f"not_obstructed {report['not_obstructed']}"
    for cell in cells:
        verdict = cell["verdict"]
        neg, pos = set(verdict["spectrum_neg"]), set(verdict["spectrum_pos"])
        v = Fraction(cell["pair"][1])
        if -v == tb:
            if verdict["outcome"] != "contact_zero" or neg or pos:
                return f"cell {cell['rot']} {v}: expected contact_zero"
            continue
        outcome = "obstructed" if neg.isdisjoint(pos) else "not_obstructed"
        flags = EXCEPTIONAL_FLAGS if (tb, cell["rot"], v) == (-1, 0, 2) else []
        if verdict["outcome"] != outcome or verdict["exception_flags"] != flags:
            return f"cell {cell['rot']} {v}: verdict {verdict['outcome']}"
        prov = cell["provenance"]
        for side, spectrum in (("neg", neg), ("pos", pos)):
            values = {x["d3"] for rec in prov[side] for x in rec["values"]}
            if values != spectrum:
                return f"cell {cell['rot']} {v}: {side} provenance disagrees"
    return None


def verify_problem(report: dict) -> str | None:
    """Why a ``verify --json`` report is wrong, or None if it is right."""
    results = report["results"]
    stages = {s["name"]: (s["ok"], s["checks"]) for s in results["summaries"]}
    expected = {name: (True, checks) for name, checks in VERIFY_CHECKS.items()}
    if results["ok"] is not True or stages != expected:
        return f"stages {stages}"
    return None
