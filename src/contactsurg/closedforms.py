"""Closed forms for the surgery intersection matrices, with verifiers.

The intersection forms appearing in the cosmetic-surgery computations
are bordered chain matrices: a (-2)-chain with -1 links, bordered by a
first row depending on tb = -k.  This module states the closed forms
for their determinants, signatures, inverse entries and c1^2, and checks
the family forms on the d3 route itself: one plan per form
(``invariants._plan``: one presentation, its form read as a path, one
path-kernel pass and one odometer walk over every presentation it
stands for) gives det, sigma and the block of adj(Q) the inverse
entries are read from, and ``invariants.c1_numerators`` of that plan at
every admissible rotation number gives each c1^2, mostly at a shift
!= 0.  ``regressions.verify`` runs the sweep one tb at a time
(``_families``), the plans of a tb made in one dict dropped when it
moves on, which its regression and scan cells of that tb read too.

One displayed closed form for c1^2 of the positive 1/n family is
inconsistent with its own inverse-entry table; the form used here is the
one implied by the inverse entries, which the generic computation
confirms (see the q-entry checks in ``_families``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import invariants, linalg
from .surgery import LegendrianData, _presentation, rot_range


# ---------------------------------------------------------------------------
# closed forms

def _half(x: int) -> int:
    """x / 2 exactly; an odd x means the rotation number has the wrong parity."""
    if x % 2:
        raise ValueError(f"{x}/2 is not an integer: rotation number of inadmissible parity")
    return x // 2


DEFAULT_FORMS = {
    # determinants
    "chain_det": lambda n: (-1) ** n * (n + 1),
    "chain_primed_det": lambda n: (-1) ** n * n,
    "block_det": lambda a, b, c, m: (-1) ** m * ((a * (c + 1) - b * b) * m + (a * c - b * b)),
    "tb1_neg_det": lambda n: (-1) ** (n - 1),
    # signatures
    "tb1_neg_sigma": lambda n: 2 - n,
    "tb1_pos_sigma": lambda n: 0,
    "tb2_neg_sigma": lambda n: -n,
    "tb2_pos_sigma": lambda n: -1,
    "two_neg_sigma": lambda k: -k + 2,
    "two_pos_sigma": lambda k: -k,
    "one_neg_sigma": lambda k, n: -k - n + 2,
    "one_pos_sigma": lambda k, n: -k + 1,
    # inverse entries (1-indexed labels follow the displayed tables)
    "tb2_neg_q11": lambda n: 3 - 4 * n,
    "tb2_neg_q12": lambda n: 2 * n - 2,
    "tb2_neg_q22": lambda n: 1 - n,
    "tb2_pos_q": lambda n: [[4 * n + 3, -2 * (n + 1), 2],
                            [-2 * (n + 1), n + 1, -1],
                            [2, -1, 0]],
    "two_neg_q11": lambda k: Fraction(-k * k + 2 * k + 2, 2),
    "two_neg_q12": lambda k: Fraction(k * k - 3 * k, 2),
    "two_neg_q22": lambda k: Fraction(-k * k + 4 * k - 3, 2),
    "two_pos_q11": lambda k: Fraction(k * k + 2 * k + 2, 2),
    "two_pos_q12": lambda k: Fraction(-(k * k + k), 2),
    "two_pos_q22": lambda k: Fraction(k * k - 1, 2),
    "one_neg_q11": lambda k, n: -k * k * n + k + 1,
    "one_neg_q12": lambda k, n: k * (k * n - 1 - n),
    "one_neg_q22": lambda k, n: (1 - k) * (k * n - 1 - n),
    "one_neg_q1k": lambda k, n: (-1) ** k * k * (n - 1),
    "one_neg_q2k": lambda k, n: (-1) ** k * (1 - k) * (n - 1),
    "one_neg_qkk": lambda k, n: -n + 1,
    "one_pos_q11": lambda k, n: k * k * n + k + 1,
    "one_pos_q12": lambda k, n: -k * k * n + k * n - k,
    "one_pos_q22": lambda k, n: (k - 1) ** 2 * n + k - 1,
    "one_pos_q1last": lambda k, n: (-1) ** k * k,
    "one_pos_q2last": lambda k, n: (-1) ** k * (1 - k),
    "one_pos_qlastlast": lambda k, n: 0,
    # c1^2 values
    "tb1_neg_csq": lambda n: 2 - n,
    "tb1_pos_csq": lambda n, rho: 0,
    "tb2_neg_csq": lambda n, i, j: 8 - 9 * n if i * j < 0 else -n,
    "tb2_pos_csq": lambda n, i, rho2, s: -1 if rho2 == 2 * i else 4 * n + 3 + 4 * i * s,
    "two_neg_csq": lambda k, i, e: _half(-i * i - k * k + 4 * k - 3) + e * (k - 3) * i,
    "two_pos_csq": lambda k, i, e: _half(i * i + k * k - 1) - e * (k + 1) * i,
    "one_neg_csq": lambda k, n, i, e, j: (
        -n + 1 + (1 - k) * ((k - 1) * n - 1)
        - 2 * j * (-1) ** k * (n - 1) * (e * (k - 1) - i)
        + 2 * e * i * ((k - 1) * n - 1)
        - n * i * i
    ),
    # implied by the inverse-entry table; see module docstring
    "one_pos_csq": lambda k, n, i, e, s: (
        n * i * i
        + 2 * ((1 - k) * n - 1) * e * i
        + (k - 1) ** 2 * n + (k - 1)
        + 2 * s * (-1) ** k * (i - e * k + e)
    ),
}


# ---------------------------------------------------------------------------
# verification

class _Report:
    def __init__(self):
        self.checks = 0
        self.mismatches = []

    def record(self, name, context, expected, actual, form=None):
        self.checks += 1
        if expected != actual:
            self._mismatch(name, context, expected, actual, form)

    def ratio(self, name, context, expected, actual, form=None):
        """Check a rational ``expected`` (int or Fraction) against the
        exact quotient ``actual`` = (num, den), by cross-multiplication."""
        self.checks += 1
        num, den = actual
        if expected.numerator * den != num * expected.denominator:
            self._mismatch(name, context, expected, Fraction(num, den), form)

    def _mismatch(self, name, context, expected, actual, form):
        entry = {
            "check": name,
            "context": context,
            "expected": str(expected),
            "actual": str(actual),
        }
        if form is not None:
            entry["matrix"] = linalg.dense(form.rows)
        self.mismatches.append(entry)

    def as_dict(self):
        return {
            "checks": self.checks,
            "mismatches": self.mismatches,
            "ok": not self.mismatches,
        }


def _form(tb, smooth_slope):
    """The form of the presentation of (tb, smooth_slope), for the report
    of a form without a plan."""
    knot = LegendrianData(tb, rot_range(tb)[0])
    return invariants.linking_matrix(_presentation(knot, smooth_slope - tb))


def _family(rep, tag, context, tb, smooth_slope, plans, entries=(), negdef=False):
    """``invariants.c1_numerators`` at d = i - rots[0] for each rotation
    number i of tb, descending from rots[0], of the one plan of
    (tb, smooth_slope) in ``plans``, made at rots[0] with the q-entry
    columns in its support; each covers every presentation the plan
    stands for.
    Checks the per-form closed forms of ``tag`` on the plan, at the
    arguments context.values(): ``tag``_det and the table ``tag``_q of
    Q^-1 if the family has them, negative definiteness if ``negdef``,
    ``tag``_sigma, and the entry of Q^-1 at (row, col) for each
    (name, row, col) of ``entries`` inside the form.  Returns the
    (plan, d, nums) records, for ``_csq``.  A singular form is one mismatch,
    ``tag``_invertible, and a form that fails the plan's slope check one
    ``tag``_slope; either gives none."""
    f = DEFAULT_FORMS
    args = tuple(context.values())
    table = f[f"{tag}_q"](*args) if f"{tag}_q" in f else ()
    cols = {c for _, row, col in entries for c in (row, col)}.union(range(len(table)))
    rots = rot_range(tb)[::-1]
    try:
        plan = invariants._plan(LegendrianData(tb, rots[0]), smooth_slope, plans, extra=cols)
    except invariants.NonTorsionEulerClassError:
        rep._mismatch(f"{tag}_invertible", context, "det != 0", "det = 0", _form(tb, smooth_slope))
        return []
    except invariants.PipelineCheckError as exc:
        rep._mismatch(f"{tag}_slope", context, f"a form of slope {smooth_slope}", exc,
                      _form(tb, smooth_slope))
        return []
    form = plan.form
    if f"{tag}_det" in f:
        rep.record(f"{tag}_det", context, f[f"{tag}_det"](*args), plan.det, form)
    if negdef:
        rep.record(f"{tag}_negdef", context, True, plan.sigma == -form.n, form)
    rep.record(f"{tag}_sigma", context, f[f"{tag}_sigma"](*args), plan.sigma, form)
    for name, row, col in entries:
        if max(row, col) < form.n:
            rep.ratio(f"{tag}_{name}", context, f[f"{tag}_{name}"](*args),
                      _inverse(plan, row, col), form)
    for row, line in enumerate(table):
        for col, value in enumerate(line):
            rep.ratio(f"{tag}_q", {**context, "entry": (row + 1, col + 1)}, value,
                      _inverse(plan, row, col), form)
    return [(plan, d, invariants.c1_numerators(plan, d)) for d in (i - rots[0] for i in rots)]


def _csq(rep, name, records, value, context):
    """Checks c1^2 = num / det at each rotation vector v of ``records``
    against value(DEFAULT_FORMS[name], v), by cross-multiplication;
    ``context(v)`` is built for a mismatch only."""
    form = DEFAULT_FORMS[name]
    for plan, d, nums in records:
        det = plan.det
        for v, num in zip(plan.rotations(d), nums):
            want = value(form, v)
            if want * det != num:
                rep._mismatch(name, context(v), want, Fraction(num, det), plan.form)
        rep.checks += len(nums)


def _inverse(plan, row, col):
    """Entry (row, col) of Q^-1 off the plan's block, as
    (numerator, denominator)."""
    return plan.block[plan.support.index(row)][plan.support.index(col)], plan.det


_LEADING = (("q11", 0, 0), ("q12", 1, 0), ("q22", 1, 1))


def _lemmas(k_max, n_max):
    """A report of the lemma matrices' checks, for ``_families`` to add
    the family forms to; ValueError unless k_max >= 3 and n_max >= 1.
    Negative definiteness, where the block lemma claims it, is read as
    signature -n from ``linalg.adjugate_block``, which checks it."""
    if k_max < 3 or n_max < 1:
        raise ValueError("needs k_max >= 3 and n_max >= 1")
    f = DEFAULT_FORMS
    rep = _Report()

    # each lemma matrix is the leading block of the largest of its family,
    # built as its path (diagonal, links); the primed chain's one-way link,
    # -1 at (0, 1) and 0 at (1, 0), is a link 0, as the leading minors
    # read only the link products a_(i,i+1) a_(i+1,i)
    def minors(diag, links):
        return linalg.leading_determinants(diag, [x * x for x in links])

    size = max(50, n_max)
    chain = minors([-2] * size, [-1] * (size - 1))
    primed = minors([-1] + [-2] * (size - 1), [0] + [-1] * (size - 2))
    for n in range(1, size + 1):
        rep.record("chain_det", {"n": n}, f["chain_det"](n), chain[n])
        rep.record("chain_primed_det", {"n": n}, f["chain_primed_det"](n), primed[n])

    for a, b, c in product(range(-3, 4), repeat=3):
        # [[a, b], [b, c]] with the chain hung on its second row
        diag, links = [a, c] + [-2] * 6, [b] + [-1] * 6
        dets = minors(diag, links)
        negdef = a < 0 and a * c - b * b > 0 and a * (c + 1) - b * b >= 0
        for m in range(1, 7):
            det = dets[m + 2]  # the block of m chain vertices has m + 2 rows
            context = {"a": a, "b": b, "c": c, "m": m}
            rep.record("block_det", context, f["block_det"](a, b, c, m), det)
            if negdef:
                path = linalg._Path(diag[:m + 2], links[:m + 1], 0, 0)
                rep.record("block_negdef", context, True,
                           det != 0 and linalg.adjugate_block(path, ())[1] == -(m + 2))
    return rep


def _families(rep, tb, k_max, n_max, plans):
    """Adds to ``rep`` the checks of the family forms at tb, for n <= n_max
    and, at tb = -k <= -3, for k <= k_max, their plans made in ``plans``:
    a caller that reads more of tb's plans passes the dict on, so each
    plan is made with its q-entry columns."""
    if tb == -1:
        for n in range(2, n_max + 1):
            _csq(rep, "tb1_neg_csq", _family(rep, "tb1_neg", {"n": n}, -1, Fraction(-1, n), plans),
                 lambda form, v: form(n),
                 lambda v: {"n": n} if n == 2 else {"n": n, "stab": v[2]})

        for n in range(1, n_max + 1):
            _csq(rep, "tb1_pos_csq", _family(rep, "tb1_pos", {"n": n}, -1, Fraction(1, n), plans),
                 lambda form, v: form(n, v[1]), lambda v: {"n": n, "rho": v[1]})

    elif tb == -2:
        for n in range(1, n_max + 1):
            records = _family(rep, "tb2_neg", {"n": n}, -2, Fraction(-1, n), plans,
                              _LEADING if n >= 2 else (), negdef=True)
            _csq(rep, "tb2_neg_csq", records,
                 lambda form, v: form(n, v[0], v[1] if n >= 2 else 0),
                 lambda v: {"n": n, "i": v[0], "j": v[1]} if n >= 2 else {"n": n, "i": v[0]})

        for n in range(1, n_max + 1):
            _csq(rep, "tb2_pos_csq", _family(rep, "tb2_pos", {"n": n}, -2, Fraction(1, n), plans),
                 lambda form, v: form(n, *v),
                 lambda v: {"n": n, "i": v[0], "rho2": v[1], "s": v[2]})

    elif 3 <= -tb <= k_max:
        k = -tb
        for sign, tag in ((-1, "two_neg"), (1, "two_pos")):
            records = _family(rep, tag, {"k": k}, -k, Fraction(2 * sign), plans, _LEADING,
                              negdef=sign == -1)
            _csq(rep, f"{tag}_csq", records,
                 lambda form, v: form(k, v[0], v[1] - v[0] if len(v) > 1 else 1),
                 lambda v: {"k": k, "i": v[0], "e": v[1] - v[0]} if len(v) > 1
                 else {"k": k, "i": v[0]})

        for n in range(1, n_max + 1):
            context = {"k": k, "n": n}
            records = _family(rep, "one_neg", context, -k, Fraction(-1, n), plans, _LEADING + (
                ("q1k", k - 1, 0), ("q2k", k - 1, 1), ("qkk", k - 1, k - 1)), negdef=True)
            _csq(rep, "one_neg_csq", records,
                 lambda form, v: form(k, n, v[0], v[1] - v[0], v[k - 1] if n >= 2 else 0),
                 lambda v: {**context, "i": v[0], "e": v[1] - v[0], "j": v[k - 1]} if n >= 2
                 else {**context, "i": v[0], "e": v[1] - v[0]})

        for n in range(1, n_max + 1):
            context = {"k": k, "n": n}
            records = _family(rep, "one_pos", context, -k, Fraction(1, n), plans, _LEADING + (
                ("q1last", k, 0), ("q2last", k, 1), ("qlastlast", k, k)))
            _csq(rep, "one_pos_csq", records,
                 lambda form, v: form(k, n, v[0], v[1] - v[0], v[k]),
                 lambda v: {**context, "i": v[0], "e": v[1] - v[0], "s": v[k]})
