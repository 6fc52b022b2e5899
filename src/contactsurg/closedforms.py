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
d != 0.  The c1^2 check makes one pass per plan (``_csq``): the plan's
vectors are read once, at d = 0 and over its support, each family makes
its form's arguments from them once, one comprehension calls the form
as DEFAULT_FORMS holds it at every shift and vector, d added on the
push-off arguments, and one list comparison checks them all against the
numerators of every shift.  ``regressions.verify`` runs the sweep one tb
at a time (``_families``), the plans of a tb made in one dict dropped
when it moves on, which its regression and scan cells of that tb read
too.

One displayed closed form for c1^2 of the positive 1/n family is
inconsistent with its own inverse-entry table; the form used here is the
one implied by the inverse entries, which the generic computation
confirms (see the q-entry checks in ``_families``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, repeat
from operator import sub

from . import invariants, linalg
from .surgery import LegendrianData, rot_range


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

    def record(self, name, context, expected, actual, path=None):
        self.checks += 1
        if expected != actual:
            self._mismatch(name, context, expected, actual, path)

    def ratio(self, name, context, expected, actual, path=None, entry=None):
        """Check a rational ``expected`` (int or Fraction) against the
        exact quotient ``actual`` = (num, den), by cross-multiplication; a
        mismatch's context gains the table ``entry`` if one is given."""
        self.checks += 1
        num, den = actual
        if expected.numerator * den != num * expected.denominator:
            if entry is not None:
                context = {**context, "entry": entry}
            self._mismatch(name, context, expected, Fraction(num, den), path)

    def _mismatch(self, name, context, expected, actual, path):
        entry = {
            "check": name,
            "context": context,
            "expected": str(expected),
            "actual": str(actual),
        }
        if path is not None:
            entry["matrix"] = linalg.dense(path)
        self.mismatches.append(entry)

    def as_dict(self):
        return {
            "checks": self.checks,
            "mismatches": self.mismatches,
            "ok": not self.mismatches,
        }


def _form(tb, smooth_slope):
    """The path of the form of (tb, smooth_slope), for the report of a
    form without a plan, built as the plans build theirs
    (``invariants._presentation``)."""
    knot = LegendrianData(tb, rot_range(tb)[0])
    p, q = smooth_slope.numerator, smooth_slope.denominator
    return invariants._presentation(knot, p - tb * q, q).path


def _names(tag):
    """The check names of the family ``tag``, by kind, made once per tb."""
    return {kind: f"{tag}_{kind}" for kind in ("det", "negdef", "sigma", "q", "invertible",
                                               "slope", "csq")}


def _family(rep, names, context, top, smooth_slope, plans, entries=(), negdef=False):
    """The one plan of (tb, smooth_slope) in ``plans``, made at the knot of
    ``top`` = (knot, shifts), the knot of tb at its top rotation number, with
    the q-entry columns in its support, and the shifts d = i - knot.rot
    for each rotation number i of tb, descending from knot.rot: (plan,
    shifts), for ``_csq``.  The plan covers every presentation it stands
    for.
    Checks the per-form closed forms of the family on the plan, named by
    ``names`` (``_names``), at the arguments context.values(): its det and
    its table q of Q^-1 if the family has them, negative definiteness if
    ``negdef``, its sigma, and the entry of Q^-1 at (row, col) for each
    (name, row, col) of ``entries`` inside the form.  A singular form is
    one mismatch, names["invertible"], and a form that fails the plan's
    slope check one names["slope"]; either gives None."""
    f = DEFAULT_FORMS
    args = tuple(context.values())
    table = f[names["q"]](*args) if names["q"] in f else ()
    cols = {c for _, row, col in entries for c in (row, col)}.union(range(len(table)))
    knot, shifts = top
    try:
        plan = invariants._plan(knot, smooth_slope, plans, extra=cols)
    except invariants.NonTorsionEulerClassError:
        rep._mismatch(names["invertible"], context, "det != 0", "det = 0",
                      _form(knot.tb, smooth_slope))
        return None
    except invariants.PipelineCheckError as exc:
        rep._mismatch(names["slope"], context, f"a form of slope {smooth_slope}", exc,
                      _form(knot.tb, smooth_slope))
        return None
    path = plan.presentation.path
    n = len(path.a)
    if names["det"] in f:
        rep.record(names["det"], context, f[names["det"]](*args), plan.det, path)
    if negdef:
        rep.record(names["negdef"], context, True, plan.sigma == -n, path)
    rep.record(names["sigma"], context, f[names["sigma"]](*args), plan.sigma, path)
    for name, row, col in entries:
        if max(row, col) < n:
            rep.ratio(name, context, f[name](*args), _inverse(plan, row, col), path)
    for row, line in enumerate(table):
        for col, value in enumerate(line):
            rep.ratio(names["q"], context, value, _inverse(plan, row, col), path,
                      entry=(row + 1, col + 1))
    return plan, shifts


def _csq(rep, name, family, read, check, context):
    """Checks c1^2 = num / det against the form DEFAULT_FORMS[``name``], as
    it is when called, at each shift d of ``family`` = (plan, shifts) and
    each rotation vector of the plan, by cross-multiplication.  The vectors
    are read once per plan, at d = 0 and over the plan's support, as the
    dict {row: that row's coordinate at each vector}: ``read`` makes the
    form's arguments at each vector from it, and ``check(form, args,
    shifts, det)`` is one comprehension that calls the form at each, shift
    by shift, with d added on its push-off arguments, times det.  One list
    comparison checks them against ``invariants.c1_numerators`` at every
    shift, the one place of the shift formula.  Only a plan that fails
    walks plan.rotations(d) at each shift, for each mismatch's ``context``
    in order.  A family of None, a form without a plan, has none."""
    if family is None:
        return
    plan, shifts = family
    support, choices = plan.support, plan.presentation.choices
    args = list(read(dict(zip(support, zip(*product(*map(choices.__getitem__, support)))))))
    form, det, nums = DEFAULT_FORMS[name], plan.det, []
    for d in shifts:
        nums += invariants.c1_numerators(plan, d)
    if check(form, args, shifts, det) != nums:
        for at, d in enumerate(shifts):
            shifted = nums[at * len(args):(at + 1) * len(args)]
            for v, want, num in zip(plan.rotations(d), check(form, args, (d,), 1), shifted):
                if want * det != num:
                    rep._mismatch(name, context(v), want, Fraction(num, det),
                                  plan.presentation.path)
    rep.checks += len(nums)


def _inverse(plan, row, col):
    """Entry (row, col) of Q^-1 off the plan's block, as
    (numerator, denominator)."""
    return plan.block[plan.support.index(row)][plan.support.index(col)], plan.det


_LEADING = (("q11", 0, 0), ("q12", 1, 0), ("q22", 1, 1))


def _entries(tag, entries):
    """``entries`` (name, row, col) with each name the check name of ``tag``."""
    return tuple((f"{tag}_{name}", row, col) for name, row, col in entries)


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
    plan is made with its q-entry columns.  Each family's c1^2 form reads
    the rotation numbers i of the knot's push-off (row 0), of the
    stabilized push-off (row 1: j, rho, rho2 or i + e) and of one more row
    (s, j or the stabilization in ``context``); only the push-offs move
    with the shift."""
    rots = rot_range(tb)[::-1]
    top = LegendrianData(tb, rots[0]), [i - rots[0] for i in rots]
    if tb == -1:
        names = _names("tb1_neg")
        for n in range(2, n_max + 1):
            _csq(rep, names["csq"], _family(rep, names, {"n": n}, top, Fraction(-1, n), plans),
                 lambda col: col[0],
                 lambda form, args, shifts, det: [form(n) * det for d in shifts for _ in args],
                 lambda v: {"n": n} if n == 2 else {"n": n, "stab": v[2]})

        names = _names("tb1_pos")
        for n in range(1, n_max + 1):
            _csq(rep, names["csq"], _family(rep, names, {"n": n}, top, Fraction(1, n), plans),
                 lambda col: col[1],
                 lambda form, args, shifts, det: [form(n, rho + d) * det
                                                  for d in shifts for rho in args],
                 lambda v: {"n": n, "rho": v[1]})

    elif tb == -2:
        names = _names("tb2_neg")
        for n in range(1, n_max + 1):
            family = _family(rep, names, {"n": n}, top, Fraction(-1, n), plans,
                             _entries("tb2_neg", _LEADING) if n >= 2 else (), negdef=True)
            if n >= 2:
                _csq(rep, names["csq"], family, lambda col: zip(col[0], col[1]),
                     lambda form, args, shifts, det: [form(n, i + d, j + d) * det
                                                      for d in shifts for i, j in args],
                     lambda v: {"n": n, "i": v[0], "j": v[1]})
            else:
                _csq(rep, names["csq"], family, lambda col: col[0],
                     lambda form, args, shifts, det: [form(n, i + d, 0) * det
                                                      for d in shifts for i in args],
                     lambda v: {"n": n, "i": v[0]})

        names = _names("tb2_pos")
        for n in range(1, n_max + 1):
            _csq(rep, names["csq"], _family(rep, names, {"n": n}, top, Fraction(1, n), plans),
                 lambda col: zip(col[0], col[1], col[2]),
                 lambda form, args, shifts, det: [form(n, i + d, rho2 + d, s) * det
                                                  for d in shifts for i, rho2, s in args],
                 lambda v: {"n": n, "i": v[0], "rho2": v[1], "s": v[2]})

    elif 3 <= -tb <= k_max:
        k = -tb
        for sign, tag in ((-1, "two_neg"), (1, "two_pos")):
            names = _names(tag)
            family = _family(rep, names, {"k": k}, top, Fraction(2 * sign), plans,
                             _entries(tag, _LEADING), negdef=sign == -1)
            # at k = 3 the form is the push-off alone, and e is 1
            _csq(rep, names["csq"], family,
                 lambda col: zip(col[0], map(sub, col[1], col[0]) if 1 in col else repeat(1)),
                 lambda form, args, shifts, det: [form(k, i + d, e) * det
                                                  for d in shifts for i, e in args],
                 lambda v: {"k": k, "i": v[0], "e": v[1] - v[0]} if len(v) > 1
                 else {"k": k, "i": v[0]})

        names = _names("one_neg")
        entries = _entries("one_neg", _LEADING + (("q1k", k - 1, 0), ("q2k", k - 1, 1),
                                                   ("qkk", k - 1, k - 1)))
        for n in range(1, n_max + 1):
            context = {"k": k, "n": n}
            family = _family(rep, names, context, top, Fraction(-1, n), plans, entries,
                             negdef=True)
            # at n = 1 the form has k - 1 rows, and j is 0
            _csq(rep, names["csq"], family,
                 lambda col: zip(col[0], map(sub, col[1], col[0]),
                                 col[k - 1] if n >= 2 else repeat(0)),
                 lambda form, args, shifts, det: [form(k, n, i + d, e, j) * det
                                                  for d in shifts for i, e, j in args],
                 lambda v: {**context, "i": v[0], "e": v[1] - v[0], "j": v[k - 1]} if n >= 2
                 else {**context, "i": v[0], "e": v[1] - v[0]})

        names = _names("one_pos")
        entries = _entries("one_pos", _LEADING + (("q1last", k, 0), ("q2last", k, 1),
                                                   ("qlastlast", k, k)))
        for n in range(1, n_max + 1):
            context = {"k": k, "n": n}
            family = _family(rep, names, context, top, Fraction(1, n), plans, entries)
            _csq(rep, names["csq"], family,
                 lambda col: zip(col[0], map(sub, col[1], col[0]), col[k]),
                 lambda form, args, shifts, det: [form(k, n, i + d, e, s) * det
                                                  for d in shifts for i, e, s in args],
                 lambda v: {**context, "i": v[0], "e": v[1] - v[0], "s": v[k]})
