"""Closed forms for the surgery intersection matrices, with verifiers.

The intersection forms appearing in the cosmetic-surgery computations
are bordered chain matrices: a (-2)-chain with -1 links, bordered by a
first row depending on tb = -k.  This module states the closed forms
for their determinants, signatures, inverse entries and c1^2, and checks
all of them on the forms the d3 pipeline itself builds (``convert``,
then ``linking_matrix``) with the generic exact routines of
:mod:`contactsurg.linalg`: one elimination pass per form gives its
signature and the inverse entries its checks read.

One displayed closed form for c1^2 of the positive 1/n family is
inconsistent with its own inverse-entry table; the form used here is the
one implied by the inverse entries, which the generic computation
confirms (see the q-entry checks in verify_closed_forms).
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .surgery import LegendrianData, convert, linking_matrix, rot_range


# ---------------------------------------------------------------------------
# lemma matrices

def chain_matrix(n: int):
    """Tridiagonal matrix with -2 on the diagonal and -1 off it."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -2
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = -1
    return m


def chain_matrix_primed(n: int):
    """Variant with top-left -1 and an asymmetric -1 in position (1, 2)."""
    if n < 1:
        raise ValueError("size must be positive")
    m = [[0] * n for _ in range(n)]
    m[0][0] = -1
    if n > 1:
        m[0][1] = -1
    for i in range(1, n):
        m[i][i] = -2
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = -1
    return m


def bordered_block_matrix(a: int, b: int, c: int, m: int):
    """[[A, B], [B^T, chain(m)]] with A = [[a, b], [b, c]] and B carrying
    a single -1 from the second row to the first chain vertex."""
    if m < 1:
        raise ValueError("chain part must be nonempty")
    n = m + 2
    q = [[0] * n for _ in range(n)]
    q[0][0], q[0][1], q[1][0], q[1][1] = a, b, b, c
    q[1][2] = q[2][1] = -1
    chain = chain_matrix(m)
    for i in range(m):
        for j in range(m):
            q[2 + i][2 + j] = chain[i][j]
    return q


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

    def record(self, name, context, expected, actual, matrix=None):
        self.checks += 1
        if expected != actual:
            self._mismatch(name, context, expected, actual, matrix)

    def ratio(self, name, context, expected, actual, matrix=None):
        """Check a rational ``expected`` (int or Fraction) against the
        exact quotient ``actual`` = (num, den), by cross-multiplication."""
        self.checks += 1
        num, den = actual
        if expected.numerator * den != num * expected.denominator:
            self._mismatch(name, context, expected, Fraction(num, den), matrix)

    def _mismatch(self, name, context, expected, actual, matrix):
        entry = {
            "check": name,
            "context": context,
            "expected": str(expected),
            "actual": str(actual),
        }
        if matrix is not None:
            entry["matrix"] = [list(r) for r in matrix]
        self.mismatches.append(entry)

    def as_dict(self):
        return {
            "checks": self.checks,
            "mismatches": self.mismatches,
            "ok": not self.mismatches,
        }


def _block(rep, tag, context, tb, smooth_slope, cols):
    """(Q, sigma(Q), (cols, det Q, adj(Q)[cols, cols])) from one pass on
    the ``cols`` inside Q, the form of the first presentation ``convert``
    gives at (tb, smooth_slope) (the rotation number and stabilization
    outcome leave Q unchanged).  A singular Q is one mismatch,
    ``tag``_invertible, and gives None: the caller skips that form."""
    knot = LegendrianData(tb, rot_range(tb)[0])
    mat = linking_matrix(convert(knot, smooth_slope - tb)[0]).Q
    cols = [c for c in cols if c < len(mat)]
    try:
        det, sigma, block = linalg.adjugate_block(mat, cols)
    except linalg.SingularMatrixError:
        rep._mismatch(f"{tag}_invertible", context, "det != 0", "det = 0", mat)
        return None
    return mat, sigma, (cols, det, block)


def _q(qb, col, row):
    """Entry (row, col) of Q^-1, as (numerator, denominator)."""
    cols, det, block = qb
    return block[cols.index(row)][cols.index(col)], det


def _csq(qb, v):
    """r^T Q^-1 r for the vector r that is ``v`` on cols and 0 elsewhere,
    as (numerator, denominator)."""
    cols, det, block = qb
    return linalg.adjugate_quadratic(block, range(len(cols)), v), det


def _entries(rep, tag, context, args, qb, mat, entries):
    """Check the inverse entry forms ``tag``_name(*args) against Q^-1 at
    (row, col), for each (name, row, col) of ``entries``."""
    for name, row, col in entries:
        rep.ratio(f"{tag}_{name}", context, DEFAULT_FORMS[f"{tag}_{name}"](*args),
                  _q(qb, col, row), mat)


_LEADING = (("q11", 0, 0), ("q12", 1, 0), ("q22", 1, 1))


def verify_closed_forms(k_max: int = 20, n_max: int = 20):
    """Check every closed form of DEFAULT_FORMS against the generic exact
    routines, on the forms ``convert`` and ``linking_matrix`` build.

    Sweeps 3 <= k <= k_max, 1 <= n <= n_max and all admissible rotation
    data (i, stabilization sign, chain rotations), and the bordered block
    determinants for |a|, |b|, |c| <= 3 and 1 <= m <= 6.  Mismatches are
    collected, not raised; the returned report lists them with enough
    context to recompute by hand.
    """
    if k_max < 3 or n_max < 1:
        raise ValueError("needs k_max >= 3 and n_max >= 1")
    f = DEFAULT_FORMS
    rep = _Report()

    for n in range(1, max(50, n_max) + 1):
        rep.record("chain_det", {"n": n}, f["chain_det"](n),
                   linalg.determinant(chain_matrix(n)))
        rep.record("chain_primed_det", {"n": n}, f["chain_primed_det"](n),
                   linalg.determinant(chain_matrix_primed(n)))

    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for m in range(1, 7):
                    mat = bordered_block_matrix(a, b, c, m)
                    rep.record("block_det", {"a": a, "b": b, "c": c, "m": m},
                               f["block_det"](a, b, c, m), linalg.determinant(mat))
                    if a < 0 and a * c - b * b > 0 and a * (c + 1) - b * b >= 0:
                        rep.record("block_negdef", {"a": a, "b": b, "c": c, "m": m},
                                   True, linalg.is_negative_definite(mat))

    for n in range(2, n_max + 1):
        if (blk := _block(rep, "tb1_neg", {"n": n}, -1, Fraction(-1, n),
                          [0 if n == 2 else 2])) is None:
            continue
        mat, sigma, qc = blk
        rep.record("tb1_neg_det", {"n": n}, f["tb1_neg_det"](n),
                   linalg.determinant(mat), mat)
        rep.record("tb1_neg_sigma", {"n": n}, f["tb1_neg_sigma"](n), sigma, mat)
        if n == 2:
            rep.ratio("tb1_neg_csq", {"n": n}, f["tb1_neg_csq"](n), _csq(qc, [0]), mat)
        for pm in (1, -1) if n > 2 else ():
            rep.ratio("tb1_neg_csq", {"n": n, "stab": pm},
                      f["tb1_neg_csq"](n), _csq(qc, [pm]), mat)

    for n in range(1, n_max + 1):
        if (blk := _block(rep, "tb1_pos", {"n": n}, -1, Fraction(1, n), [1])) is None:
            continue
        mat, sigma, qc = blk
        rep.record("tb1_pos_sigma", {"n": n}, f["tb1_pos_sigma"](n), sigma, mat)
        for rho in rot_range(-n - 1)[::-1]:
            rep.ratio("tb1_pos_csq", {"n": n, "rho": rho},
                      f["tb1_pos_csq"](n, rho), _csq(qc, [rho]), mat)

    for n in range(1, n_max + 1):
        if (blk := _block(rep, "tb2_neg", {"n": n}, -2, Fraction(-1, n), [0, 1])) is None:
            continue
        mat, sigma, qc = blk
        rep.record("tb2_neg_negdef", {"n": n}, True, sigma == -len(mat), mat)
        rep.record("tb2_neg_sigma", {"n": n}, f["tb2_neg_sigma"](n), sigma, mat)
        if n >= 2:
            _entries(rep, "tb2_neg", {"n": n}, (n,), qc, mat, _LEADING)
            for i in (1, -1):
                for j in (i + 2, i, i - 2):
                    rep.ratio("tb2_neg_csq", {"n": n, "i": i, "j": j},
                              f["tb2_neg_csq"](n, i, j), _csq(qc, [i, j]), mat)
        else:
            for i in (1, -1):
                rep.ratio("tb2_neg_csq", {"n": n, "i": i}, f["tb2_neg_csq"](n, i, 0),
                          _csq(qc, [i]), mat)

    for n in range(1, n_max + 1):
        if (blk := _block(rep, "tb2_pos", {"n": n}, -2, Fraction(1, n), [0, 1, 2])) is None:
            continue
        matp, sigma, qcp = blk
        rep.record("tb2_pos_sigma", {"n": n}, f["tb2_pos_sigma"](n), sigma, matp)
        qexp = f["tb2_pos_q"](n)
        for i_ in range(3):
            for j_ in range(3):
                rep.ratio("tb2_pos_q", {"n": n, "entry": (i_ + 1, j_ + 1)},
                          qexp[i_][j_], _q(qcp, j_, i_), matp)
        for i in (1, -1):
            for rho2 in (i + 1, i - 1):
                for s in rot_range(-n)[::-1]:
                    rep.ratio("tb2_pos_csq", {"n": n, "i": i, "rho2": rho2, "s": s},
                              f["tb2_pos_csq"](n, i, rho2, s),
                              _csq(qcp, [i, rho2, s]), matp)

    for k in range(3, k_max + 1):
        rots = rot_range(-k)[::-1]

        for sign, tag in ((-1, "two_neg"), (1, "two_pos")):
            if (blk := _block(rep, tag, {"k": k}, -k, 2 * sign, [0, 1])) is None:
                continue
            mat, sigma, qc = blk
            size = len(mat)
            if sign == -1:
                rep.record("two_neg_negdef", {"k": k}, True, sigma == -size, mat)
            rep.record(f"{tag}_sigma", {"k": k}, f[f"{tag}_sigma"](k), sigma, mat)
            _entries(rep, tag, {"k": k}, (k,), qc, mat, _LEADING[:1 if size == 1 else 3])
            for i in rots:
                if size == 1:
                    rep.ratio(f"{tag}_csq", {"k": k, "i": i},
                              f[f"{tag}_csq"](k, i, 1), _csq(qc, [i]), mat)
                for e in (1, -1) if size > 1 else ():
                    rep.ratio(f"{tag}_csq", {"k": k, "i": i, "e": e},
                              f[f"{tag}_csq"](k, i, e), _csq(qc, [i, i + e]), mat)

        for n in range(1, n_max + 1):
            if (blk := _block(rep, "one_neg", {"k": k, "n": n}, -k, Fraction(-1, n),
                              [0, 1, k - 1])) is None:
                continue
            mat, sigma, qc = blk
            size = len(mat)
            rep.record("one_neg_negdef", {"k": k, "n": n}, True, sigma == -size, mat)
            rep.record("one_neg_sigma", {"k": k, "n": n}, f["one_neg_sigma"](k, n), sigma, mat)
            _entries(rep, "one_neg", {"k": k, "n": n}, (k, n), qc, mat, _LEADING + (
                (("q1k", k - 1, 0), ("q2k", k - 1, 1), ("qkk", k - 1, k - 1)) if n >= 2 else ()))
            for i in rots:
                for e in (1, -1):
                    if n == 1:
                        rep.ratio("one_neg_csq", {"k": k, "n": n, "i": i, "e": e},
                                  f["one_neg_csq"](k, n, i, e, 0), _csq(qc, [i, i + e]), mat)
                    for j in (1, -1) if n > 1 else ():
                        rep.ratio("one_neg_csq", {"k": k, "n": n, "i": i, "e": e, "j": j},
                                  f["one_neg_csq"](k, n, i, e, j), _csq(qc, [i, i + e, j]), mat)

        for n in range(1, n_max + 1):
            if (blk := _block(rep, "one_pos", {"k": k, "n": n}, -k, Fraction(1, n),
                              [0, 1, k])) is None:
                continue
            matp, sigma, qcp = blk
            rep.record("one_pos_sigma", {"k": k, "n": n}, f["one_pos_sigma"](k, n), sigma, matp)
            _entries(rep, "one_pos", {"k": k, "n": n}, (k, n), qcp, matp, _LEADING + (
                ("q1last", k, 0), ("q2last", k, 1), ("qlastlast", k, k)))
            for i in rots:
                for e in (1, -1):
                    for s in rot_range(-n)[::-1]:
                        rep.ratio("one_pos_csq", {"k": k, "n": n, "i": i, "e": e, "s": s},
                                  f["one_pos_csq"](k, n, i, e, s), _csq(qcp, [i, i + e, s]), matp)

    return rep.as_dict()
