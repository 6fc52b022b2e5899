"""Exact linear algebra over the integers and rationals.

Everything in this module is exact.  One fraction-free (Bareiss)
elimination pass yields the determinant, the leading principal minors
(Sylvester's criterion) and, by integer back-substitution, columns of
the adjugate; inverse entries and r^T A^-1 r are single fractions over
the determinant.  Signatures of symmetric integer matrices are computed
by two independent methods (congruence diagonalization over Q, and
Descartes' rule of signs applied to the characteristic polynomial) which
are required to agree.

Matrices are plain lists of lists of ints (rows).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix."""


class SignatureMismatchError(RuntimeError):
    """The two independent signature methods disagreed; internal error."""


def _check_square(rows):
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
    return n


def is_symmetric(rows) -> bool:
    n = _check_square(rows)
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i))


def _bareiss(rows, cols=()):
    """One fraction-free (Bareiss) elimination pass over [A | e_c for c in cols].

    Returns (det, pivots, swapped, adj): det A; the pivot of each step
    taken, which are the leading principal minors of A when no row was
    swapped; whether a swap happened; and {c: column c of adj(A)} as
    integers.  A singular A stops at the first column without a pivot,
    with det = 0 and adj = {}.

    Every intermediate is an integer minor.  A row skipped by the steps
    t..k-1 (zero in their pivot columns) is rescaled lazily, by p_k / p_t
    for leading pivots p_s, and ``hi`` bounds each row's nonzero columns,
    so banded matrices cost only their fill-in.  Back-substitution on the
    triangular result U, y_k = (det * b_k - sum_{j>k} U_kj y_j) // U_kk,
    is exact because y = det * A^-1 e_c is integral.
    """
    n = _check_square(rows)
    cols = list(cols)
    w = n + len(cols)
    a = [[int(x) for x in row] for row in rows]
    if cols:
        for i, row in enumerate(a):
            row.extend(1 if c == i else 0 for c in cols)
    hi = []
    for row in a:
        top = 0
        for j in range(w - 1, -1, -1):
            if row[j]:
                top = j + 1
                break
        hi.append(top)
    level = [0] * n
    pivots = [1] * (n + 1)  # pivots[t] = pivot of step t-1
    sign = 1
    swapped = False
    for k in range(n):
        piv = None
        for r in range(k, n):
            if a[r][k]:
                piv = r
                break
        if piv is None:
            return 0, pivots[1:k + 1], swapped, {}
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            level[k], level[piv] = level[piv], level[k]
            hi[k], hi[piv] = hi[piv], hi[k]
            sign = -sign
            swapped = True
        t = level[k]
        if t < k:
            num, den = pivots[k], pivots[t]
            row_k = a[k]
            for j in range(k, hi[k]):
                if row_k[j]:
                    row_k[j] = row_k[j] * num // den
            level[k] = k
        pivot = a[k][k]
        pivots[k + 1] = pivot
        prev = pivots[k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            if row_i[k] == 0:
                continue
            t = level[i]
            if t < k:
                num, den = pivots[k], pivots[t]
                for j in range(k, hi[i]):
                    if row_i[j]:
                        row_i[j] = row_i[j] * num // den
            f = row_i[k]
            top = max(hi[i], hi[k])
            for j in range(k + 1, top):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
            row_i[k] = 0
            hi[i] = top
            level[i] = k + 1
    det = sign * pivots[n]
    adj = {}
    for idx, c in enumerate(cols):
        y = [0] * n
        for k in range(n - 1, -1, -1):
            row = a[k]
            s = det * row[n + idx]
            for j in range(k + 1, min(hi[k], n)):
                if row[j]:
                    s -= row[j] * y[j]
            y[k] = s // row[k]
        adj[c] = y
    return det, pivots[1:], swapped, adj


def determinant(rows) -> int:
    """Exact determinant of an integer matrix (one Bareiss pass)."""
    return _bareiss(rows)[0]


def adjugate_columns(rows, cols):
    """det A and the columns ``cols`` of adj(A) = det(A) A^-1.

    Returns (det, {c: column c of adj(A) as a list of ints}); entry i of
    column c over det is (A^-1)_{ic}.  One elimination pass is shared by
    all columns.  Raises SingularMatrixError when det A = 0.
    """
    det, _, _, adj = _bareiss(rows, cols)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    return det, adj


def inverse_quadratic(det, adj, r) -> Fraction:
    """r^T A^-1 r from det A and the adjugate columns on the support of r.

    The sum r^T adj(A) r stays an integer; the only rational is the final
    division by det.
    """
    support = [(i, x) for i, x in enumerate(r) if x]
    total = 0
    for j, rj in support:
        col = adj[j]
        total += rj * sum(ri * col[i] for i, ri in support)
    return Fraction(total, det)


def is_negative_definite(rows) -> bool:
    """Sylvester's criterion: (-1)^k det(A_k) > 0 for every leading minor.

    The minors are the pivots of one elimination pass.  A row swap means
    some leading minor vanished, so the matrix is not definite.
    """
    det, pivots, swapped, _ = _bareiss(rows)
    return det != 0 and not swapped and all(
        (-1) ** k * p > 0 for k, p in enumerate(pivots, 1))


def congruence_signature(rows) -> int:
    """Signature via congruence diagonalization over the rationals.

    Symmetric row+column operations M -> E M E^T preserve the signature;
    the answer is read off the diagonal signs.  Requires det != 0.
    """
    n = _check_square(rows)
    if not is_symmetric(rows):
        raise ValueError("matrix must be symmetric")
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = None
            for r in range(k + 1, n):
                if a[r][r] != 0:
                    swap = r
                    break
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                # every remaining diagonal entry vanishes; mix in a row with
                # a nonzero off-diagonal entry (one exists when det != 0)
                mix = None
                for r in range(k + 1, n):
                    if a[k][r] != 0:
                        mix = r
                        break
                if mix is None:
                    raise SingularMatrixError("matrix is singular")
                for j in range(n):
                    a[k][j] += a[mix][j]
                for i in range(n):
                    a[i][k] += a[i][mix]
        pk = a[k][k]
        if pk > 0:
            pos += 1
        else:
            neg += 1
        ak = a[k]
        for r in range(k + 1, n):
            f = a[r][k]
            if f == 0:
                continue
            ratio = f / pk
            ar = a[r]
            for j in range(k, n):
                if ak[j]:
                    ar[j] -= ratio * ak[j]
            for i in range(k, n):
                if a[i][k]:
                    a[i][r] -= ratio * a[i][k]
    return pos - neg


def char_poly(rows):
    """Characteristic polynomial of A via principal-minor sums.

    Returns the coefficients of det(lambda*I - A) in descending degree:
    [1, -E_1, +E_2, ..., (-1)^n E_n], where E_i is the sum of all i x i
    principal minors.  Exponential in n; intended for small matrices.
    The same coefficients are produced by :func:`char_poly_interpolate`.
    """
    n = _check_square(rows)
    coeffs = [1]
    for size in range(1, n + 1):
        e = 0
        for subset in combinations(range(n), size):
            sub = [[rows[i][j] for j in subset] for i in subset]
            e += determinant(sub)
        coeffs.append((-1) ** size * e)
    return coeffs


def char_poly_interpolate(rows):
    """Characteristic polynomial via exact interpolation of det(x*I - A).

    Evaluates the determinant at n+1 integer points and runs Newton's
    divided differences; this elimination-based route gives the same
    integer coefficients as the principal-minor sums of :func:`char_poly`.
    """
    n = _check_square(rows)
    if n == 0:
        return [1]
    xs = list(range(n + 1))
    base = [[-int(x) for x in row] for row in rows]
    table = []
    for x in xs:
        shifted = [row.copy() for row in base]
        for i in range(n):
            shifted[i][i] += x
        table.append(Fraction(determinant(shifted)))
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of the Newton form, descending-degree coefficients
    poly = [Fraction(0)] * n + [table[n]]
    for i in range(n - 1, -1, -1):
        new = [Fraction(0)] * (n + 1)
        for j in range(n + 1):
            c = poly[j]
            if c:
                if j - 1 >= 0:
                    new[j - 1] += c
                new[j] -= xs[i] * c
        new[n] += table[i]
        poly = new
    out = []
    for c in poly:
        if c.denominator != 1:
            raise RuntimeError("characteristic polynomial interpolation not integral")
        out.append(c.numerator)
    return out


def _sign_changes(coeffs):
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def descartes_signature(rows, coeffs=None) -> int:
    """Signature via Descartes' rule of signs on the char polynomial.

    A symmetric matrix has an all-real spectrum, so the sign-change count
    of P(lambda) equals the number of positive eigenvalues exactly, and
    P(-lambda) counts the negative ones.  Requires det != 0, which rules
    out zero eigenvalues.
    """
    if coeffs is None:
        coeffs = char_poly_interpolate(rows)
    if coeffs[-1] == 0:
        raise SingularMatrixError("matrix is singular")
    positive = _sign_changes(coeffs)
    degree = len(coeffs) - 1
    negated = [c if (degree - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    negative = _sign_changes(negated)
    return positive - negative


@lru_cache(maxsize=4096)
def _signature_cached(key) -> int:
    rows = [list(r) for r in key]
    a = congruence_signature(rows)
    b = descartes_signature(rows)
    if a != b:
        raise SignatureMismatchError(
            f"signature methods disagree: diagonalization={a} descartes={b}"
        )
    return a


def signature(rows) -> int:
    """Signature of a nondegenerate symmetric integer matrix.

    Computed independently by congruence diagonalization and by the
    Descartes/characteristic-polynomial method; a disagreement aborts
    (it would mean a bug, not a property of the input).  Results are
    memoized, so repeated forms (the same surgery trace with different
    rotation vectors) cost one computation.
    """
    if not is_symmetric(rows):
        raise ValueError("matrix must be symmetric")
    return _signature_cached(tuple(tuple(int(x) for x in r) for r in rows))
