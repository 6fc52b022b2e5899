"""Exact linear algebra over the integers and rationals.

Everything in this module is exact.  One fraction-free (Bareiss)
elimination pass yields the determinant, the leading principal minors
(Sylvester's criterion) and, by integer back-substitution, columns of
the adjugate; inverse entries and r^T A^-1 r are single fractions over
the determinant.  Signatures of symmetric integer matrices are computed
by two independent methods, which are required to agree: congruence
diagonalization over Q, and Descartes' rule of signs applied to the
characteristic polynomial.  The polynomial is built division-free and
without elimination, by continuants along pendant paths and Berkowitz's
algorithm on the rest, so it shares nothing with the first method.

Matrices are plain lists of lists of ints (rows).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


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


# Distinct subgraphs the pendant-path recursion may visit (which also bounds
# its depth) before char_poly hands the whole matrix to Berkowitz instead.
# Every linking matrix here needs three; a branchy tree can need several n.
_PENDANT_BUDGET = 256


class _TooBranched(Exception):
    """The pendant-path recursion exceeded _PENDANT_BUDGET subgraphs."""


def char_poly(rows):
    """Characteristic polynomial det(x*I - A) of a square integer matrix.

    Returns the integer coefficients in descending degree, leading 1.
    The route is division-free and uses no elimination: pendant paths of
    the graph of nonzero off-diagonal entries are peeled off by continuant
    recurrences, and whatever has no leaf goes to Berkowitz's algorithm.
    A surgery linking matrix (a clique of k push-offs with one meridian
    path attached) costs O(n^2 + k^4) integer operations this way.
    """
    n = _check_square(rows)
    a = [[int(x) for x in row] for row in rows]
    nbrs = [{j for j in range(n) if j != i and (a[i][j] or a[j][i])} for i in range(n)]
    try:
        coeffs = _char_poly(a, nbrs, frozenset(range(n)), {})
    except _TooBranched:
        coeffs = _berkowitz(a, list(range(n)))
    return coeffs[::-1]


def _char_poly(a, nbrs, verts, memo):
    """Ascending coefficients of det(x*I - A) on the vertex set ``verts``.

    Every component that is a path (an isolated vertex included) is a
    continuant, seeded with the rest.  A pendant path v_1..v_m (v_m a leaf)
    attached at a vertex c of degree >= 3 gives, with F_0 = chi(core) and
    F_-1 = chi(core - c), F_k = (x - a_kk) F_(k-1) - w_k^2 F_(k-2), where
    w_k^2 = a_(k,k-1) a_(k-1,k) and v_0 = c; both seeds recurse.
    """
    hit = memo.get(verts)
    if hit is not None:
        return hit
    if len(memo) >= _PENDANT_BUDGET:
        raise _TooBranched
    rest = set(verts)
    degree = {v: len(nbrs[v] & rest) for v in rest}
    paths, attached = [], None
    for start in sorted(verts):
        if start not in rest or degree[start] > 1:
            continue
        path, prev, end = [start], None, None
        while True:
            nxt = next((u for u in nbrs[path[-1]] if u != prev and u in rest), None)
            if nxt is None:
                break
            if degree[nxt] > 2:
                end = nxt
                break
            prev = path[-1]
            path.append(nxt)
        if end is None:
            paths.append(path)
            rest.difference_update(path)
        elif attached is None:
            attached = (path, end)
    if attached is not None:
        path, c = attached
        core = frozenset(rest.difference(path))
        poly = _path_extend(a, path[::-1], c, _char_poly(a, nbrs, core, memo),
                            _char_poly(a, nbrs, core - {c}, memo))
    else:
        poly = _berkowitz(a, sorted(rest))
    for path in paths:
        poly = _path_extend(a, path, None, poly, None)
    memo[verts] = poly
    return poly


def _path_extend(a, path, attach, f, g):
    """Run the continuant along ``path`` from F_0 = f and F_-1 = g.

    ``attach`` is the vertex the path hangs on; with None, the first step
    has no w^2 term (the path is a whole component and f the rest).
    Polynomials are ascending coefficient lists.
    """
    prev = attach
    for v in path:
        d = a[v][v]
        nxt = [0] + f
        for i, x in enumerate(f):
            nxt[i] -= d * x
        if prev is not None:
            w2 = a[v][prev] * a[prev][v]
            if w2:
                for i, x in enumerate(g):
                    nxt[i] -= w2 * x
        f, g, prev = nxt, f, v
    return f


def _berkowitz(a, idx):
    """Ascending coefficients of det(x*I - A) on ``idx`` (Berkowitz 1984).

    Grows the leading block A_k one vertex v at a time, with column c and
    row r the entries joining v to A_k.  From p = chi(A_k) and
    t_m = r A_k^m c, chi(A_(k+1)) = (x - a_vv) p - sum_j x^j
    sum_(i>j) p_i t_(i-j-1), by the adjugate identity
    adj(x*I - A_k) = sum_j x^j sum_(i>j) p_i A_k^(i-j-1).  Rows are kept
    sparse, so a step costs k matrix-vector products over the nonzeros.
    """
    off = [[(pos, a[u][w]) for pos, w in enumerate(idx) if w != u and a[u][w]]
           for u in idx]
    p = [1]
    for k, v in enumerate(idx):
        lead = idx[:k]
        col = [a[u][v] for u in lead]
        row = [(pos, x) for pos, x in off[k] if pos < k]
        t = []
        for m in range(k):
            t.append(sum(x * col[pos] for pos, x in row))
            if m + 1 < k:
                col = [a[u][u] * col[i] + sum(x * col[pos] for pos, x in off[i] if pos < k)
                       for i, u in enumerate(lead)]
        q = [0] + p
        d = a[v][v]
        for i, x in enumerate(p):
            q[i] -= d * x
        for j in range(k):
            q[j] -= sum(p[i] * t[i - j - 1] for i in range(j + 1, k + 1))
        p = q
    return p


def _sign_changes(coeffs):
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def descartes_signature(rows) -> int:
    """Signature via Descartes' rule of signs on the char polynomial.

    A symmetric matrix has an all-real spectrum, so the sign-change count
    of P(lambda) equals the number of positive eigenvalues exactly, and
    P(-lambda) counts the negative ones.  Requires det != 0, which rules
    out zero eigenvalues.
    """
    coeffs = char_poly(rows)
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
