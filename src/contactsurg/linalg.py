"""Exact linear algebra over the integers and rationals.

Everything in this module is exact.  One fraction-free (Bareiss)
elimination pass yields the determinant, the leading principal minors
(Sylvester's criterion) and, by integer back-substitution, columns of
the adjugate; inverse entries and r^T A^-1 r are integers over the
determinant, read from the block of the adjugate on r's support.
Signatures of symmetric integer matrices are computed by
two independent methods, which are required to agree: a sparse,
fraction-free congruence diagonalization, and Descartes' rule of signs
applied to the characteristic polynomial.  The polynomial is built
division-free and without elimination, by continuants along pendant
paths and Berkowitz's algorithm on the rest, so it shares nothing with
the first method.

Matrices are sequences of rows of ints: lists of lists, or tuples of
tuples such as IntersectionForm.Q.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import mul


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
    """Whether a square matrix equals its transpose.

    One C-level pass compares each row with the column ``zip`` yields
    beside it; the columns are made one at a time, never the whole
    transpose.  A ragged or non-square matrix raises ValueError first,
    since ``zip`` would silently truncate ragged rows.
    """
    _check_square(rows)
    return all(map(tuple.__eq__, map(tuple, rows), zip(*rows)))


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
    a = [list(map(int, row)) for row in rows]
    if cols:
        for i, row in enumerate(a):
            row.extend(1 if c == i else 0 for c in cols)
    # one past each row's last nonzero column
    hi = [next(compress(range(w, 0, -1), reversed(row)), 0) for row in a]
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


def adjugate_block(rows, support):
    """det A and the block B = adj(A)[S, S] on the index list S = ``support``.

    B[a][b] is entry (S[a], S[b]) of adj(A), so (A^-1)_{S[a], S[b]} is
    B[a][b] / det; S = range(n) gives the whole adjugate.  One elimination
    pass with the columns S gives it.  Raises SingularMatrixError when
    det A = 0.
    """
    det, _, _, adj = _bareiss(rows, support)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    return det, tuple(tuple(adj[c][i] for c in support) for i in support)


def adjugate_quadratic(block, support, r) -> int:
    """The integer r^T adj(A) r = v^T B v from B = adj(A)[S, S], where v is r
    on S; over det A it is r^T A^-1 r.

    An entry of r off S would need a part of adj(A) that B does not hold,
    so it raises ValueError.
    """
    v = list(map(r.__getitem__, support))
    if len(r) - r.count(0) != len(v) - v.count(0):
        raise ValueError("vector has a nonzero entry outside the block's support")
    total = 0
    for x, row in zip(v, block):
        if x:
            total += x * sum(map(mul, row, v))
    return total


def is_negative_definite(rows) -> bool:
    """Sylvester's criterion: (-1)^k det(A_k) > 0 for every leading minor.

    The minors are the pivots of one elimination pass.  A row swap means
    some leading minor vanished, so the matrix is not definite.
    """
    det, pivots, swapped, _ = _bareiss(rows)
    return det != 0 and not swapped and all(
        (-1) ** k * p > 0 for k, p in enumerate(pivots, 1))


def congruence_signature(rows) -> int:
    """Signature via congruence diagonalization, fraction-free and sparse.

    Symmetric elimination M -> E M E^T keeps the signature, and the k-th
    diagonal entry it leaves is p_k / p_(k-1) for the leading principal
    minors p_k of the pivot order, so the signs come from consecutive
    pivots.  The trailing block is held as the integer bordered minors
    T = p_(k-1) S of the Schur complement S (Bareiss 1968): pivot v with
    value p updates T_ij <- (p T_ij - T_iv T_vj) / p_(k-1), an exact
    division, on the rows of its neighbours i only; a row no pivot has
    touched since step t is rescaled lazily by p_k / p_t.  Rows are dicts
    of their nonzeros.  A zero pivot gives way to a later nonzero
    diagonal entry; when every remaining diagonal entry vanishes, row and
    column v gain a row and column holding a nonzero entry of row v, a
    unimodular congruence that makes the diagonal entry nonzero.
    Requires det != 0.
    """
    n = len(rows)
    every = range(n)
    a = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        a.append({j: int(row[j]) for j in compress(every, row)})
    for i, row in enumerate(a):
        for j, x in row.items():
            if a[j].get(i) != x:
                raise ValueError("matrix must be symmetric")
    order = list(every)
    level = [0] * n  # row i holds the bordered minors of step level[i]
    pivots = [1]  # pivots[k] = p_k, the leading minor after k steps

    def current(u, k):
        """Row u, rescaled to step k."""
        t = level[u]
        if t < k:
            num, den = pivots[k], pivots[t]
            a[u] = {j: x * num // den for j, x in a[u].items()}
            level[u] = k
        return a[u]

    pos = 0
    for k in range(n):
        v = order[k]
        if v not in a[v]:
            swap = next((r for r in range(k + 1, n) if order[r] in a[order[r]]), None)
            if swap is not None:
                order[k], order[swap] = order[swap], order[k]
                v = order[k]
            else:
                mix = next(iter(a[v]), None)
                if mix is None:
                    raise SingularMatrixError("matrix is singular")
                # row v += row mix, then column v += column mix; with both
                # diagonal entries zero, T_vv becomes 2 T_v,mix
                row_v, row_m = current(v, k), current(mix, k)
                for j, x in row_m.items():
                    row_v[j] = row_v.get(j, 0) + x
                for i in list(row_m):
                    row_i = a[i]
                    row_i[v] = row_i.get(v, 0) + row_i.get(mix, 0)
                for j in [j for j, x in row_v.items() if not x]:
                    del row_v[j], a[j][v]
        row_v = current(v, k)
        a[v] = None
        prev, p = pivots[k], row_v.pop(v)
        pivots.append(p)
        if (p > 0) == (prev > 0):
            pos += 1
        for i, f in row_v.items():
            row_i = current(i, k)
            del row_i[v]
            new = {}
            for j, x in row_i.items():
                y = row_v.get(j)
                x = (p * x - f * y) // prev if y is not None else x * p // prev
                if x:
                    new[j] = x
            for j, y in row_v.items():
                if j not in row_i:
                    new[j] = -f * y // prev
            a[i] = new
            level[i] = k + 1
    return 2 * pos - n


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
    a = [list(map(int, row)) for row in rows]
    # nonzero off-diagonal entries of each row, then of each column too
    nbrs = [set(compress(range(n), row)) for row in a]
    for i, row in enumerate(nbrs):
        row.discard(i)
        for j in row:
            nbrs[j].add(i)
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
    a = congruence_signature(key)
    b = descartes_signature(key)
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
    key = tuple(tuple(map(int, r)) for r in rows)
    if not is_symmetric(key):
        raise ValueError("matrix must be symmetric")
    return _signature_cached(key)
