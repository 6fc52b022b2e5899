"""Exact linear algebra over the integers and rationals.

Everything in this module is exact.  One sparse, fraction-free
elimination of a symmetric matrix (``_eliminate``) yields its
determinant, its signature and, by integer back-substitution, a block
of its adjugate; ``adjugate_block`` is its only caller.  Inverse entries
are integers over the determinant, read from that block, and
definiteness is read through ``adjugate_block`` too: a matrix is
negative definite when the signature it returns is -n.  Signatures are
computed by two independent methods, which are required to agree: that
elimination (a congruence diagonalization) and Descartes' rule of signs
on the characteristic polynomial, which ``adjugate_block`` compares with
the signature of its one pass on every matrix it is given, so no
signature leaves this module unchecked.  The polynomial is built
division-free and without elimination, by a continuant along the path
of banded rows that ends the matrix (where ``surgery.linking_matrix``
puts the meridian chain) and Berkowitz's algorithm on the head before
it, so it shares nothing with the first method; determinants of any
square matrix are its constant term.

Matrices are sparse rows, row i the dict {j: x} of its nonzeros, so a
pass costs O(nnz), not O(n^2); ``sparse`` makes them from dense rows and
``dense`` turns them back.
"""

from __future__ import annotations

from operator import add, sub


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix."""


class SignatureMismatchError(RuntimeError):
    """The two independent signature methods disagreed; internal error."""


def sparse(rows):
    """The sparse rows of a square matrix given as dense rows."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense(rows):
    """The dense rows, as lists, of sparse ``rows``; the inverse of ``sparse``."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


class _Symmetric(tuple):
    """Sparse rows that passed ``check_symmetric``, which ``_eliminate`` trusts."""


def check_symmetric(rows, name="matrix"):
    """``rows`` as a ``_Symmetric`` tuple, if they are the sparse rows of a
    symmetric n x n matrix; else ValueError: a key outside 0..n-1 or a stored
    0 is not square, and an entry (i, j) without an equal (j, i) not symmetric."""
    n = len(rows)
    for i, row in enumerate(rows):
        for j, x in row.items():
            if not 0 <= j < n or not x:
                raise ValueError(f"{name} must be square")
            if rows[j].get(i) != x:
                raise ValueError(f"{name} must be symmetric")
    return _Symmetric(rows)


def _eliminate(rows, cols=()):
    """One sparse, fraction-free symmetric elimination of Q = ``rows``.

    Returns (det, sigma, B): det Q, the signature of Q and the block
    B = adj(Q)[cols, cols] as a tuple of rows, B[a][b] the entry
    (cols[a], cols[b]), in integers.  A singular Q stops at the first
    remaining row without a nonzero entry and returns (0, None, ()).

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
    unimodular congruence F Q F^T that makes the diagonal entry nonzero.

    Each e_c is the extra key n + idx of row c, so the row updates carry
    the right-hand sides.  The pivot order takes the other indices from
    the last down, which peels a chain from its end, and the rows of
    ``cols`` (distinct indices) last, so that no other row carries a
    right-hand side unless a zero pivot moves one of them up.  The pivot
    rows are kept, and the column step of a congruence reaches them too;
    back-substitution in reverse pivot order, y_v = (det T_v,rhs -
    sum_j T_vj y_j) / p, is exact because y = det F^-T Q^-1 e_c is
    integral, and y_mix += y_v undoes each congruence, the last one
    first.  Without a congruence it stops at the first row of ``cols``:
    B needs no earlier one.  Rows ``check_symmetric`` returned, such as an
    ``IntersectionForm``'s, are not checked again.
    """
    if type(rows) is not _Symmetric:
        check_symmetric(rows)
    n = len(rows)
    every = range(n)
    a = list(map(dict, rows))
    for idx, c in enumerate(cols):
        a[c][n + idx] = 1
    last = set(cols)
    order = [i for i in reversed(every) if i not in last] + list(cols)
    level = [0] * n  # row i holds the bordered minors of step level[i]
    pivots = [1]  # pivots[k] = p_k, the leading minor after k steps
    done = []  # (v, p, pivot row v) of each step, kept when cols are asked for
    mixes = []  # (v, mix) of each congruence, in order

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
                mix = next((j for j in a[v] if j < n), None)
                if mix is None:
                    return 0, None, ()
                mixes.append((v, mix))
                # row v += row mix, then column v += column mix; with both
                # diagonal entries zero, T_vv becomes 2 T_v,mix
                row_v, row_m = current(v, k), current(mix, k)
                for j, x in row_m.items():
                    row_v[j] = row_v.get(j, 0) + x
                for i in [i for i in row_m if i < n]:
                    row_i = a[i]
                    row_i[v] = row_i.get(v, 0) + row_i.get(mix, 0)
                for _, _, row_u in done:  # a zero left here adds nothing
                    if mix in row_u:
                        row_u[v] = row_u.get(v, 0) + row_u[mix]
                for j in [j for j, x in row_v.items() if not x]:
                    del row_v[j]
                    if j < n:
                        del a[j][v]
        row_v = current(v, k)
        a[v] = None
        prev, p = pivots[k], row_v.pop(v)
        pivots.append(p)
        if (p > 0) == (prev > 0):
            pos += 1
        if cols:
            done.append((v, p, row_v))
        for i, f in row_v.items():
            if i >= n:
                continue
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
    det, sigma = pivots[n], 2 * pos - n
    if not cols:
        return det, sigma, ()
    # y[v] holds row v of adj(Q)[:, cols], all right-hand sides at once
    start = 0 if mixes else min(k for k, v in enumerate(order) if v in last)
    y = [None] * n
    for v, p, row in reversed(done[start:]):
        acc = [0] * len(cols)
        for j, x in row.items():
            if j < n:
                acc = list(map(sub, acc, map(x.__mul__, y[j])))
            else:
                acc[j - n] += det * x
        y[v] = [s // p for s in acc]
    for v, mix in reversed(mixes):
        y[mix] = list(map(add, y[mix], y[v]))
    return det, sigma, tuple(tuple(y[c]) for c in cols)


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix, (-1)^n chi_A(0)."""
    coeffs = char_poly(rows)
    return (-1) ** (len(coeffs) - 1) * coeffs[-1]


def adjugate_block(rows, support):
    """det A, the signature of A and the block B = adj(A)[S, S] on the
    index list S = ``support`` of a symmetric integer matrix A.

    B[a][b] is entry (S[a], S[b]) of adj(A), so (A^-1)_{S[a], S[b]} is
    B[a][b] / det; S = range(n) gives the whole adjugate.  One elimination
    pass with the columns S gives all three, and its signature must equal
    the Descartes signature of A; a disagreement raises
    SignatureMismatchError (it would mean a bug, not a property of the
    input).  Raises SingularMatrixError when det A = 0.
    """
    det, sigma, block = _eliminate(rows, support)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    check = descartes_signature(rows)
    if sigma != check:
        raise SignatureMismatchError(f"signature methods disagree: "
                                     f"diagonalization={sigma} descartes={check}")
    return det, sigma, block


def char_poly(rows):
    """Characteristic polynomial det(x*I - A) of a square integer matrix.

    Returns the integer coefficients in descending degree, leading 1,
    division-free and without elimination.  Row i is banded when row and
    column i are zero outside positions i-1..i+1.  The banded rows t..n-1
    that end the matrix form a path, joined to the head 0..t-1 only by
    entries (t-1, t) and (t, t-1): a continuant along it, seeded with chi
    of the head and of the head without t-1 (both by Berkowitz), gives
    chi.  ``linking_matrix`` puts the meridian chain last, hung on the
    last push-off.  Reading the rows costs O(nnz) and Berkowitz O(k^4)
    on a head of k rows; the continuant costs O(len f) integer operations
    per vertex, and O(r len f) for a run of r framings -2 that it takes in
    one step (see ``_run``).  So a slope -1/N, whose meridian chain is one
    such run hung on k <= 3 push-offs, costs O(N k) reading and
    arithmetic, not O(N^2) big-int steps; other matrices pay Berkowitz on
    the head.
    """
    n = len(rows)
    # nonzero off-diagonal entries of each row, then of each column too
    nbrs = list(map(set, rows))
    for i, row in enumerate(nbrs):
        row.discard(i)
        for j in row:
            nbrs[j].add(i)
    t = n
    while t and nbrs[t - 1] <= {t - 2, t}:
        t -= 1
    if t == n:
        coeffs = _berkowitz(rows, range(n))
    elif t:
        coeffs = _path_extend(rows, range(t, n), t - 1, _berkowitz(rows, range(t)),
                              _berkowitz(rows, range(t - 1)))
    else:
        coeffs = _path_extend(rows, range(n), None, [1], None)
    return coeffs[::-1]


def _path_extend(a, path, attach, f, g):
    """Run the continuant F_v = (x - a_vv) F_prev - w^2 F_prev2 along
    ``path`` from F_0 = f and F_-1 = g, with w^2 = a[v][prev] a[prev][v].

    ``attach`` is the vertex the path hangs on; with None, the first step
    has no w^2 term (the path starts the matrix and f = 1).  A vertex
    with a_vv = -2 and w^2 = 1 is held back, and each maximal run of them,
    such as the meridian chain of a slope -1/N, goes to ``_run`` at once.
    Polynomials are ascending coefficient lists.
    """
    prev, r = attach, 0
    for v in path:
        d = a[v].get(v, 0)
        w2 = 0 if prev is None else a[v].get(prev, 0) * a[prev].get(v, 0)
        prev = v
        if d == -2 and w2 == 1:
            r += 1
            continue
        if r:
            f, g = _run(f, g, r, True)
            r = 0
        nxt = [0] + f
        for k, x in enumerate(f):
            nxt[k] -= d * x
        if w2:
            for k, x in enumerate(g):
                nxt[k] -= w2 * x
        f, g = nxt, f
    if r:
        f = _run(f, g, r, False)[0]
    return f


# a run takes the closed form when r >= _RUN_MIN len f; below that, r
# plain steps cost less than its products and the 2r steps of _run_polys
_RUN_MIN = 8


def _run(f, g, r, more):
    """(F_r, F_(r-1)) after r steps F_v = (x + 2) F_prev - F_prev2 from
    F_0 = f and F_-1 = g; the closed form leaves F_(r-1) None unless
    ``more``.

    The run's transfer matrix is [[P_r, -P_(r-1)], [P_(r-1), -P_(r-2)]]
    with P_r = U_r(1 + x/2) (see ``_run_polys``), P_0 = 1 and P_-1 = 0,
    so F_r = P_r f - P_(r-1) g costs O(r len f) integer operations where r
    steps cost O(r (len f + r)).  F_(r-1) = P_(r-1) f - P_(r-2) g, with
    P_(r-2) = (x + 2) P_(r-1) - P_r, is built only for ``more``.
    """
    if r < _RUN_MIN * len(f):
        for _ in range(r):
            nxt = [0] + f
            for k, x in enumerate(f):
                nxt[k] += 2 * x
            for k, x in enumerate(g):
                nxt[k] -= x
            f, g = nxt, f
        return f, g
    p, q = _run_polys(r)
    pairs = [(p, q)]
    if more:
        pairs.append((q, [x + 2 * y - z for x, y, z in zip([0] + q, q, p[:r - 1])]))
    out = []
    for top, low in pairs:
        h = [0] * (len(f) + len(top) - 1)
        for poly, by, op in ((f, top, add), (g, low, sub)):
            m = len(by)
            for k, x in enumerate(poly):
                if x:
                    h[k:k + m] = map(op, h[k:k + m], map(x.__mul__, by))
        out.append(h)
    return out[0], out[1] if more else None


def _run_polys(r):
    """Ascending coefficients of P_r and P_(r-1), where
    P_s = U_s(1 + x/2) = sum_j C(s+1+j, 2j+1) x^j; consecutive
    coefficients differ by the exact factor
    (s+2+j)(s-j) / ((2j+2)(2j+3))."""
    out = []
    for s in (r, r - 1):
        c, poly = s + 1, []
        for j in range(s + 1):
            poly.append(c)
            c = c * (s + 2 + j) * (s - j) // ((2 * j + 2) * (2 * j + 3))
        out.append(poly)
    return out


def _berkowitz(a, idx):
    """Ascending coefficients of det(x*I - A) on ``idx`` (Berkowitz 1984).

    Grows the leading block A_k one vertex v at a time, with column c and
    row r the entries joining v to A_k.  From p = chi(A_k) and
    t_m = r A_k^m c, chi(A_(k+1)) = (x - a_vv) p - sum_j x^j
    sum_(i>j) p_i t_(i-j-1), by the adjugate identity
    adj(x*I - A_k) = sum_j x^j sum_(i>j) p_i A_k^(i-j-1).  Rows are kept
    sparse, so a step costs k matrix-vector products over the nonzeros.
    """
    where = {w: pos for pos, w in enumerate(idx)}
    off = [[(where[w], x) for w, x in a[u].items() if w != u and w in where] for u in idx]
    diag = [a[u].get(u, 0) for u in idx]
    p = [1]
    for k, v in enumerate(idx):
        col = [a[u].get(v, 0) for u in idx[:k]]
        row = [(pos, x) for pos, x in off[k] if pos < k]
        t = []
        for m in range(k):
            t.append(sum(x * col[pos] for pos, x in row))
            if m + 1 < k:
                col = [diag[i] * col[i] + sum(x * col[pos] for pos, x in off[i] if pos < k)
                       for i in range(k)]
        q = [0] + p
        d = diag[k]
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

