"""Exact linear algebra over the integers and rationals.

Everything in this module is exact.  Every form the library meets is a
path in index order (tridiagonal), or a clique of push-offs with one
link value and a meridian path hung on its last row, which a unimodular
change of basis E turns into a path.  On a path two continuants give the
determinant, the signature and every adjugate entry (``_path_kernel``,
whose one caller is ``adjugate_block``); any other shape raises
ValueError.  Inverse entries are integers over the determinant, read
from that block, and a matrix is negative definite when the signature
``adjugate_block`` returns is -n.  That signature is checked against an
independent one, Descartes' rule of signs on the characteristic
polynomial of Q itself, whose constant term must also give the kernel's
determinant, so no signature leaves this module unchecked.  The
polynomial is built division-free and without elimination, by a
continuant along the path of banded rows that ends the matrix (where
``surgery.linking_matrix`` puts the meridian chain), seeded on a clique
head by the matrix determinant lemma in O(h^2) for h rows; ``char_poly``
finds the head itself and takes the shapes the kernel takes, no others.
``leading_determinants`` reads the determinant of every leading block of
a banded matrix off one continuant pass: (-1)^i times the constant term
of chi of the leading i rows.

Matrices are sparse rows, row i the dict {j: x} of its nonzeros, so a
pass costs O(nnz), not O(n^2); ``dense`` turns them into dense rows.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import prod
from operator import add, mul, ne, sub


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix."""


class SignatureMismatchError(RuntimeError):
    """The two independent signature methods disagreed; internal error."""


class KernelCheckError(RuntimeError):
    """A self-check of the path kernel failed; internal error."""


def dense(rows):
    """The dense rows, as lists, of sparse ``rows``."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


class _Symmetric(tuple):
    """Sparse rows that passed ``check_symmetric``, which ``_path_kernel`` trusts."""


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


def _head(rows, a, b):
    """The size h of the clique head E takes to a path, or 0 when the
    symmetric ``rows``, of diagonal ``a`` and links ``b`` from i to i+1,
    are a path already: when their nonzeros are those of the band.  A
    clique head is rows 0..h-1, h >= 3, that all link each other with one
    value c != 0; rows h..n-1 are a path, which by symmetry meets the head
    only at (h-1, h).  Any other shape raises ValueError."""
    if sum(map(len, rows)) == len(a) - a.count(0) + 2 * (len(b) - b.count(0)):
        return 0
    c, h = rows[0].get(1), 2
    while h < len(rows) and rows[0].get(h) == c:
        h += 1
    full = dict.fromkeys(range(h + 1), c)
    if not c or h < 3 or any({**row, i: c, h: c} != full for i, row in enumerate(rows[:h])) or any(
            row and not i - 1 <= min(row) <= max(row) <= i + 1 for i, row in enumerate(rows[h:], h)):
        raise ValueError("matrix is neither a path nor a clique head with a path on its last row")
    return h


def _path_kernel(rows, cols=()):
    """det Q, the signature of Q and B = adj(Q)[cols, cols] (``cols``
    distinct indices; B[a][b] the entry (cols[a], cols[b])) of a symmetric
    Q = ``rows`` that is a path, or a clique head and a path (``_head``),
    from two continuants.  A singular Q returns (0, None, ()).

    A clique head of h rows with link c and diagonal d_i first goes
    through the unimodular E with rows e_i - e_(i+1) for i <= h - 3, then
    e_(h-2), e_(h-1), then the identity: Q' = E Q E^T is a path, with
    diagonal d_i - 2c + d_(i+1) and link c - d_(i+1) from i to i+1 for
    i <= h - 3, then d_(h-2), d_(h-1) linked by c, then Q unchanged;
    E Q E^T = Q' is checked on the head rows.  On the path of diagonal
    a_i and links b_i, the leading continuant is theta_0 = 1, theta_(i+1)
    = a_i theta_i - b_(i-1)^2 theta_(i-1), and the trailing one phi_n = 1,
    phi_i = a_i phi_(i+1) - b_i^2 phi_(i+2); det Q = det Q' = theta_n,
    which must equal phi_0.  The negative index is the number of sign changes along
    the nonzero thetas: on a nonsingular path a zero theta_i is isolated
    and its neighbours have opposite signs (Frobenius), and E keeps the
    signature (Sylvester).  adj(Q')_ij = (-1)^(i+j) b_i ... b_(j-1)
    theta_i phi_(j+1) for i <= j (Usmani 1994), and
    B = E[:, cols]^T adj(Q') E[:, cols], since det E = 1.  Rows
    ``check_symmetric`` returned, such as an ``IntersectionForm``'s, are
    not checked again.
    """
    if type(rows) is not _Symmetric:
        check_symmetric(rows)
    n = len(rows)
    a = [row.get(i, 0) for i, row in enumerate(rows)]
    b = [rows[i].get(i + 1, 0) for i in range(n - 1)]
    h = _head(rows, a, b)
    if h:
        c = rows[0][1]
        for i in range(h - 2):
            a[i], b[i] = a[i] - 2 * c + a[i + 1], c - a[i + 1]
        _check_basis(rows, h, a, b)
    w = [0] + [x * x for x in b] + [0]  # w[i] = b_(i-1)^2
    theta, phi = [0, 1], [0, 1]  # each from a zero before its first term
    for i, x in enumerate(a):
        theta.append(x * theta[-1] - w[i] * theta[-2])
    for i in reversed(range(n)):
        phi.append(a[i] * phi[-1] - w[i + 1] * phi[-2])
    theta, phi = theta[1:], phi[:0:-1]
    det = theta[n]
    if det != phi[0]:
        raise KernelCheckError(f"continuants disagree: theta_n={det} phi_0={phi[0]}")
    if det == 0:
        return 0, None, ()
    signs = [t > 0 for t in theta if t]
    sigma = n - 2 * sum(map(ne, signs, signs[1:]))
    # adj(Q') on the path indices that the columns of E on cols touch:
    # column s of E is e_s - e_(s-1) for 0 < s < h - 1, else e_s
    touched = sorted({*cols, *(s - 1 for s in cols if 0 < s < h - 1)})
    links = [(-1) ** (j - i) * prod(b[i:j]) for i, j in zip(touched, touched[1:])]
    ends = [phi[j + 1] for j in touched]
    # row k from its diagonal on, then the entries before it read down column k
    upper = [[0] * k + list(map(mul, accumulate(links[k:], mul, initial=theta[i]), ends[k:]))
             for k, i in enumerate(touched)]
    adj = [[*col[:k], *row[k:]] for k, (row, col) in enumerate(zip(upper, zip(*upper)))]
    # B = E[:, cols]^T adj(Q') E[:, cols]: the row of each s in cols, less
    # the row of s - 1 where E's column s has two entries, transposed, and
    # the same again (B is symmetric)
    at = {i: k for k, i in enumerate(touched)}
    picks = [(at[s], at[s - 1] if 0 < s < h - 1 else None) for s in cols]
    block = adj
    for _ in range(2):
        block = list(zip(*(block[k] if j is None else list(map(sub, block[k], block[j]))
                           for k, j in picks)))
    return det, sigma, tuple(block)


def _check_basis(rows, h, a, b):
    """Raises KernelCheckError unless row i of E Q E^T is row i of the
    path (a, b) for each head row i < h, on columns 0..h.  E Q E^T there
    is Q's dense head rows, each row i <= h - 3 less the next, then each
    column j <= h - 3 less the next: O(h^2), in list operations."""
    m = min(h + 1, len(rows))
    q = [list(map(row.get, range(m), repeat(0))) for row in rows[:h]]
    for i, row in enumerate([list(map(sub, x, y)) for x, y in zip(q, q[1:h - 1])] + q[h - 2:]):
        got = list(map(sub, row[:h - 2], row[1:h - 1])) + row[h - 2:]
        want = [0] * m
        want[i] = a[i]
        for j in (i - 1, i + 1):
            if 0 <= j < m:
                want[j] = b[min(i, j)]
        if got != want:
            raise KernelCheckError(f"E Q E^T is not the path on head row {i}: {got} against {want}")


def leading_determinants(rows):
    """[D_1, ..., D_n], D_i the determinant of the leading i x i block of
    the n x n integer matrix ``rows``, which must be banded: row i nonzero
    only at i-1..i+1, in 0..n-1; any other raises ValueError.  The rows
    need not be symmetric.  One pass of the three-term continuant D_0 = 1,
    D_(i+1) = a_ii D_i - a_(i,i-1) a_(i-1,i) D_(i-1) gives them all, in O(n)
    integer operations.  D_i is (-1)^i times the constant term of the
    continuant ``char_poly`` runs on the same i rows, which are all banded,
    at x = 0."""
    n = len(rows)
    dets, d, prev = [], 1, 0
    for i, row in enumerate(rows):
        if any(x and not (0 <= j < n and i - 1 <= j <= i + 1) for j, x in row.items()):
            raise ValueError(f"matrix is not banded: row {i} has a nonzero off i-1..i+1")
        link = row.get(i - 1, 0) * rows[i - 1].get(i, 0) if i else 0
        d, prev = row.get(i, 0) * d - link * prev, d
        dets.append(d)
    return dets


def adjugate_block(rows, support):
    """det A, the signature of A and the block B = adj(A)[S, S] on the
    index list S = ``support`` of a symmetric integer matrix A of a shape
    ``_path_kernel`` takes: any other raises ValueError.

    B[a][b] is entry (S[a], S[b]) of adj(A), so (A^-1)_{S[a], S[b]} is
    B[a][b] / det; S = range(n) gives the whole adjugate.  One pass of the
    path kernel gives all three, and one characteristic polynomial of A
    checks it: its constant term must give the kernel's det, and its
    Descartes signature the kernel's signature.  A disagreement raises
    KernelCheckError or SignatureMismatchError (it would mean a bug, not a
    property of the input).  Raises SingularMatrixError when det A = 0.
    """
    det, sigma, block = _path_kernel(rows, support)
    coeffs = char_poly(rows)
    chi_det = (-1) ** len(rows) * coeffs[-1]
    if det != chi_det:
        raise KernelCheckError(f"determinants disagree: kernel={det} char_poly={chi_det}")
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    check = _descartes(coeffs)
    if sigma != check:
        raise SignatureMismatchError(f"signature methods disagree: "
                                     f"diagonalization={sigma} descartes={check}")
    return det, sigma, block


def char_poly(rows):
    """Characteristic polynomial det(x*I - A) of a square integer matrix of
    a shape ``_path_kernel`` takes, though the path rows need not be
    symmetric; any other shape raises ValueError.

    Returns the integer coefficients in descending degree, leading 1,
    division-free and without elimination.  Row i is banded when row and
    column i are zero outside positions i-1..i+1.  The banded rows t..n-1
    that end the matrix form a path; when t > 0 (then t >= 3), rows 0..t-1
    must be a clique head, every entry between two of them one value
    c != 0, which the path meets only at (t-1, t), as ``linking_matrix``
    hangs the meridian chain on the last push-off.  The head is c J + D
    with D = diag(d_i - c), so by the matrix determinant lemma its chi is
    P - c P', P = prod (x - d_i + c), in O(t^2) integer operations; a
    continuant along the path, seeded with chi of the head and of the head
    without t-1, gives chi.  It costs O(len f) integer operations per
    vertex, and O(r len f) for a run of r framings -2 that it takes in one
    step (see ``_run``).  So a slope -1/N, one such run, costs O(N k) for
    k push-offs, and a clique of N push-offs (``--coeff 1/N``) O(N^2).
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
    if not t:
        return _path_extend(rows, range(n), None, [1], None)[::-1]
    c = rows[0].get(1)
    if not c or any(rows[i].get(j) != c for i in range(t) for j in range(t) if j != i):
        raise ValueError("matrix is neither a path nor a clique head with a path on its last row")
    p = [1]  # P, ascending, over the head rows so far; q the P before the last
    for i in range(t):
        q, e = p, rows[i].get(i, 0) - c
        p = list(map(sub, [0] + p, [e * x for x in p] + [0]))
    # chi_k = P_k - c (k + 1) P_(k+1), for the head and the head less t-1
    f, g = ([x - c * k * y for k, (x, y) in enumerate(zip(poly, poly[1:] + [0]), 1)]
            for poly in (p, q))
    return _path_extend(rows, range(t, n), t - 1, f, g)[::-1]


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


def _descartes(coeffs) -> int:
    """The signature of a symmetric matrix from its characteristic
    polynomial ``coeffs`` (descending, nonzero constant term): a
    symmetric matrix has an all-real spectrum, so the sign changes of
    P(lambda) count its positive eigenvalues exactly, and those of
    P(-lambda) its negative ones."""
    degree = len(coeffs) - 1
    negated = [c if (degree - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    signs = [[c > 0 for c in poly if c] for poly in (coeffs, negated)]
    positive, negative = (sum(map(ne, s, s[1:])) for s in signs)
    return positive - negative
