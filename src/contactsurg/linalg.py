"""Exact linear algebra over the integers and rationals.

Everything in this module is exact, and every matrix it takes is a
``_Path``: lists of the diagonal and the links of a path in index order
(tridiagonal), with the size and link of a clique head, push-offs that
all link each other with one value and have a meridian path hung on
their last row, which a unimodular change of basis E turns into a path.
``surgery.linking_matrix`` builds a form's path straight from its
presentation, and ``closedforms`` builds the lemma matrices as paths.
On a path two continuants, both from ``leading_determinants``, give the
determinant, the signature and every adjugate entry (``_path_kernel``,
whose one caller is ``adjugate_block``).  Inverse entries are integers
over the determinant, read from that block, and a matrix is negative
definite when the signature ``adjugate_block`` returns is -n.  That
signature is checked against an independent one, so no signature
leaves this module unchecked: ``_reduce`` drops each maximal run of
framings -2 by its Schur complement (Haynsworth's inertia additivity),
and Descartes' rule of signs on the characteristic polynomial of the
integer matrix left, less one for each row dropped (a run is negative
definite), must give the kernel's signature, and its constant term the
kernel's determinant.  That polynomial is a continuant along the kept
path, seeded on a clique head by the matrix determinant lemma, in
O(m^2) integer operations for the m rows left.

Sparse rows, row i the dict {j: x} of its nonzeros, exist only for
reports: ``_rows`` builds them from a path, and ``dense`` dense rows
from them.
"""

from __future__ import annotations

from math import prod
from operator import ne, neg, sub
from typing import NamedTuple


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix."""


class SignatureMismatchError(RuntimeError):
    """The two independent signature methods disagreed; internal error."""


class KernelCheckError(RuntimeError):
    """A self-check of the path kernel failed; internal error."""


def dense(rows):
    """The dense rows, as lists, of sparse ``rows``."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


class _Path(NamedTuple):
    """A symmetric Q of the one shape the kernel takes, as lists: its
    diagonal a, its links b from i to i+1, the size h of the clique head E
    takes to a path (0 when Q is a path already) and the head's one link
    c (0 when h is).  A clique head is rows 0..h-1, h >= 3, that all link
    each other with c != 0, so b_i = c for i < h - 1; rows h..n-1 are a
    path, which meets the head only at (h-1, h)."""

    a: list
    b: list
    h: int
    c: int


def _rows(path):
    """The sparse rows of the ``_Path`` ``path``, for reports: the head's
    rows, then the band's links after it, with no stored 0."""
    a, b, h, c = path
    rows = [dict.fromkeys(range(h), c) for _ in range(h)] + [{} for _ in range(len(a) - h)]
    for i, (row, x) in enumerate(zip(rows, a)):
        if x:
            row[i] = x
        elif i < h:
            del row[i]
    for i in range(max(h - 1, 0), len(b)):
        if b[i]:
            rows[i][i + 1] = rows[i + 1][i] = b[i]
    return tuple(rows)


def leading_determinants(a, w):
    """[D_0, ..., D_n], D_i the determinant of the leading i x i block of
    the n x n tridiagonal matrix of diagonal ``a`` and link products
    ``w``, w_i = A_(i,i+1) A_(i+1,i) (b_i^2 on a symmetric path), which
    need not be symmetric: the continuant D_0 = 1, D_(i+1) = a_i D_i -
    w_(i-1) D_(i-1), in O(n) integer operations."""
    dets, d, prev = [1], 1, 0
    for x, y in zip(a, [0, *w]):
        d, prev = x * d - y * prev, d
        dets.append(d)
    return dets


def _path_kernel(path, cols):
    """det Q, the signature of Q and B = adj(Q)[cols, cols] (``cols``
    distinct indices; B[a][b] the entry (cols[a], cols[b])) of the symmetric
    Q of the ``_Path`` ``path``, a path or a clique head and a path, from
    two continuants.  A singular Q returns (0, None, ()).

    A clique head of h rows with link c and diagonal d_i first goes
    through the unimodular E with rows e_i - e_(i+1) for i <= h - 3, then
    e_(h-2), e_(h-1), then the identity: Q' = E Q E^T is a path, with
    diagonal d_i - 2c + d_(i+1) and link c - d_(i+1) from i to i+1 for
    i <= h - 3, then d_(h-2), d_(h-1) linked by c, then Q unchanged;
    E Q E^T = Q' is checked on the head rows.  On the path of diagonal
    a_i and links b_i, theta_i is the leading i x i minor and phi_i the
    trailing minor from row i on (phi_n = 1), the continuant
    ``leading_determinants`` of the path and of the path reversed;
    det Q = det Q' = theta_n, which must equal phi_0.  The negative index
    is the number of sign changes along the nonzero thetas: on a
    nonsingular path a zero theta_i is isolated and its neighbours have
    opposite signs (Frobenius), and E keeps the signature (Sylvester).
    adj(Q')_ij = (-1)^(i+j) b_i ... b_(j-1) theta_i phi_(j+1) for i <= j
    (Usmani 1994), and B = E[:, cols]^T adj(Q') E[:, cols], since
    det E = 1: adj(Q') on cols and the s - 1 of E's two-entry columns s in
    one pass over pairs, by a running link product, then those columns'
    differences, then cols picked if they are not those indices in order.
    """
    a, b, h, c = path
    n = len(a)
    if h:
        a, b = a.copy(), b.copy()
        for i in range(h - 2):
            a[i], b[i] = a[i] - 2 * c + a[i + 1], c - a[i + 1]
        _check_basis(path, a, b)
    w = [x * x for x in b]
    theta = leading_determinants(a, w)
    phi = leading_determinants(reversed(a), reversed(w))
    phi.reverse()
    det = theta[n]
    if det != phi[0]:
        raise KernelCheckError(f"continuants disagree: theta_n={det} phi_0={phi[0]}")
    if det == 0:
        return 0, None, ()
    signs = [t > 0 for t in theta if t]
    sigma = n - 2 * sum(map(ne, signs, signs[1:]))
    two = sorted(s for s in cols if 0 < s < h - 1)
    touched = sorted({*cols, *(s - 1 for s in two)})
    # signed link products between neighbours, and a 0 the last run steps onto
    links = [(-1) ** (j - i) * prod(b[i:j]) for i, j in zip(touched, touched[1:])] + [0]
    ends = [phi[j + 1] for j in touched]
    block = [[0] * len(touched) for _ in touched]
    for x, i in enumerate(touched):
        row, run = block[x], theta[i]
        for y in range(x, len(touched)):
            row[y] = block[y][x] = run * ends[y]
            run *= links[y]
    # E's columns e_s - e_(s-1), from the last, so row and column s - 1 are adj's
    for x in map(touched.index, reversed(two)):
        block[x] = list(map(sub, block[x], block[x - 1]))
        for row in block:
            row[x] -= row[x - 1]
    if touched != list(cols):
        picks = list(map(touched.index, cols))
        block = [[block[x][y] for y in picks] for x in picks]
    return det, sigma, tuple(map(tuple, block))


def _check_basis(path, a, b):
    """Raises KernelCheckError unless row i of E Q E^T is row i of the
    path (a, b) for each head row i < h of the Q of ``path``, on columns
    0..h.  E Q E^T there is Q's dense head rows, each row i <= h - 3 less
    the next, then each column j <= h - 3 less the next: O(h^2), in list
    operations."""
    d, link, h, c = path
    m = min(h + 1, len(d))
    q = [[c] * h + [0] * (m - h) for _ in range(h)]
    for i in range(h):
        q[i][i] = d[i]
    if m > h:
        q[h - 1][h] = link[h - 1]
    for i, row in enumerate([list(map(sub, x, y)) for x, y in zip(q, q[1:h - 1])] + q[h - 2:]):
        got = list(map(sub, row[:h - 2], row[1:h - 1])) + row[h - 2:]
        want = [0] * m
        want[i] = a[i]
        for j in (i - 1, i + 1):
            if 0 <= j < m:
                want[j] = b[min(i, j)]
        if got != want:
            raise KernelCheckError(f"E Q E^T is not the path on head row {i}: {got} against {want}")


def adjugate_block(path, support):
    """det A, the signature of A and the block B = adj(A)[S, S] on the
    index list S = ``support`` of the symmetric integer matrix A of the
    ``_Path`` ``path``.

    B[a][b] is entry (S[a], S[b]) of adj(A), so (A^-1)_{S[a], S[b]} is
    B[a][b] / det; S = range(n) gives the whole adjugate.  The path goes
    to one pass of the path kernel, which gives all three, and to
    ``_reduce``, which checks it: the reduced matrix's determinant must
    give the kernel's det, and its Descartes signature, less the runs
    dropped, the kernel's signature.  A disagreement raises
    KernelCheckError or SignatureMismatchError (it would mean a bug, not a
    property of the input).  Raises SingularMatrixError when det A = 0.
    """
    det, sigma, block = _path_kernel(path, support)
    removed, num, den, coeffs = _reduce(*path)
    if det * den != num:
        raise KernelCheckError(f"determinants disagree: kernel={det} reduced={num}/{den}")
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    check = _descartes(coeffs) - removed
    if sigma != check:
        raise SignatureMismatchError(f"signature methods disagree: "
                                     f"diagonalization={sigma} descartes={check}")
    return det, sigma, block


def _reduce(a, b, h, c):
    """(r, num, den, chi) for the symmetric Q of the ``_Path`` (a, b, h,
    c): r the total length of the runs dropped,
    det Q = num / den, and chi the characteristic polynomial (descending)
    of the integer matrix M' left, so that the signature of Q is
    Descartes' on chi less r.

    A run is a maximal chain of path rows (h..n-1) of framing -2 joined by
    links of square 1, with a kept row between two runs: a -2 joined to a
    run by a link of another square is kept.  The block T of a run of r
    rows has leading minors (-1)^i (i + 1), so it is negative definite
    with det (-1)^r (r + 1), and T^-1 has diagonal corners -r/(r+1) and
    off-diagonal corner -(prod s)/(r+1), s the run's links.  The runs'
    blocks are apart, so the Schur complement M = Q / T adds
    w_L^2 r/(r+1) to the diagonal of each run's kept left neighbour,
    w_R^2 r/(r+1) to its right one, and joins the two by a link of square
    (w_L w_R / (r+1))^2, w_L and w_R the run's outer links; by Haynsworth
    (1968), In(Q) = In(T) + In(M) and det Q = det T det M.  M' = D M D is
    integral for D = diag(d_v), d_v the product of the r + 1 of the runs
    next to the kept row v (on a clique head, next to row h-1, for every
    head row, so the head keeps one link): it has M's inertia (Sylvester)
    and det M prod d_v^2, with entries as small as each run's r + 1, not
    their product.  chi(M') is a continuant along the kept path, from chi
    of the head by the matrix determinant lemma: c J + diag(d_i - c) has
    chi P - c P', P = prod (x - d_i + c), in O(h^2) integer operations;
    a path step F_v = (x - M'_vv) F_prev - w^2 F_prev2 costs O(m) for the
    m kept rows.
    """
    n = len(a)
    runs, first = [], None  # (first row, length) of each run
    for v in range(h, n):
        if a[v] == -2 and (first is None or b[v - 1] ** 2 == 1):
            if first is None:
                first = v
        elif first is not None:
            runs.append((first, v - first))
            first = None
    if first is not None:
        runs.append((first, n - first))
    d = [1] * n
    for first, r in runs:
        for v in (first - 1, first + r):
            if 0 <= v < n:
                d[v] *= r + 1
    if h:
        d[:h] = [d[h - 1]] * h
    extra, bridge = {}, {}  # Schur terms on the diagonal, and squared links over runs
    for first, r in runs:
        left, right = first - 1, first + r
        if left >= 0:
            extra[left] = extra.get(left, 0) + b[left] ** 2 * r * d[left] ** 2 // (r + 1)
        if right < n:
            extra[right] = extra.get(right, 0) + b[right - 1] ** 2 * r * d[right] ** 2 // (r + 1)
            link = b[left] * b[right - 1] * d[left] // (r + 1) * d[right] if left >= 0 else 0
            bridge[right] = link * link
    f, g = [1], []  # ascending chi of the kept rows so far, and without the last
    if h:
        p, cc = [1], c * d[0] ** 2
        for i in range(h):
            q, e = p, a[i] * d[i] ** 2 + extra.get(i, 0) - cc
            p = list(map(sub, [0] + p, [e * x for x in p] + [0]))
        # chi_k = P_k - c (k + 1) P_(k+1), for the head and the head less h-1
        f, g = ([x - cc * k * y for k, (x, y) in enumerate(zip(poly, poly[1:] + [0]), 1)]
                for poly in (p, q))
    pos = h
    for first, r in runs + [(n, 0)]:
        for v in range(pos, first):
            x = a[v] * d[v] ** 2 + extra.get(v, 0)
            w2 = bridge[v] if v in bridge else (b[v - 1] * d[v - 1] * d[v]) ** 2 if v else 0
            nxt = [0] + f
            for k, y in enumerate(f):
                nxt[k] -= x * y
            for k, y in enumerate(g):
                nxt[k] -= w2 * y
            f, g = nxt, f
        pos = first + r
    removed = sum(r for _, r in runs)
    num = (-1) ** (removed + len(f) - 1) * prod(r + 1 for _, r in runs) * f[0]
    return removed, num, prod(d) ** 2, f[::-1]


def _descartes(coeffs) -> int:
    """The signature of a symmetric matrix from its characteristic
    polynomial ``coeffs`` (descending, nonzero constant term): a
    symmetric matrix has an all-real spectrum, so the sign changes of
    P(lambda) count its positive eigenvalues exactly, and those of
    P(-lambda) its negative ones."""
    negated = coeffs[:]  # the odd powers change sign
    negated[-2::-2] = map(neg, coeffs[-2::-2])
    up, down = [c > 0 for c in coeffs if c], [c > 0 for c in negated if c]
    return sum(map(ne, up, up[1:])) - sum(map(ne, down, down[1:]))
