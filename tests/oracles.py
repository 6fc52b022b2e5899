"""Brute-force oracles for the fast paths of the library.

Each is slow but plainly right, and shares no code with the route it
checks: exhaustive search, breadth-first search, enumeration, and
characteristic polynomials from Bareiss determinants (which have tests
of their own).
"""

import math
from collections import deque
from fractions import Fraction
from itertools import combinations

from contactsurg.cosmetic import rot_range
from contactsurg.farey import ANTICLOCKWISE, CLOCKWISE, in_clockwise_arc, is_edge
from contactsurg.invariants import d3_spectrum
from contactsurg.linalg import determinant
from contactsurg.slopes import Slope
from contactsurg.surgery import LegendrianData


def char_poly_minors(rows):
    """Characteristic polynomial of A via principal-minor sums.

    Returns the coefficients of det(lambda*I - A) in descending degree:
    [1, -E_1, +E_2, ..., (-1)^n E_n], where E_i is the sum of all i x i
    principal minors.  Exponential in n; for small matrices only.
    """
    n = len(rows)
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
    divided differences; n+1 determinants, so O(n^4).
    """
    n = len(rows)
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


def normalize_lens_bruteforce(p: int, q: int):
    """Canonical representative of the lens class by exhaustive search.

    Independent of mod_inverse: scans for the multiplicative inverse and
    returns min(q, q^-1) mod p.  Used to cross-check same_lens_space.
    """
    if p <= 1:
        return (p, 0)
    q %= p
    inverse = None
    for x in range(1, p):
        if (q * x) % p == 1:
            inverse = x
            break
    if inverse is None:
        return (p, q)
    return (p, min(q, inverse))


def minimal_path_bfs(a: Slope, b: Slope, direction: str = CLOCKWISE,
                     num_bound=None, den_bound=None, count_paths=False):
    """Breadth-first-search oracle for minimal paths.

    Searches the subgraph of slopes inside the arc with numerator and
    denominator bounds (defaults are generous multiples of the endpoint
    sizes).  Used to cross-validate minimal_path; with count_paths=True
    also returns the number of geodesics.
    """
    if a == b:
        raise ValueError("minimal path needs distinct endpoints")
    if direction == ANTICLOCKWISE:
        res = minimal_path_bfs(-a, -b, CLOCKWISE, num_bound, den_bound, count_paths)
        if count_paths:
            return [-v for v in res[0]], res[1]
        return [-v for v in res]
    if num_bound is None:
        num_bound = 2 * (abs(a.num) + abs(b.num)) + 3
    if den_bound is None:
        den_bound = 2 * (a.den + b.den) + 3
    vertices = {a, b}
    for q in range(0, den_bound + 1):
        for p in range(-num_bound, num_bound + 1):
            if q == 0 and p != 1:
                continue
            if math.gcd(abs(p), q) != 1:
                continue
            s = Slope(p, q)
            if in_clockwise_arc(s, a, b):
                vertices.add(s)
    verts = list(vertices)
    neighbours = {v: [] for v in verts}
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if is_edge(u, v):
                neighbours[u].append(v)
                neighbours[v].append(u)
    dist = {a: 0}
    ways = {a: 1}
    parent = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in neighbours[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                ways[v] = ways[u]
                parent[v] = u
                queue.append(v)
            elif dist[v] == dist[u] + 1:
                ways[v] += ways[u]
    if b not in dist:
        raise RuntimeError("BFS bounds too small to connect the endpoints")
    path = []
    v = b
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    if count_paths:
        return path, ways[b]
    return path


def raw_sign_count(vertices, unsigned_positions) -> int:
    """Number of raw sign assignments, before the block-shuffle quotient."""
    n_edges = len(vertices) - 1
    signed = sum(1 for i in range(n_edges) if i not in unsigned_positions)
    return 2 ** signed


def brute_force_d3_matches(tb: int, n_max: int = 20):
    """Independent scan: intersect the +-1/n d3 spectra computed through
    the full surgery pipeline.  Must coincide with the emptiness (or
    not) reported by solve_d3_equation."""
    matches = []
    for i in rot_range(tb):
        L = LegendrianData(tb, i)
        for n in range(1, n_max + 1):
            neg = d3_spectrum(L, Fraction(-1, n))
            pos = d3_spectrum(L, Fraction(1, n))
            common = neg & pos
            if common:
                matches.append({"i": i, "n": n, "values": sorted(common)})
    return matches
