"""Brute-force oracles for the fast paths of the library.

Each is slow but plainly right, and shares no code with the route it
checks: exhaustive search, breadth-first search, enumeration, vertex by
vertex Farey paths, and characteristic polynomials from Bareiss
determinants (which have tests of their own).
"""

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product

from contactsurg.cosmetic import rot_range
from contactsurg.farey import (
    ANTICLOCKWISE,
    CLOCKWISE,
    DecoratedFareyPath,
    _det,
    _ext_gcd,
    _invert_unimodular,
    _merge_signs,
    _mul,
    _normalizing_matrix,
    cf_blocks,
    decorated_path_key,
    in_clockwise_arc,
    is_edge,
)
from contactsurg.invariants import d3_spectrum
from contactsurg.linalg import determinant
from contactsurg.slopes import INFINITY, Slope
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


def path_from_infinity(target: Fraction):
    """Minimal path from infinity clockwise to a finite slope, one
    vertex at a time.

    Every vertex after infinity lies at or below the target; the greedy
    step always jumps to the largest admissible neighbour, which is the
    classical continued-fraction pivot construction.
    """
    path = [INFINITY]
    c = math.floor(target)
    path.append(Slope(c))
    while Fraction(path[-1].num, path[-1].den) != target:
        v = path[-1]
        gap = target - Fraction(v.num, v.den)
        if abs(v.num * target.denominator - target.numerator * v.den) == 1:
            path.append(Slope(target.numerator, target.denominator))
            continue
        p, q = v.num, v.den
        _, x, y = _ext_gcd(q, p)
        # r*q - s*p = 1 gives the family of neighbours above v
        r, s = x, -y
        # smallest s + k q > 0 with v + 1/(q (s + k q)) <= target
        need = Fraction(1, q) / gap
        k = math.ceil((need - s) / q)
        path.append(Slope(r + k * p, s + k * q))
    return path


def minimal_path_vertexwise(a: Slope, b: Slope, direction: str = CLOCKWISE):
    """``farey.minimal_path`` built vertex by vertex: move a to infinity,
    take the greedy path there, and move it back."""
    if direction == ANTICLOCKWISE:
        return [-v for v in minimal_path_vertexwise(-a, -b, CLOCKWISE)]
    m = _normalizing_matrix(a)
    t = Slope(*_mul(m, (b.num, b.den)))
    inv = _invert_unimodular(m)
    return [Slope(*_mul(inv, (v.num, v.den)))
            for v in path_from_infinity(Fraction(t.num, t.den))]


def shorten_restart(path: DecoratedFareyPath):
    """``farey.shorten`` by rescanning from the start after every merge."""
    verts = list(path.vertices)
    signs = list(path.signs)
    overtwisted = False
    changed = True
    while changed:
        changed = False
        for i in range(1, len(verts) - 1):
            if verts[i - 1] == verts[i + 1]:
                raise ValueError("path backtracks; not a monotone concatenation")
            if abs(_det(verts[i - 1], verts[i + 1])) == 1:
                merged, clash = _merge_signs(signs[i - 1], signs[i])
                overtwisted = overtwisted or clash
                verts[i - 1:i + 1] = [verts[i - 1]]
                signs[i - 1:i + 1] = [merged]
                changed = True
                break
    result = DecoratedFareyPath(tuple(verts), tuple(signs))
    return result, ("overtwisted" if overtwisted else "tight")


def complement_signs(tb: int, rot: int):
    """Stabilization signs on the complement path tb, tb + 1, ..., 0 of
    a Legendrian unknot, plus first, summing to rot; the last edge, into
    0, is unsigned and not listed."""
    k = -tb
    plus = (k - 1 + rot) // 2
    minus = (k - 1) - plus
    if plus < 0 or minus < 0:
        raise ValueError("rotation number out of range for an unknot")
    return [1] * plus + [-1] * minus


def surgery_decorations(path):
    """One representative decoration per block-equivalence class, for a
    solid-torus path (first edge unsigned): plus signs first in each
    block."""
    per_block = []
    for block in cf_blocks(path):
        signed = [i for i in block if i != 0]
        per_block.append((signed, range(len(signed) + 1)))
    reps = []
    for choice in product(*(r for _, r in per_block)):
        signs = [None] * (len(path) - 1)
        for (edges, _), plus_count in zip(per_block, choice):
            for pos, idx in enumerate(edges):
                signs[idx] = 1 if pos < plus_count else -1
        reps.append(tuple(signs))
    return reps


def equivalent_count_enumerated(tb: int, rot: int, contact_coeff):
    """``cosmetic.equivalent_surgery_count`` by enumeration: glue every
    representative surgery decoration to the unknot complement, shorten,
    and count the decorations landing on each tight structure.  Returns
    (tight decorations, {lens key: fiber size}); the unknot count is the
    common fiber size."""
    smooth = tb + Fraction(contact_coeff)
    surgery_path = minimal_path_vertexwise(Slope(smooth), Slope(tb), CLOCKWISE)
    vertices = tuple(surgery_path) + tuple(Slope(t) for t in range(tb + 1, 1))
    comp = tuple(complement_signs(tb, rot)) + (None,)
    fibers = {}
    tight = 0
    for dec in surgery_decorations(surgery_path):
        shortened, verdict = shorten_restart(DecoratedFareyPath(vertices, dec + comp))
        if verdict == "tight":
            tight += 1
            key = decorated_path_key(shortened)
            fibers[key] = fibers.get(key, 0) + 1
    return tight, fibers
