"""The Farey graph on slopes and tight contact structure counts.

Vertices are slopes (rationals together with infinity); p/q and p'/q'
are joined by an edge when |p q' - p' q| = 1.  Tight contact structures
on thickened tori, solid tori, and lens spaces are classified by minimal
paths in this graph with signs on some of the edges, counted up to
shuffles of the signs inside each continued-fraction block.

A minimal path is built as its continued-fraction blocks, runs of
vertices in arithmetic progression.  Its turns are the terms of a
negative continued fraction, read from the Euclid of
``slopes.neg_cf_runs``, which gives a run of -2 terms (a block) as one
entry: the work is logarithmic in the size of the endpoints, not linear
in the number of vertices, and the structure counts read block lengths
only.

Convention: "clockwise" from a slope means moving in the direction of
increasing slope, wrapping from large positive slopes through infinity
to large negative ones.  This matches the disk picture with 0 at the
top, -1 on the left, 1 on the right and infinity at the bottom, in which
the minimal clockwise path from -5/2 to -1 is -5/2, -2, -1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .slopes import Slope, neg_cf_runs

CLOCKWISE = "clockwise"
ANTICLOCKWISE = "anticlockwise"


def _det(a: Slope, b: Slope) -> int:
    return a.num * b.den - b.num * a.den


def is_edge(a: Slope, b: Slope) -> bool:
    """Farey adjacency: |p q' - p' q| = 1.  Equal slopes are rejected."""
    if a == b:
        raise ValueError("is_edge needs two distinct slopes")
    return abs(_det(a, b)) == 1


def _mul(m, v):
    """The integer matrix m times the vector v = (num, den)."""
    (a, b), (c, d) = m
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _normalizing_matrix(s: Slope):
    """A determinant +1 integer matrix sending s to infinity, and its
    inverse.

    Such maps preserve Farey adjacency and the cyclic (clockwise) order
    of slopes, so minimal paths can be computed after moving one
    endpoint to infinity.
    """
    p, q = s.num, s.den
    # x*p + y*q = 1 (infinity is p, q = 1, 0), so rows (x, y) and (-q, p)
    # have determinant +1 and their adjugate ((p, -y), (q, x)) is the inverse
    x = pow(p, -1, q) if q else 1
    y = (1 - x * p) // q if q else 0
    return ((x, y), (-q, p)), ((p, -y), (q, x))


class FareyBlock(NamedTuple):
    """One continued-fraction block of a minimal path: the vertices
    start + j * step for j = 0, ..., edges, as integer vectors (num, den).

    All of them are Farey neighbours of the slope of step, and a block
    ends where the next block starts.
    """

    start: tuple
    step: tuple
    edges: int


def _blocks_from_infinity(num: int, den: int) -> list:
    """Blocks of the minimal path from infinity clockwise to num/den
    (den > 0).

    Along the path every vertex y, with neighbours x before and z after,
    satisfies z = a y - x, where a = |det(x, z)| >= 2 is its turn; turns
    of 2 continue a block (z - y = y - x) and larger ones start the next.
    After infinity and floor(num/den) + 1, the turns are the terms of
    -den/u's negative continued fraction, negated, for u = num mod den:
    ``neg_cf_runs`` gives a run of turns of 2 as one entry, so this takes
    O(log den) steps however many vertices the path has.
    """
    c = num // den
    # infinity as (-1, 0), so that det(v_i, v_{i+1}) = -1 along the path
    start, step, edges = (-1, 0), (c + 1, 1), 1
    u = num - c * den
    blocks = []
    for term, m in neg_cf_runs(-den, u) if u else ():
        if term == -2:
            edges += m
            continue
        blocks.append(FareyBlock(start, step, edges))
        # from the block's last vertex y, the next step is z - y = (turn - 2) y + step
        turn = -term
        start = (start[0] + edges * step[0], start[1] + edges * step[1])
        step = ((turn - 2) * start[0] + step[0], (turn - 2) * start[1] + step[1])
        edges = 1
    blocks.append(FareyBlock(start, step, edges))
    return blocks


def minimal_path_blocks(a: Slope, b: Slope, direction: str = CLOCKWISE) -> list:
    """Continued-fraction blocks of the minimal Farey path from a to b
    through the given rotational arc.

    All intermediate vertices lie strictly inside the arc, and among such
    paths this one has the fewest edges.  The path is built in
    coordinates where a is infinity, and a determinant +1 map carries
    arithmetic progressions to arithmetic progressions, so blocks map to
    blocks.
    """
    if a == b:
        raise ValueError("minimal path needs distinct endpoints")
    if direction == ANTICLOCKWISE:
        return [FareyBlock((-s[0], s[1]), (-w[0], w[1]), n)
                for s, w, n in minimal_path_blocks(-a, -b, CLOCKWISE)]
    if direction != CLOCKWISE:
        raise ValueError(f"unknown direction {direction!r}")
    m, inv = _normalizing_matrix(a)
    t = Slope(*_mul(m, (b.num, b.den)))
    return [FareyBlock(_mul(inv, s), _mul(inv, w), n)
            for s, w, n in _blocks_from_infinity(t.num, t.den)]


def _class_count(edge_counts, unsigned_positions) -> int:
    """Decorated paths up to block shuffles, from the number of edges in
    each block: a block with s signed edges contributes a factor s + 1."""
    total, offset = 1, 0
    for edges in edge_counts:
        unsigned = sum(1 for i in unsigned_positions if offset <= i < offset + edges)
        total *= edges - unsigned + 1
        offset += edges
    return total


def _edge_counts(a: Slope, b: Slope, direction: str = CLOCKWISE) -> list:
    return [block.edges for block in minimal_path_blocks(a, b, direction)]


def count_tight_solid_torus(meridian: Slope, boundary: Slope,
                            direction: str = CLOCKWISE) -> int:
    """Tight structures on a solid torus with the given meridian and
    boundary dividing slope: decorated minimal paths from the meridian
    to the boundary slope, the first edge unsigned.  Lower-meridian tori
    use the clockwise path (the default); upper-meridian tori use the
    anticlockwise one."""
    return _class_count(_edge_counts(meridian, boundary, direction), (0,))


def count_tight_thickened_torus(s0: Slope, s1: Slope) -> int:
    """Tight minimally twisting structures on T^2 x I with dividing
    slopes s0 and s1: every edge of the minimal clockwise path from s0
    to s1 carries a sign."""
    return _class_count(_edge_counts(s0, s1), ())


def count_tight_lens(s: Slope, r: Slope) -> int:
    """Tight structures on the lens space obtained by collapsing slope s
    at one end of T^2 x I and slope r at the other: signs on all edges
    of the minimal clockwise path from s to r except the first and
    last.  For L(p, q) this is Honda's |(r_0 + 1) ... (r_k + 1)| over the
    negative continued fraction -p/q = [r_0, ..., r_k]."""
    if s == r:
        raise ValueError("degenerate lens parameters")
    counts = _edge_counts(s, r)
    return _class_count(counts, (0, sum(counts) - 1))


def count_tight_lens_pq(p: int, q: int) -> int:
    """Tight structures on L(p, q), presented as -p/q surgery data."""
    if p < 1:
        raise ValueError("lens space needs p >= 1")
    q %= p
    if p == 1:
        return 1
    if q == 0 or math.gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}) is not a lens space")
    return count_tight_lens(Slope(-p, q), Slope(0))
