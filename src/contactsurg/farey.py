"""The Farey graph on slopes and tight contact structure counts.

Vertices are slopes (rationals together with infinity); p/q and p'/q'
are joined by an edge when |p q' - p' q| = 1.  Tight contact structures
on thickened tori, solid tori, and lens spaces are classified by minimal
paths in this graph with signs on some of the edges, counted up to
shuffles of the signs inside each continued-fraction block.

A minimal path is built as its continued-fraction blocks, runs of
vertices in arithmetic progression.  One loop, ``_runs``, reads each
block's edge count and turn off the Euclid of ``slopes.neg_cf_runs`` (a
run of -2 terms is one entry) in the frame where the path starts at
infinity: the work is logarithmic in the size of the endpoints, not
linear in the number of vertices.  Blocks are placed from it and carried
back; the structure counts read its edge counts only, and build no vertex.

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


def _normalizing_matrix(p: int, q: int):
    """A determinant +1 integer matrix sending the slope p/q to infinity,
    and its inverse: such maps keep Farey adjacency and the cyclic
    (clockwise) order of slopes, so they keep minimal paths."""
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


def _frame(a: Slope, b: Slope, direction: str):
    """b's image (num, den), den > 0, in the frame where the minimal path
    from a to b starts at infinity and runs clockwise, and the matrix
    that carries the frame's vertices back: the reflection p -> -p for
    an anticlockwise path, then ``_normalizing_matrix`` of a."""
    if a == b:
        raise ValueError("minimal path needs distinct endpoints")
    f = {CLOCKWISE: 1, ANTICLOCKWISE: -1}.get(direction)
    if f is None:
        raise ValueError(f"unknown direction {direction!r}")
    # infinity stays (1, 0), which ``_normalizing_matrix`` expects
    p, q = (f * a.num, a.den) if a.den else (1, 0)
    ((x, y), (z, w)), ((r, s), back) = _normalizing_matrix(p, q)
    num, den = x * f * b.num + y * b.den, z * f * b.num + w * b.den
    if den < 0:
        num, den = -num, -den
    return (num, den), ((f * r, f * s), back)


def _runs(num: int, den: int):
    """Each continued-fraction block of the minimal path from infinity
    clockwise to num/den (den > 0), as (edges, turn): its number of
    edges, and the turn at its last vertex (0 after the last block).

    Along the path every vertex y, with neighbours x before and z after,
    satisfies z = a y - x, where a = |det(x, z)| >= 2 is its turn; turns
    of 2 continue a block (z - y = y - x) and larger ones start the next.
    After infinity and floor(num/den) + 1, the turns are the terms of
    -den/u's negative continued fraction, negated, for u = num mod den:
    ``neg_cf_runs`` gives a run of turns of 2 as one entry, so this takes
    O(log den) steps however many vertices the path has.
    """
    u = num % den
    edges = 1
    for term, m in neg_cf_runs(-den, u) if u else ():
        if term == -2:
            edges += m
        else:
            yield edges, -term
            edges = 1
    yield edges, 0


def minimal_path_blocks(a: Slope, b: Slope, direction: str = CLOCKWISE) -> list:
    """Continued-fraction blocks of the minimal Farey path from a to b
    through the given rotational arc.

    All intermediate vertices lie strictly inside the arc, and among such
    paths this one has the fewest edges.  The blocks are placed from
    ``_runs`` in the path's ``_frame`` and carried back by a determinant
    +1 map, which keeps arithmetic progressions."""
    (num, den), back = _frame(a, b, direction)
    # infinity as (-1, 0), so that det(v_i, v_{i+1}) = -1 along the path
    start, step = (-1, 0), (num // den + 1, 1)
    blocks = []
    for edges, turn in _runs(num, den):
        blocks.append(FareyBlock(_mul(back, start), _mul(back, step), edges))
        # from the block's last vertex y, the next step is z - y = (turn - 2) y + step
        start = (start[0] + edges * step[0], start[1] + edges * step[1])
        step = ((turn - 2) * start[0] + step[0], (turn - 2) * start[1] + step[1])
    return blocks


def _edges(a: Slope, b: Slope, direction: str = CLOCKWISE) -> list:
    """The edge count of each block of the minimal path from a to b."""
    return [edges for edges, _ in _runs(*_frame(a, b, direction)[0])]


def _classes(edges: list, first: int, last: int) -> int:
    """Decorated paths up to shuffles of the signs inside each block,
    from the edge count of each block, when the first ``first`` and the
    last ``last`` edges are unsigned: a block with s signed edges
    contributes a factor s + 1."""
    hi, total, offset = sum(edges) - last, 1, 0
    for n in edges:
        # the block's signed edges are start, ..., end - 1
        start = offset if offset > first else first
        offset += n
        end = offset if offset < hi else hi
        if end > start:
            total *= end - start + 1
    return total


def count_tight_solid_torus(meridian: Slope, boundary: Slope,
                            direction: str = CLOCKWISE) -> int:
    """Tight structures on a solid torus with the given meridian and
    boundary dividing slope: decorated minimal paths from the meridian
    to the boundary slope, the first edge unsigned.  Lower-meridian tori
    use the clockwise path (the default); upper-meridian tori use the
    anticlockwise one."""
    return _classes(_edges(meridian, boundary, direction), 1, 0)


def count_tight_thickened_torus(s0: Slope, s1: Slope) -> int:
    """Tight minimally twisting structures on T^2 x I with dividing
    slopes s0 and s1: every edge of the minimal clockwise path from s0
    to s1 carries a sign."""
    return _classes(_edges(s0, s1), 0, 0)


def count_tight_lens(s: Slope, r: Slope) -> int:
    """Tight structures on the lens space obtained by collapsing slope s
    at one end of T^2 x I and slope r at the other: signs on all edges
    of the minimal clockwise path from s to r except the first and last
    (Farey neighbours give S^3, one unsigned edge).  For L(p, q) this is
    Honda's |(r_0 + 1) ... (r_k + 1)| over -p/q = [r_0, ..., r_k]."""
    if s == r:
        raise ValueError("degenerate lens parameters")
    return _classes(_edges(s, r), 1, 1)


def count_tight_lens_pq(p: int, q: int) -> int:
    """Tight structures on L(p, q), presented as -p/q surgery data: the
    lens count of the minimal clockwise path from -p/q to 0."""
    if p < 1:
        raise ValueError("lens space needs p >= 1")
    q %= p
    if p == 1:
        return 1
    if q == 0 or math.gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}) is not a lens space")
    # sending -p/q to infinity sends 0 = (0, 1) to (y, -p), that is -y/p
    ((_, y), _), _ = _normalizing_matrix(-p, q)
    return _classes([n for n, _ in _runs(-y, p)], 1, 1)
