"""The Farey graph on slopes: minimal paths as continued-fraction blocks,
and the tight lens count.

Vertices are slopes, taken as integer vectors (p, q) with gcd(p, q) = 1,
and p/q and p'/q' are joined by an edge when |p q' - p' q| = 1.  A
path's endpoints are reduced: q > 0, or (1, 0) for infinity; the
vertices of its blocks may carry either sign.

A minimal path is built as its continued-fraction blocks, runs of
vertices in arithmetic progression.  One loop, ``_runs``, reads each
block's edge count and turn off the Euclid of ``slopes.neg_cf_runs`` (a
run of -2 terms is one entry) in the frame where the path starts at
infinity: the work is logarithmic in the size of the endpoints, not
linear in the number of vertices.  Blocks are placed from it and carried
back.  Tight contact structures on L(p, q) are counted by Honda's
closed form ("On the classification of tight contact structures I",
2000), one product over ``neg_cf_runs`` of -p/q
(``count_tight_lens_pq``); the count of decorated minimal paths up to
sign shuffles inside each block, which it equals, is a test oracle.

Convention: "clockwise" from a slope means moving in the direction of
increasing slope, wrapping from large positive slopes through infinity
to large negative ones.  This matches the disk picture with 0 at the
top, -1 on the left, 1 on the right and infinity at the bottom, in which
the minimal clockwise path from -5/2 to -1 is -5/2, -2, -1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .slopes import neg_cf_runs


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


def _frame(a: tuple, b: tuple):
    """b's image (num, den), den > 0, in the frame where the minimal
    clockwise path from a to b starts at infinity, and the matrix that
    carries the frame's vertices back: the inverse of
    ``_normalizing_matrix`` of a.

    The endpoints are reduced vectors (num, den), den > 0, or (1, 0) for
    infinity; any other pair raises ValueError, since the frame of an
    unreduced vector is not the frame of its slope."""
    for num, den in (a, b):
        if not (den > 0 and math.gcd(num, den) == 1 or (num, den) == (1, 0)):
            raise ValueError(f"slope vector ({num}, {den}) is not reduced: needs "
                             "den > 0 and gcd(num, den) = 1, or (1, 0) for infinity")
    if a == b:
        raise ValueError("minimal path needs distinct endpoints")
    m, back = _normalizing_matrix(*a)
    num, den = _mul(m, b)
    if den < 0:
        num, den = -num, -den
    return (num, den), back


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


def minimal_path_blocks(a: tuple, b: tuple) -> list:
    """Continued-fraction blocks of the minimal Farey path from a
    clockwise to b.  Each endpoint is a reduced vector (num, den):
    den > 0, or (1, 0) for infinity.

    All intermediate vertices lie strictly inside the clockwise arc from
    a to b, and among such paths this one has the fewest edges; the
    anticlockwise path from a to b is the reflection p -> -p of the
    clockwise one from -a to -b.  The blocks are placed from ``_runs`` in
    the path's ``_frame`` and carried back by a determinant +1 map, which
    keeps arithmetic progressions."""
    (num, den), back = _frame(a, b)
    # infinity as (-1, 0), so that det(v_i, v_{i+1}) = -1 along the path
    start, step = (-1, 0), (num // den + 1, 1)
    blocks = []
    for edges, turn in _runs(num, den):
        blocks.append(FareyBlock(_mul(back, start), _mul(back, step), edges))
        # from the block's last vertex y, the next step is z - y = (turn - 2) y + step
        start = (start[0] + edges * step[0], start[1] + edges * step[1])
        step = ((turn - 2) * start[0] + step[0], (turn - 2) * start[1] + step[1])
    return blocks


def count_tight_lens_pq(p: int, q: int) -> int:
    """Tight structures on L(p, q), presented as -p/q surgery data:
    Honda's product |(r_0 + 1) ... (r_k + 1)| over the negative continued
    fraction -p/q = [r_0, ..., r_k].  A run of -2 terms gives factors 1,
    so the product is one pass over ``neg_cf_runs``, O(log p) entries."""
    if p < 1:
        raise ValueError("lens space needs p >= 1")
    q %= p
    if p == 1:
        return 1
    if q == 0 or math.gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}) is not a lens space")
    return math.prod(-c - 1 for c, _ in neg_cf_runs(-p, q) if c != -2)
