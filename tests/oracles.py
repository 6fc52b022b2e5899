"""Brute-force oracles and cross-checks for the fast paths of the library.

Each is slow but plainly right, and shares no code with the route it
checks: exhaustive search, breadth-first search, enumeration, negative
continued fractions one term at a time, vertex by vertex Farey paths
with their own extended Euclid, their signs, class count and shortening
move, Honda's lens count from the regular continued fraction, a dense
Bareiss elimination for determinants and adjugates, a sparse symmetric
one that gives signatures and adjugate blocks of any symmetric matrix,
characteristic polynomials from its determinants, by Berkowitz and by a
continuant one vertex at a time, the determinant and the Descartes
signature from the last of these, chi(Q) of the whole form with runs of
-2 framings in closed-form steps (the polynomial the library's signature
check read before it dropped those runs), a dense Fraction
congruence diagonalization, r^T adj(A) r entry by entry, d3 one
rotation vector at a time, the
d3-equality equations with hand-derived coefficients and the +-1/n
line solved by a walk over s, the
intersection-form families built by hand from their displayed shape,
linking matrices built dense, entry by entry, and conversions that
build one presentation per stabilization outcome.

Helpers the library does not need live here too: slopes as reduced
vectors, the Farey edge test, anticlockwise paths as reflections p -> -p
of the library's clockwise ones, lens-space classification, sparse rows
from dense ones, their symmetry check and their reading into a path,
the lemma matrices (chain, primed chain, bordered block) as sparse
rows, which the library builds as paths, and verify's closed-form and
d3 regression stages each run alone, for counting the calls one stage
makes.
"""

import math
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, compress, product
from operator import add, mul, sub
from typing import NamedTuple

from contactsurg.cosmetic import _shifted_d3
from contactsurg.farey import minimal_path_blocks
from contactsurg import closedforms, invariants, linalg, regressions
from contactsurg.invariants import NonTorsionEulerClassError, d3_spectrum
from contactsurg.linalg import SingularMatrixError
from contactsurg.slopes import SlopeError, neg_cf_runs, parse_slope
from contactsurg.surgery import (
    Component,
    ContactZeroError,
    IntersectionForm,
    LegendrianData,
    rot_range,
)


# ---------------------------------------------------------------------------
# slope calculus

# Farey vertices are the reduced vectors ``farey`` takes: (p, q) with
# q > 0 for p/q, and (1, 0) for infinity
INF = (1, 0)


def vec(num, den=1) -> tuple:
    """The reduced vector of num/den; num may be a Fraction."""
    if isinstance(num, Fraction):
        num, den = num.numerator, num.denominator * den
    g = math.gcd(num, den) * (-1 if den < 0 or den == 0 and num < 0 else 1)
    if not g:
        raise SlopeError("0/0 is not a slope")
    return (num // g, den // g)


def neg(v: tuple) -> tuple:
    """The reflection p -> -p of a slope vector."""
    return vec(-v[0], v[1])


def slope_text(v: tuple) -> str:
    return str(Fraction(*v)) if v[1] else "inf"


def neg_cf_terms(r) -> list:
    """Negative continued fraction [c1, ..., cn] of a rational r < -1, one
    term per Euclid step: -(N+1)/N takes N steps, where
    ``slopes.neg_cf_runs`` takes one."""
    r = Fraction(r)
    if r >= -1:
        raise SlopeError(f"negative continued fraction requires r < -1, got {r}")
    # c = floor(p/q) and r - c = rem/q give the next term -1/(r - c) = -q/rem
    p, q = r.numerator, r.denominator
    coeffs = []
    while True:
        c, rem = divmod(p, q)
        coeffs.append(c)
        if not rem:
            return coeffs
        p, q = -q, rem


def expand_runs(runs) -> list:
    """The terms of a run-length coded continued fraction, one by one."""
    return [c for c, m in runs for _ in range(m)]


def neg_cf_value(coeffs) -> Fraction:
    """Evaluate a negative continued fraction; inverse of neg_cf_terms."""
    if not coeffs:
        raise SlopeError("empty continued fraction")
    if any(c > -2 for c in coeffs):
        raise SlopeError("negative continued fraction coefficients must be <= -2")
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        value = c - Fraction(1) / value
    return value


def rolfsen_twist(r: tuple, n: int) -> tuple:
    """Twist p/q surgery on the unknot into p/(q + n|p|) surgery.

    Twisting changes the surgery description, not the manifold.  The
    result is infinity when the new denominator vanishes.  Zero and
    infinite slopes are rejected: 0- and infinity-surgery sit outside
    the slope calculus used here.
    """
    num, den = r
    if not (num and den):
        raise SlopeError("Rolfsen twist needs a finite nonzero slope")
    return vec(num, den + n * abs(num))


def same_lens_space(a, b) -> bool:
    """Orientation-preserving classification of lens spaces.

    L(p, q) and L(p', q') are orientation-preserving diffeomorphic iff
    p = p' and q' is congruent to q or to the inverse of q mod p.
    """
    p, q = a
    p2, q2 = b
    if p != p2:
        return False
    if p <= 1:
        return True
    q %= p
    q2 %= p
    if q == q2:
        return True
    return (q * q2) % p == 1


def smooth_recovery(pres) -> Fraction:
    """Smooth surgery coefficient recovered from the framed link.

    Independent cross-check of convert: slam-dunk the meridian chain
    into the last push-off, then combine the parallel push-offs (pairwise
    linking t = tb) via r = t + 1/sum(1/(r_i - t)).
    """
    comps = pres.components
    chain = [c for c in comps if c.role == "chain"]
    pushoffs = [c for c in comps if c.role == "pushoff"]
    if not pushoffs:
        raise ValueError("presentation has no push-off of the base knot")
    eff = None
    for c in reversed(chain):
        f = Fraction(framing(c))
        eff = f if eff is None else f - 1 / eff
    coeffs = [Fraction(framing(c)) for c in pushoffs]
    if eff is not None:
        coeffs[-1] = coeffs[-1] - 1 / eff
    t = Fraction(pres.base_tb)
    total = Fraction(0)
    for r in coeffs:
        if r == t:
            raise ZeroDivisionError("push-off framing equal to tb")
        total += 1 / (r - t)
    if total == 0:
        raise ZeroDivisionError("framed link reduces to infinity surgery")
    return t + 1 / total


# ---------------------------------------------------------------------------
# conversion as a list: one presentation built per stabilization outcome,
# each with its rotation number pinned and held as a tuple of Components,
# read one component at a time

@dataclass(frozen=True)
class ListedPresentation:
    """A presentation as its tuple of Components, one per row."""

    components: tuple
    base_tb: int
    base_rot: int
    contact_coeff: Fraction
    smooth_slope: Fraction

    @property
    def l(self) -> int:
        """Number of contact (+1)-surgery components."""
        return sum(1 for c in self.components if c.sign == 1)

    def to_json(self):
        return {
            "components": [
                {"role": c.role, "tb": c.tb, "rot": c.rot, "sign": c.sign}
                for c in self.components
            ],
            "l": self.l,
        }


def framing(c) -> int:
    """The smooth framing tb + sign of a Component."""
    return c.tb + c.sign


def component_choices(pres) -> list:
    """The rotation numbers each component may take, in enumeration order,
    read one component at a time: a push-off keeps its pinned one (a
    stabilized push-off its range of them), and a chain unknot with
    tb = -t ranges over t-1, t-3, ..., -t+1 (``rot_range`` raises for
    t < 1)."""
    return [c.rot if type(c.rot) is range else (c.rot,) if c.rot is not None
            else tuple(range(-c.tb - 1, c.tb, -2)) if c.tb <= -1 else rot_range(c.tb)
            for c in pres.components]


def listed_linking_matrix(pres) -> IntersectionForm:
    """The form of a presentation's components, read one row at a time:
    the framings on the diagonal, the p push-offs first, linked by the
    base tb (a clique head when p >= 3 and tb != 0, else a path), then
    each chain component linked to its predecessor by -1."""
    comps = pres.components
    p = 0
    while p < len(comps) and comps[p].role == "pushoff":
        p += 1
    if any(c.role != "chain" for c in comps[p:]):
        raise ValueError("push-offs must come before the chain")
    if comps and not p:
        raise ValueError("chain component without a predecessor")
    tb = pres.base_tb
    path = linalg._Path([framing(c) for c in comps], [tb] * (p - 1) + [-1] * (len(comps) - p),
                        *((p, tb) if p >= 3 and tb else (0, 0)))
    return IntersectionForm(path, pres.l)


# ---------------------------------------------------------------------------
# conversion as a list: one presentation built per stabilization outcome,
# each with its rotation number pinned; ``surgery.convert`` gives this list

def listed_negative_chain(tb: int, rot: int, contact_coeff: Fraction):
    """Stabilized-knot plus meridian-chain data for a negative contact
    coefficient on a knot with invariants (tb, rot).

    Returns one component tuple per stabilization outcome.
    """
    smooth = tb + contact_coeff
    if smooth >= -1:
        raise SlopeError(
            f"tb={tb}, contact coefficient {contact_coeff}: negative-coefficient "
            f"conversion needs smooth slope < -1, got {smooth}"
        )
    runs = neg_cf_runs(smooth.numerator, smooth.denominator)
    m = tb - runs[0][0] - 1
    if m < 0:
        raise ValueError(
            f"negative-coefficient conversion needs a negative contact "
            f"coefficient, got {contact_coeff}"
        )
    for count, what in ((m + 1, "presentations"), (sum(k for _, k in runs) - 1, "chain unknots")):
        if count > sys.maxsize:
            raise SlopeError(f"tb={tb}, contact coefficient {contact_coeff}: {count} {what} "
                             f"are more than a list holds ({sys.maxsize})")
    # the terms after the first, one shared (immutable) Component per run
    chain = []
    for c, k in runs:
        chain += [Component("chain", c + 1, -1)] * k
    chain = tuple(chain[1:])
    # m stabilizations shift rot by one of m, m - 2, ..., -m
    return [(Component("pushoff", tb - m, -1, rot=rot + x),) + chain
            for x in rot_range(-m - 1)[::-1]]


def listed_convert(L: LegendrianData, contact_coeff) -> list:
    """All (+1/-1)-surgery presentations of contact r-surgery on L.

    One ``ListedPresentation`` is returned per stabilization outcome of
    the single stabilized component (its rotation number is pinned); they
    differ only in that rotation number.  The rotation numbers of chain
    unknots remain free (``component_choices``).
    """
    contact_coeff = Fraction(contact_coeff)
    if contact_coeff == 0:
        raise ContactZeroError("contact (0)-surgery is not well-defined")
    smooth = L.tb + contact_coeff

    def finish(comps):
        return ListedPresentation(
            components=comps,
            base_tb=L.tb,
            base_rot=L.rot,
            contact_coeff=contact_coeff,
            smooth_slope=smooth,
        )

    if contact_coeff < 0:
        return [finish(v) for v in listed_negative_chain(L.tb, L.rot, contact_coeff)]

    p, q = contact_coeff.numerator, contact_coeff.denominator
    k = -(-q // p)  # smallest k with q - k p <= 0
    if k > sys.maxsize:
        raise SlopeError(f"tb={L.tb}, contact coefficient {contact_coeff}: {k} push-offs "
                         f"are more than a list holds ({sys.maxsize})")
    rem = q - k * p
    pushoffs = (Component("pushoff", L.tb, 1, rot=L.rot),) * k  # one shared (immutable) Component
    if rem == 0:
        return [finish(pushoffs)]
    tail_coeff = Fraction(p, rem)
    if L.tb + tail_coeff >= -1:
        plural = "s" if k > 1 else ""
        raise SlopeError(
            f"tb={L.tb}, contact coefficient {contact_coeff} (smooth slope {smooth}): "
            f"after {k} push-off{plural} the remainder coefficient {tail_coeff} needs "
            f"smooth slope < -1, got {L.tb + tail_coeff}"
        )
    return [finish(pushoffs + v) for v in listed_negative_chain(L.tb, L.rot, tail_coeff)]


# ---------------------------------------------------------------------------
# Farey paths vertex by vertex, with signs

# "clockwise" from a slope is the direction of increasing slope, through
# infinity; ``farey`` builds clockwise paths only, and an anticlockwise
# path from a to b is the reflection p -> -p of the clockwise one from -a
# to -b
CLOCKWISE = "clockwise"
ANTICLOCKWISE = "anticlockwise"


def clockwise_ends(a: tuple, b: tuple, direction: str):
    """The endpoints of the clockwise path whose reflection, for an
    anticlockwise ``direction``, is the path from a to b."""
    return (a, b) if direction == CLOCKWISE else (neg(a), neg(b))


def _det(a: tuple, b: tuple) -> int:
    return a[0] * b[1] - b[0] * a[1]


def is_edge(a: tuple, b: tuple) -> bool:
    """Farey adjacency: |p q' - p' q| = 1.  Equal slopes are rejected."""
    if a == b:
        raise ValueError("is_edge needs two distinct slopes")
    return abs(_det(a, b)) == 1


def in_clockwise_arc(x: tuple, a: tuple, b: tuple) -> bool:
    """True when x lies strictly inside the clockwise arc from a to b."""
    if a == b:
        raise ValueError("empty arc")
    if x == a or x == b:
        return False
    x, a, b = (Fraction(*v) if v[1] else None for v in (x, a, b))
    if a is None:
        return x is not None and x < b
    if b is None:
        return x is not None and x > a
    if x is None:
        return a > b
    if a < b:
        return a < x < b
    return x > a or x < b


def minimal_path(a: tuple, b: tuple, direction: str = CLOCKWISE):
    """The vertices of the minimal path from a to b in ``direction``, from
    ``farey.minimal_path_blocks`` (reflected, for an anticlockwise path)."""
    blocks = minimal_path_blocks(*clockwise_ends(a, b, direction))
    path = [vec(*blocks[0].start)]
    for (sn, sd), (wn, wd), edges in blocks:
        path.extend(vec(sn + j * wn, sd + j * wd) for j in range(1, edges + 1))
    return path if direction == CLOCKWISE else [neg(v) for v in path]


_SIGN_CHARS = {1: "+", -1: "-", None: "?"}
_CHAR_SIGNS = {v: k for k, v in _SIGN_CHARS.items()}


@dataclass(frozen=True)
class DecoratedFareyPath:
    """A Farey path with a sign (+1, -1, or None for unsigned) per edge."""

    vertices: tuple
    signs: tuple

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a path needs at least one edge")
        if len(self.signs) != len(self.vertices) - 1:
            raise ValueError("one sign per edge required")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if not is_edge(u, v):
                raise ValueError(f"{slope_text(u)} and {slope_text(v)} are not Farey neighbours")
        for s in self.signs:
            if s not in (1, -1, None):
                raise ValueError("signs must be +1, -1, or None")

    def to_json(self):
        return {
            "vertices": [slope_text(v) for v in self.vertices],
            "signs": "".join(_SIGN_CHARS[s] for s in self.signs),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            tuple(INF if t == "inf" else vec(parse_slope(t)) for t in data["vertices"]),
            tuple(_CHAR_SIGNS[c] for c in data["signs"]),
        )


def _merge_signs(s1, s2):
    """Sign of a merged edge; None absorbs, opposite signs overtwist."""
    if s1 is None or s2 is None:
        return None, False
    if s1 == s2:
        return s1, False
    return None, True


def shorten(path: DecoratedFareyPath):
    """Shorten a decorated path to minimal length.

    Two consecutive edges merge when the outer vertices are themselves
    Farey neighbours.  Merging edges of opposite sign detects an
    overtwisted structure; merging across an unsigned edge is always
    allowed and the merged edge stays unsigned.  Returns the fully
    shortened path and the verdict 'tight' or 'overtwisted'.

    Intended for monotone concatenations (paths winding clockwise
    through less than a full turn), which is what gluing produces; on
    those the verdict and final path do not depend on the order in which
    merges are applied.  One stack pass: merges run at the top of the
    stack, leftmost first, as rescanning from the start after every
    merge would (``shorten_restart``).
    """
    verts = [path.vertices[0]]
    signs = []
    overtwisted = False
    for vertex, sign in zip(path.vertices[1:], path.signs):
        verts.append(vertex)
        signs.append(sign)
        while len(verts) > 2:
            if verts[-3] == verts[-1]:
                raise ValueError("path backtracks; not a monotone concatenation")
            if abs(_det(verts[-3], verts[-1])) != 1:
                break
            merged, clash = _merge_signs(signs[-2], signs[-1])
            overtwisted = overtwisted or clash
            del verts[-2]
            signs[-2:] = [merged]
    result = DecoratedFareyPath(tuple(verts), tuple(signs))
    return result, ("overtwisted" if overtwisted else "tight")


def cf_blocks(path) -> list:
    """Partition of the edges of a minimal path into continued-fraction
    blocks: edges e_i and e_{i+1} share a block exactly when the outer
    vertices satisfy |det| = 2."""
    verts = path.vertices if isinstance(path, DecoratedFareyPath) else tuple(path)
    n_edges = len(verts) - 1
    for i in range(1, n_edges):
        if abs(_det(verts[i - 1], verts[i + 1])) == 1:
            raise ValueError("continued-fraction blocks require a minimal path")
    blocks = [[0]]
    for i in range(1, n_edges):
        if abs(_det(verts[i - 1], verts[i + 1])) == 2:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def decorated_path_key(path: DecoratedFareyPath):
    """Equality key: vertices plus the per-block multiset of signs."""
    multisets = []
    for block in cf_blocks(path):
        signed = sorted(
            (path.signs[i] for i in block if path.signs[i] is not None), reverse=True
        )
        unsigned = sum(1 for i in block if path.signs[i] is None)
        multisets.append((tuple(signed), unsigned))
    return (path.vertices, tuple(multisets))


def _class_count(edge_counts, unsigned_positions) -> int:
    """Decorated paths up to block shuffles, from the number of edges in
    each block and the set of unsigned edge positions: a block with s
    signed edges contributes a factor s + 1."""
    total, offset = 1, 0
    for edges in edge_counts:
        unsigned = sum(1 for i in unsigned_positions if offset <= i < offset + edges)
        total *= edges - unsigned + 1
        offset += edges
    return total


def sign_class_count(vertices, unsigned_positions) -> int:
    """Number of decorated paths on given vertices up to block shuffles."""
    return _class_count([len(block) for block in cf_blocks(vertices)], unsigned_positions)


def honda_lens_count(p: int, q: int) -> int:
    """Honda's |(r_0 + 1) ... (r_k + 1)| for L(p, q), over the negative
    continued fraction -p/q = [r_0, ..., r_k], read off the regular one
    p/q = [a_0; a_1, ..., a_n] (0 < q < p) by one divmod per term.

    The -r_i are a_0 + 1, then a_1 - 1 twos, a_2 + 2, a_3 - 1 twos,
    a_4 + 2, ..., except that an even n ends on a_n + 1 (on a_0 if
    n = 0).  Twos give factors 1, so the product is that of a_i + 1 over
    even i, less 1 at i = 0 and at i = n.
    """
    terms = []
    while q:
        a, r = divmod(p, q)
        terms.append(a)
        p, q = q, r
    n = len(terms) - 1
    count = 1
    for i in range(0, n + 1, 2):
        count *= terms[i] + 1 - (i == 0) - (i == n)
    return count


# ---------------------------------------------------------------------------
# intersection-form families, derived by hand: the reference for the forms
# that ``convert`` and ``linking_matrix`` build

def bordered_chain(a0: int, a1: int, b: int, size: int):
    """Chain matrix bordered by diag (a0, a1, -2, ...) and link b."""
    if size < 1:
        raise ValueError("size must be positive")
    q = [[0] * size for _ in range(size)]
    q[0][0] = a0
    if size > 1:
        q[1][1] = a1
        q[0][1] = q[1][0] = b
    for i in range(2, size):
        q[i][i] = -2
    for i in range(1, size - 1):
        q[i][i + 1] = q[i + 1][i] = -1
    return q


def tb1_negative_matrix(n: int):
    """Form of the -1/n surgery trace on a tb = -1 knot (n >= 2)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    q = [[0] * n for _ in range(n)]
    q[0][1] = q[1][0] = -1
    if n > 2:
        q[0][2] = q[2][0] = -1
        q[1][2] = q[2][1] = -1
        q[2][2] = -3
        for i in range(3, n):
            q[i][i] = -2
        for i in range(2, n - 1):
            q[i][i + 1] = q[i + 1][i] = -1
    return q


def tb1_positive_matrix(n: int):
    """Form of the +1/n surgery trace on a tb = -1 knot."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return [[0, -1], [-1, -2 - n]]


def tb2_negative_matrix(n: int):
    """Form of the -1/n surgery trace on a tb = -2 knot (n >= 1)."""
    return bordered_chain(-1, -5, -2, n)


def tb2_positive_matrix(n: int):
    """Form of the +1/n surgery trace on a tb = -2 knot."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return [[-1, -2, 0], [-2, -4, -1], [0, -1, -n - 1]]


def tbk_negative_matrix(k: int, n: int):
    """Form of the -1/n surgery trace on a tb = -k knot, k >= 3."""
    if k < 3 or n < 1:
        raise ValueError("needs k >= 3 and n >= 1")
    q = bordered_chain(-k + 1, -k - 2, -k, k + n - 2)
    if n >= 2:
        q[k - 1][k - 1] = -3
    return q


def tbk_positive_matrix(k: int, n: int):
    """Form of the +1/n surgery trace on a tb = -k knot, k >= 3."""
    if k < 3 or n < 1:
        raise ValueError("needs k >= 3 and n >= 1")
    q = bordered_chain(-k + 1, -k - 2, -k, k + 1)
    q[k][k] = -n - 1
    return q


def tbk_two_matrix(k: int, sign: int):
    """Form of the (sign) 2 surgery trace on a tb = -k knot, k >= 3."""
    if k < 3 or sign not in (1, -1):
        raise ValueError("needs k >= 3 and sign +-1")
    size = k + 2 if sign == 1 else k - 2
    return bordered_chain(-k + 1, -k - 2, -k, size)


def linking_matrix_dense(pres):
    """Q of ``surgery.linking_matrix`` as a dense tuple of rows, built
    entry by entry as that function once built it: framings on the
    diagonal, the base tb between push-offs, -1 along the chain."""
    comps = pres.components
    n = len(comps)
    q = [[0] * n for _ in range(n)]
    pushoff_idx = [i for i, c in enumerate(comps) if c.role == "pushoff"]
    for i, c in enumerate(comps):
        q[i][i] = framing(c)
    for a_i, i in enumerate(pushoff_idx):
        for j in pushoff_idx[a_i + 1:]:
            q[i][j] = q[j][i] = pres.base_tb
    prev = pushoff_idx[-1] if pushoff_idx else None
    for i, c in enumerate(comps):
        if c.role == "chain":
            if prev is None:
                raise ValueError("chain component without a predecessor")
            q[i][prev] = q[prev][i] = -1
            prev = i
    return tuple(tuple(row) for row in q)


# ---------------------------------------------------------------------------
# linear algebra, lens spaces, d3 and unknot counts

class Form(NamedTuple):
    """Q as the sparse rows of a symmetric matrix of any shape, with the
    count l of (+1)-components: a form for ``d3_values``, where
    ``IntersectionForm`` holds only the shapes the path kernel takes."""

    rows: list
    l: int

    @property
    def n(self):
        return len(self.rows)


def sparse(rows):
    """The sparse rows of a square matrix given as dense rows; the inverse
    of ``linalg.dense``."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def check_symmetric(rows, name="matrix"):
    """``rows`` as a tuple, if they are the sparse rows of a symmetric n x n
    matrix; else ValueError: a key outside 0..n-1 or a stored 0 is not
    square, and an entry (i, j) without an equal (j, i) not symmetric."""
    n = len(rows)
    for i, row in enumerate(rows):
        for j, x in row.items():
            if not 0 <= j < n or not x:
                raise ValueError(f"{name} must be square")
            if rows[j].get(i) != x:
                raise ValueError(f"{name} must be symmetric")
    return tuple(rows)


def read(rows, name="matrix"):
    """The ``linalg._Path`` of sparse ``rows``, checked by
    ``check_symmetric`` (``name`` names the matrix in its errors): h is 0
    when the nonzeros are those of the band.  Any other shape raises
    ValueError.  ``linalg._rows`` is its inverse."""
    check_symmetric(rows, name)
    a = [row.get(i, 0) for i, row in enumerate(rows)]
    b = [rows[i].get(i + 1, 0) for i in range(len(rows) - 1)]
    # the nonzeros off the band, each counted twice, as Q is symmetric
    off = sum(map(len, rows)) - (len(a) - a.count(0) + 2 * (len(b) - b.count(0)))
    if not off:
        return linalg._Path(a, b, 0, 0)
    c, h = rows[0].get(1), 2
    while h < len(rows) and rows[0].get(h) == c:
        h += 1
    full = dict.fromkeys(range(h + 1), c)
    # a clique head's, then, are its (h-1)(h-2) links off the band
    if not c or h < 3 or off != (h - 1) * (h - 2) or any(
            {**row, i: c, h: c} != full for i, row in enumerate(rows[:h])):
        raise ValueError("matrix is neither a path nor a clique head with a path on its last row")
    return linalg._Path(a, b, h, c)


def band(rows):
    """(a, w) of banded sparse ``rows``, which need not be symmetric: the
    diagonal a_ii and the link products a_(i,i+1) a_(i+1,i), the
    arguments of ``linalg.leading_determinants``."""
    a = [row.get(i, 0) for i, row in enumerate(rows)]
    w = [rows[i].get(i + 1, 0) * rows[i + 1].get(i, 0) for i in range(len(rows) - 1)]
    return a, w


def chain_matrix(n: int):
    """Sparse rows of the tridiagonal matrix with -2 on the diagonal and
    -1 off it."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    return [{j: x for j, x in ((i - 1, -1), (i, -2), (i + 1, -1)) if 0 <= j < n}
            for i in range(n)]


def chain_matrix_primed(n: int):
    """Sparse rows of the variant with top-left -1 and a one-way link:
    (0, 1) is -1 and (1, 0) is 0."""
    if n < 1:
        raise ValueError("size must be positive")
    m = chain_matrix(n)
    m[0][0] = -1
    if n > 1:
        del m[1][0]
    return m


def bordered_block_matrix(a: int, b: int, c: int, m: int):
    """Sparse rows of [[A, B], [B^T, chain(m)]] with A = [[a, b], [b, c]]
    and B carrying a single -1 from the second row to the first chain
    vertex; a zero among a, b, c is not stored."""
    if m < 1:
        raise ValueError("chain part must be nonempty")
    rows = [{0: a, 1: b}, {0: b, 1: c, 2: -1}]
    rows += ({j + 2: x for j, x in row.items()} for row in chain_matrix(m))
    rows[2] = {1: -1, **rows[2]}
    return [{j: x for j, x in row.items() if x} for row in rows]


def path_kernel(rows, cols=()):
    """``linalg._path_kernel`` of sparse ``rows``, read by ``read``:
    (det, signature, adj[cols, cols]), or (0, None, ()) at det 0."""
    return linalg._path_kernel(read(rows), cols)


def path_kernel_by_transposes(path, cols):
    """(det, sigma, B) of the ``linalg._Path`` ``path`` as ``linalg._path_kernel``
    gives them, B = adj(Q)[cols, cols], built as that kernel once built
    it: the same continuants and E, then adj(Q') on the touched indices as
    an upper triangle, one ``accumulate`` of link products per row, its
    lower half read down the columns of a transpose, and B = E[:, cols]^T
    adj(Q') E[:, cols] as row differences, a transpose, the same
    differences and a transpose again.  A singular Q gives (0, None, ())."""
    a, b, h, c = path
    n = len(a)
    if h:
        a, b = a.copy(), b.copy()
        for i in range(h - 2):
            a[i], b[i] = a[i] - 2 * c + a[i + 1], c - a[i + 1]
    w = [x * x for x in b]
    theta = linalg.leading_determinants(a, w)
    phi = linalg.leading_determinants(a[::-1], w[::-1])[::-1]
    det = theta[n]
    if det != phi[0]:
        raise linalg.KernelCheckError(f"continuants disagree: theta_n={det} phi_0={phi[0]}")
    if det == 0:
        return 0, None, ()
    signs = [t > 0 for t in theta if t]
    sigma = n - 2 * sum(x != y for x, y in zip(signs, signs[1:]))
    touched = sorted({*cols, *(s - 1 for s in cols if 0 < s < h - 1)})
    links = [(-1) ** (j - i) * math.prod(b[i:j]) for i, j in zip(touched, touched[1:])]
    ends = [phi[j + 1] for j in touched]
    upper = [[0] * k + list(map(mul, accumulate(links[k:], mul, initial=theta[i]), ends[k:]))
             for k, i in enumerate(touched)]
    adj = [[*col[:k], *row[k:]] for k, (row, col) in enumerate(zip(upper, zip(*upper)))]
    at = {i: k for k, i in enumerate(touched)}
    picks = [(at[s], at[s - 1] if 0 < s < h - 1 else None) for s in cols]
    block = adj
    for _ in range(2):
        block = list(zip(*(block[k] if j is None else list(map(sub, block[k], block[j]))
                           for k, j in picks)))
    return det, sigma, tuple(block)


def bareiss(rows, cols=()):
    """Dense fraction-free (Bareiss) elimination over [A | e_c for c in cols].

    Returns (det, adj): det A of any square integer matrix, and
    {c: column c of adj(A)} as integers; a singular A gives (0, {}).
    Partial pivoting by row swaps.  A row skipped by the steps t..k-1
    (zero in their pivot columns) is rescaled lazily, by p_k / p_t, and
    ``hi`` bounds each row's nonzero columns.  Back-substitution on the
    triangular result U, y_k = (det * b_k - sum_{j>k} U_kj y_j) // U_kk,
    is exact because y = det * A^-1 e_c is integral.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    cols = list(cols)
    w = n + len(cols)
    a = [list(map(int, row)) for row in rows]
    for i, row in enumerate(a):
        row.extend(1 if c == i else 0 for c in cols)
    # one past each row's last nonzero column
    hi = [next(compress(range(w, 0, -1), reversed(row)), 0) for row in a]
    level = [0] * n
    pivots = [1] * (n + 1)  # pivots[t] = pivot of step t-1
    sign = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0, {}
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            level[k], level[piv] = level[piv], level[k]
            hi[k], hi[piv] = hi[piv], hi[k]
            sign = -sign
        t = level[k]
        row_k = a[k]
        if t < k:
            num, den = pivots[k], pivots[t]
            for j in range(k, hi[k]):
                row_k[j] = row_k[j] * num // den
            level[k] = k
        pivot = row_k[k]
        pivots[k + 1] = pivot
        prev = pivots[k]
        for i in range(k + 1, n):
            row_i = a[i]
            if row_i[k] == 0:
                continue
            t = level[i]
            if t < k:
                num, den = pivots[k], pivots[t]
                for j in range(k, hi[i]):
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
            s = det * row[n + idx] - sum(row[j] * y[j] for j in range(k + 1, min(hi[k], n)))
            y[k] = s // row[k]
        adj[c] = y
    return det, adj


def eliminate(rows, cols=()):
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
    B needs no earlier one.  It takes a symmetric matrix of any shape, so
    it is the oracle for the path kernel's det, signature and adjugate
    blocks.
    """
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
    """Exact determinant of a square integer matrix (sparse rows),
    (-1)^n chi_A(0) from ``char_poly_berkowitz``: the constant term of the
    continuant and Berkowitz route, with no elimination."""
    coeffs = char_poly_berkowitz(rows)
    return (-1) ** (len(coeffs) - 1) * coeffs[-1]


def berkowitz(a, idx):
    """Ascending coefficients of det(x*I - A) on ``idx`` (Berkowitz 1984),
    for any square matrix A of sparse rows ``a``.

    Grows the leading block A_k one vertex v at a time, with column c and
    row r the entries joining v to A_k.  From p = chi(A_k) and
    t_m = r A_k^m c, chi(A_(k+1)) = (x - a_vv) p - sum_j x^j
    sum_(i>j) p_i t_(i-j-1), by the adjugate identity
    adj(x*I - A_k) = sum_j x^j sum_(i>j) p_i A_k^(i-j-1).  Rows are kept
    sparse, so a step costs k matrix-vector products over the nonzeros:
    O(k^4) on a dense block of k rows.
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


def char_poly_berkowitz(rows):
    """det(x*I - A), descending, of any square integer matrix (sparse
    rows): Berkowitz on the head 0..t-1 and on the head less t-1 seed the
    one-vertex continuant ``continuant_steps`` along the banded rows
    t..n-1 that end the matrix (row i banded when row and column i are
    zero outside i-1..i+1).  This is ``linalg.char_poly`` before a clique
    head took the determinant lemma, for every shape: a head of k rows
    costs O(k^4)."""
    n = len(rows)
    nbrs = [set(row) - {i} for i, row in enumerate(rows)]
    for i, row in enumerate(rows):
        for j in row:
            if j != i:
                nbrs[j].add(i)
    t = n
    while t and nbrs[t - 1] <= {t - 2, t}:
        t -= 1
    m = linalg.dense(rows)
    if not t:
        return continuant_steps(m, range(n), None, [1], None)[::-1]
    return continuant_steps(m, range(t, n), t - 1, berkowitz(rows, range(t)),
                            berkowitz(rows, range(t - 1)))[::-1]


def descartes_signature(rows) -> int:
    """Signature of a symmetric integer matrix (sparse rows) by Descartes'
    rule of signs on ``char_poly_berkowitz``: its spectrum is real, so the
    sign changes of chi(x) count the positive eigenvalues and those of
    chi(-x) the negative ones.  Raises SingularMatrixError at det 0."""
    coeffs = char_poly_berkowitz(rows)
    if coeffs[-1] == 0:
        raise SingularMatrixError("matrix is singular")
    degree = len(coeffs) - 1
    changes = []
    for poly in (coeffs, [(-1) ** (degree - i) * x for i, x in enumerate(coeffs)]):
        signs = [x > 0 for x in poly if x]
        changes.append(sum(a != b for a, b in zip(signs, signs[1:])))
    return changes[0] - changes[1]


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
            e += bareiss(sub)[0]
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
        table.append(Fraction(bareiss(shifted)[0]))
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


def continuant_steps(a, path, attach, f, g):
    """The continuant F_v = (x - a_vv) F_prev - a[v][prev] a[prev][v] F_prev2
    along ``path``, one vertex at a time, from F_0 = f and F_-1 = g
    (ascending coefficient lists); with ``attach`` None the first step has
    no second term.  This is ``path_extend`` before runs of -2
    framings took one closed-form step."""
    prev = attach
    for v in path:
        nxt = [0] + f
        for i, x in enumerate(f):
            nxt[i] -= a[v][v] * x
        if prev is not None:
            w2 = a[v][prev] * a[prev][v]
            for i, x in enumerate(g):
                nxt[i] -= w2 * x
        f, g, prev = nxt, f, v
    return f


def char_poly(rows):
    """Characteristic polynomial det(x*I - A) of a square integer matrix of
    a shape ``linalg._path_kernel`` takes, though the path rows need not be
    symmetric; any other shape raises ValueError.  This is the chi(Q) that
    ``linalg.adjugate_block`` read its Descartes signature off before
    ``linalg._reduce`` dropped each run of -2 framings by its Schur
    complement.

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
    step (see ``run_step``).  So a slope -1/N, one such run, costs O(N k)
    for k push-offs, and a clique of N push-offs (``--coeff 1/N``) O(N^2).
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
        return path_extend(rows, range(n), None, [1], None)[::-1]
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
    return path_extend(rows, range(t, n), t - 1, f, g)[::-1]


def path_extend(a, path, attach, f, g):
    """Run the continuant F_v = (x - a_vv) F_prev - w^2 F_prev2 along
    ``path`` from F_0 = f and F_-1 = g, with w^2 = a[v][prev] a[prev][v].

    ``attach`` is the vertex the path hangs on; with None, the first step
    has no w^2 term (the path starts the matrix and f = 1).  A vertex
    with a_vv = -2 and w^2 = 1 is held back, and each maximal run of them,
    such as the meridian chain of a slope -1/N, goes to ``run_step`` at once.
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
            f, g = run_step(f, g, r, True)
            r = 0
        nxt = [0] + f
        for k, x in enumerate(f):
            nxt[k] -= d * x
        if w2:
            for k, x in enumerate(g):
                nxt[k] -= w2 * x
        f, g = nxt, f
    if r:
        f = run_step(f, g, r, False)[0]
    return f


# a run takes the closed form when r >= RUN_MIN len f; below that, r
# plain steps cost less than its products and the 2r steps of run_polys
RUN_MIN = 8


def run_step(f, g, r, more):
    """(F_r, F_(r-1)) after r steps F_v = (x + 2) F_prev - F_prev2 from
    F_0 = f and F_-1 = g; the closed form leaves F_(r-1) None unless
    ``more``.

    The run's transfer matrix is [[P_r, -P_(r-1)], [P_(r-1), -P_(r-2)]]
    with P_r = U_r(1 + x/2) (see ``run_polys``), P_0 = 1 and P_-1 = 0,
    so F_r = P_r f - P_(r-1) g costs O(r len f) integer operations where r
    steps cost O(r (len f + r)).  F_(r-1) = P_(r-1) f - P_(r-2) g, with
    P_(r-2) = (x + 2) P_(r-1) - P_r, is built only for ``more``.
    """
    if r < RUN_MIN * len(f):
        for _ in range(r):
            nxt = [0] + f
            for k, x in enumerate(f):
                nxt[k] += 2 * x
            for k, x in enumerate(g):
                nxt[k] -= x
            f, g = nxt, f
        return f, g
    p, q = run_polys(r)
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


def run_polys(r):
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


def congruence_signature_dense(rows) -> int:
    """Signature by dense congruence diagonalization over the rationals.

    Every entry becomes a Fraction; a zero pivot swaps in a later nonzero
    diagonal entry, and an all-zero remaining diagonal mixes in a row
    with a nonzero off-diagonal entry.  Raises SingularMatrixError when
    det = 0.  O(n^3) Fraction operations, zeros included.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    zero = Fraction(0)  # immutable, so one object serves every zero entry
    a = [[Fraction(x) if x else zero for x in row] for row in rows]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][r] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                mix = next((r for r in range(k + 1, n) if a[k][r] != 0), None)
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
            if not f:
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


def normalize_lens_bruteforce(p: int, q: int):
    """Canonical representative of the lens class by exhaustive search.

    Independent of ``pow(q, -1, p)``: scans for the multiplicative inverse
    and returns min(q, q^-1) mod p.  Used to cross-check same_lens_space.
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


def minimal_path_bfs(a: tuple, b: tuple, direction: str = CLOCKWISE,
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
        res = minimal_path_bfs(neg(a), neg(b), CLOCKWISE, num_bound, den_bound, count_paths)
        if count_paths:
            return [neg(v) for v in res[0]], res[1]
        return [neg(v) for v in res]
    if num_bound is None:
        num_bound = 2 * (abs(a[0]) + abs(b[0])) + 3
    if den_bound is None:
        den_bound = 2 * (a[1] + b[1]) + 3
    vertices = {a, b}
    for q in range(0, den_bound + 1):
        for p in range(-num_bound, num_bound + 1):
            if q == 0 and p != 1:
                continue
            if math.gcd(abs(p), q) != 1:
                continue
            s = (p, q)
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


@dataclass(frozen=True)
class D3Result:
    """chi, sigma, c1^2, l and d3 of one rotation vector, in Fractions;
    building one checks the d3 identity."""

    chi: int
    sigma: int
    c_squared: Fraction
    l: int
    d3: Fraction

    def __post_init__(self):
        # 4 (d3 - l) + 3 sigma + 2 (chi - 1) = c1^2, cross-multiplied
        a, b = self.d3.numerator, self.d3.denominator
        c, d = self.c_squared.numerator, self.c_squared.denominator
        if (4 * (a - self.l * b) + (3 * self.sigma + 2 * (self.chi - 1)) * b) * d != c * b:
            raise ValueError("inconsistent d3 data")

    def to_json(self):
        return {"chi": self.chi, "sigma": self.sigma, "c_squared": str(self.c_squared),
                "l": self.l, "d3": str(self.d3)}


def enumerate_rotations(pres):
    """All rotation vectors consistent with the presentation: the product
    of its ``component_choices``."""
    return list(product(*component_choices(pres)))


def _assemble(chi, sigma, l, det, num):
    """The D3Result with c1^2 = num / det, num = r^T adj(Q) r: d3 is the
    single fraction (num - (3 sigma + 2 (chi - 1) - 4 l) det) / (4 det)."""
    d3 = Fraction(num - (3 * sigma + 2 * (chi - 1) - 4 * l) * det, 4 * det)
    return D3Result(chi=chi, sigma=sigma, c_squared=Fraction(num, det), l=l, d3=d3)


def adjugate_quadratic(block, support, r) -> int:
    """The integer r^T adj(A) r = v^T B v from B = adj(A)[S, S], where v is r
    on S; over det A it is r^T A^-1 r, summed entry by entry.

    An entry of r off S would need a part of adj(A) that B does not hold,
    so it raises ValueError.
    """
    v = list(map(r.__getitem__, support))
    if len(r) - r.count(0) != len(v) - v.count(0):
        raise ValueError("vector has a nonzero entry outside the block's support")
    return sum(x * row[b] * v[b] for x, row in zip(v, block) for b in range(len(v)))


def d3_values(form, vectors) -> list:
    """d3 of ``form`` for each rotation vector, as D3Results, one vector
    at a time: c1^2 of r is v^T B v / det Q for B = adj(Q)[S, S] on the
    joint support S of the vectors and v = r on S, from ``eliminate``, so
    a form of any shape is taken, each assembled in Fractions.  A
    singular Q raises NonTorsionEulerClassError."""
    if any(len(v) != form.n for v in vectors):
        raise ValueError("rotation vector length must match Q")
    support = tuple(compress(range(form.n), map(any, zip(*vectors))))
    det, sigma, block = eliminate(form.rows, support)
    if det == 0:
        raise NonTorsionEulerClassError("c1^2 undefined: non-torsion Euler class")
    return [_assemble(form.n + 1, sigma, form.l, det,
                      adjugate_quadratic(block, support, r)) for r in vectors]


def d3_spectrum_detail_by_vector(L, smooth_slope) -> list:
    """Per presentation of a fresh ``listed_convert`` at L: the
    presentation, its form and, from ``d3_values``, a D3Result per
    rotation vector."""
    records = []
    for pres in listed_convert(L, Fraction(smooth_slope) - L.tb):
        form, vectors = listed_linking_matrix(pres), enumerate_rotations(pres)
        records.append({"presentation": pres, "form": form,
                        "values": [{"rotations": list(r), "d3": res}
                                   for r, res in zip(vectors, d3_values(form, vectors))]})
    return records


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


def _integer_roots_quadratic(b, c):
    """Integer roots of x^2 + b x + c."""
    disc = b * b - 4 * c
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    return sorted({r // 2 for r in (-b + root, -b - root) if r % 2 == 0})


def solve_d3_equation_by_hand(tb: int, family: str, rots, n_max: int = 20):
    """solve_d3_equation from hand-derived equations over the rotation
    numbers ``rots``, without reading the closed forms.

    With e1 the stabilization sign at -v and e2 at +v, half the difference
    of 4 (d3 - 1) at +v and at -v is i^2 + b i + k^2 - 2k - 1 with
    b = -(k e2 + (k - 2) e1) for +-1 and b = -((k + 1) e2 + (k - 3) e1)
    for +-2.  For +-1/n the difference is a_n n + d_s s + c_0 with the
    coefficients below, solved for n at each s.
    """
    k = -tb
    solutions = []
    if family in ("pm_one", "pm_two"):
        for e1, e2 in product((1, -1), repeat=2):
            if family == "pm_one":
                b = -(k * e2 + e1 * (k - 2))
            else:
                b = -((k + 1) * e2 + e1 * (k - 3))
            for i in _integer_roots_quadratic(b, k * k - 2 * k - 1):
                if i in rots:
                    solutions.append({"family": family, "i": i, "e1": e1, "e2": e2})
        return solutions
    sign_k = (-1) ** k
    for i in rots:
        for e1, e2, j in product((1, -1), repeat=3):
            a_n = (2 * i * i - 2 * (k - 1) * (e1 + e2) * i + 2 * (k - 1) ** 2
                   - 2 * j * sign_k * (i - e1 * (k - 1)))
            d_s = 2 * sign_k * (i - e2 * (k - 1))
            c_0 = 2 * (e1 - e2) * i - 4 + 2 * j * sign_k * (i - e1 * (k - 1))
            for s in range(-(n_max - 1), n_max):
                if a_n == 0:
                    if d_s * s + c_0 == 0:
                        solutions.append({"family": family, "i": i, "e1": e1, "e2": e2,
                                          "j": j, "s": s, "n": "all"})
                    continue
                n, rest = divmod(-(d_s * s + c_0), a_n)
                if rest == 0 and 2 <= n <= n_max and abs(s) < n and (s - n + 1) % 2 == 0:
                    solutions.append({"family": family, "i": i, "e1": e1, "e2": e2,
                                      "j": j, "s": s, "n": n})
    return solutions


def affine_solutions_loop(a_n, d_s, c_0, n_max):
    """``cosmetic._affine_solutions`` by a walk over s, -n_max < s < n_max,
    solving for n at each: the solver's loop before extended Euclid."""
    solutions = []
    for s in range(-(n_max - 1), n_max):
        if a_n == 0:
            if d_s * s + c_0 == 0:
                solutions.append((s, "all"))
            continue
        n, rest = divmod(-(d_s * s + c_0), a_n)
        if rest == 0 and 2 <= n <= n_max and abs(s) < n and (s - n + 1) % 2 == 0:
            solutions.append((s, n))
    return solutions


def solve_one_over_n_loop(tb: int, n_max: int, rots):
    """``solve_d3_equation(tb, "pm_one_over_n", n_max)`` over the rotation
    numbers ``rots``, with the affine coefficients read off the closed
    forms the same way, and each line solved by ``affine_solutions_loop``."""
    k, signs, solutions = -tb, (1, -1), []
    neg_n, pos_n, _, _ = _shifted_d3(k)
    for i in rots:
        for e1, e2, j in product(signs, repeat=3):
            neg_0, neg_1 = (neg_n(n, i, e1, j) for n in (0, 1))
            pos_00, pos_10, pos_01 = (pos_n(n, i, e2, s) for n, s in ((0, 0), (1, 0), (0, 1)))
            c_0 = pos_00 - neg_0
            a_n, d_s = pos_10 - neg_1 - c_0, pos_01 - neg_0 - c_0
            solutions += [{"family": "pm_one_over_n", "i": i, "e1": e1, "e2": e2, "j": j,
                           "s": s, "n": n}
                          for s, n in affine_solutions_loop(a_n, d_s, c_0, n_max)]
    return solutions


def _bezout(a: int, b: int):
    """(x, y) with a x + b y = gcd(a, b) >= 0, by the recursive extended
    Euclid."""
    if b == 0:
        return (1, 0) if a >= 0 else (-1, 0)
    x, y = _bezout(b, a % b)
    return y, x - (a // b) * y


def path_from_infinity(target: Fraction):
    """Minimal path from infinity clockwise to a finite slope, one
    vertex at a time.

    Every vertex after infinity lies at or below the target; the greedy
    step always jumps to the largest admissible neighbour, which is the
    classical continued-fraction pivot construction.
    """
    path = [INF, (math.floor(target), 1)]
    while Fraction(*path[-1]) != target:
        p, q = path[-1]
        gap = target - Fraction(p, q)
        if abs(p * target.denominator - target.numerator * q) == 1:
            path.append(vec(target))
            continue
        x, y = _bezout(q, p)
        # r*q - s*p = 1 gives the family of neighbours above v
        r, s = x, -y
        # smallest s + k q > 0 with v + 1/(q (s + k q)) <= target
        need = Fraction(1, q) / gap
        k = math.ceil((need - s) / q)
        path.append(vec(r + k * p, s + k * q))
    return path


def minimal_path_vertexwise(a: tuple, b: tuple, direction: str = CLOCKWISE):
    """``farey.minimal_path`` built vertex by vertex: move a to infinity,
    take the greedy path there, and move it back."""
    if direction == ANTICLOCKWISE:
        return [neg(v) for v in minimal_path_vertexwise(neg(a), neg(b), CLOCKWISE)]
    p, q = a
    x, y = _bezout(p, q)
    # rows (x, y) and (-q, p) have determinant x p + y q = 1 and send a to
    # infinity; their adjugate ((p, -y), (q, x)) moves the path back
    target = Fraction(x * b[0] + y * b[1], p * b[1] - q * b[0])
    return [vec(p * vn - y * vd, q * vn + x * vd)
            for vn, vd in path_from_infinity(target)]


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
    surgery_path = minimal_path_vertexwise(vec(smooth), (tb, 1), CLOCKWISE)
    vertices = tuple(surgery_path) + tuple((t, 1) for t in range(tb + 1, 1))
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


# ---------------------------------------------------------------------------
# verify's stages one at a time

def closed_form_stage(k_max: int = 20, n_max: int = 20) -> dict:
    """The report of ``regressions.verify``'s closed-form stage with no
    other stage run: the lemma matrices, then the families of each tb,
    their plans made in a dict of that tb's own."""
    rep = closedforms._lemmas(k_max, n_max)
    for tb in range(-1, -k_max - 1, -1):
        closedforms._families(rep, tb, k_max, n_max, {})
    return rep.as_dict()


def csq_by_vector(rep, name, family, value, context):
    """The c1^2 check of ``closedforms._csq`` one full rotation vector at a
    time, as it ran before the check read each plan's arguments over its
    support: c1^2 = num / det against value(DEFAULT_FORMS[name], v, d) by
    cross-multiplication, at each shift d of ``family`` = (plan, shifts)
    and each vector v of plan.rotations(0), ``value`` adding d on the
    push-off coordinates it reads; a mismatch's ``context`` is read off
    the shifted vector.  A family of None has no check."""
    if family is None:
        return
    plan, shifts = family
    form, det = closedforms.DEFAULT_FORMS[name], plan.det
    vectors = list(plan.rotations(0))
    for d in shifts:
        nums = invariants.c1_numerators(plan, d)
        for v, shifted, num in zip(vectors, plan.rotations(d), nums):
            want = value(form, v, d)
            if want * det != num:
                rep._mismatch(name, context(shifted), want, Fraction(num, det), plan.form)
        rep.checks += len(nums)


def closed_form_sweep(k_max: int = 20, n_max: int = 20) -> dict:
    """The report of ``regressions.verify``'s closed-form stage with each
    c1^2 checked by ``csq_by_vector``, through a value function per family
    that reads the full vector: the lemma matrices and each family's
    per-form checks are the library's (``closedforms._family``)."""
    cf = closedforms
    rep = cf._lemmas(k_max, n_max)

    def family(tag, context, tb, slope, plans, entries=(), negdef=False):
        rots = rot_range(tb)[::-1]
        top = LegendrianData(tb, rots[0]), [i - rots[0] for i in rots]
        return cf._family(rep, cf._names(tag), context, top, slope, plans,
                          cf._entries(tag, entries), negdef)

    for tb in range(-1, -k_max - 1, -1):
        plans, k = {}, -tb
        if tb == -1:
            for n in range(2, n_max + 1):
                csq_by_vector(rep, "tb1_neg_csq", family("tb1_neg", {"n": n}, -1, Fraction(-1, n),
                                                         plans),
                              lambda form, v, d: form(n),
                              lambda v: {"n": n} if n == 2 else {"n": n, "stab": v[2]})
            for n in range(1, n_max + 1):
                csq_by_vector(rep, "tb1_pos_csq", family("tb1_pos", {"n": n}, -1, Fraction(1, n),
                                                         plans),
                              lambda form, v, d: form(n, v[1] + d), lambda v: {"n": n, "rho": v[1]})
        elif tb == -2:
            for n in range(1, n_max + 1):
                csq_by_vector(rep, "tb2_neg_csq",
                              family("tb2_neg", {"n": n}, -2, Fraction(-1, n), plans,
                                     cf._LEADING if n >= 2 else (), negdef=True),
                              lambda form, v, d: form(n, v[0] + d, v[1] + d if n >= 2 else 0),
                              lambda v: {"n": n, "i": v[0], "j": v[1]} if n >= 2
                              else {"n": n, "i": v[0]})
            for n in range(1, n_max + 1):
                csq_by_vector(rep, "tb2_pos_csq", family("tb2_pos", {"n": n}, -2, Fraction(1, n),
                                                         plans),
                              lambda form, v, d: form(n, v[0] + d, v[1] + d, v[2]),
                              lambda v: {"n": n, "i": v[0], "rho2": v[1], "s": v[2]})
        else:
            for sign, tag in ((-1, "two_neg"), (1, "two_pos")):
                csq_by_vector(rep, f"{tag}_csq",
                              family(tag, {"k": k}, -k, Fraction(2 * sign), plans, cf._LEADING,
                                     negdef=sign == -1),
                              lambda form, v, d: form(k, v[0] + d, v[1] - v[0] if len(v) > 1
                                                      else 1),
                              lambda v: {"k": k, "i": v[0], "e": v[1] - v[0]} if len(v) > 1
                              else {"k": k, "i": v[0]})
            for n in range(1, n_max + 1):
                context = {"k": k, "n": n}
                csq_by_vector(rep, "one_neg_csq",
                              family("one_neg", context, -k, Fraction(-1, n), plans,
                                     cf._LEADING + (("q1k", k - 1, 0), ("q2k", k - 1, 1),
                                                    ("qkk", k - 1, k - 1)), negdef=True),
                              lambda form, v, d: form(k, n, v[0] + d, v[1] - v[0],
                                                      v[k - 1] if n >= 2 else 0),
                              lambda v: {**context, "i": v[0], "e": v[1] - v[0], "j": v[k - 1]}
                              if n >= 2 else {**context, "i": v[0], "e": v[1] - v[0]})
            for n in range(1, n_max + 1):
                context = {"k": k, "n": n}
                csq_by_vector(rep, "one_pos_csq",
                              family("one_pos", context, -k, Fraction(1, n), plans,
                                     cf._LEADING + (("q1last", k, 0), ("q2last", k, 1),
                                                    ("qlastlast", k, k))),
                              lambda form, v, d: form(k, n, v[0] + d, v[1] - v[0], v[k]),
                              lambda v: {**context, "i": v[0], "e": v[1] - v[0], "s": v[k]})
    return rep.as_dict()


def regression_stage(n_max: int) -> list:
    """The (ok, context) of each d3 regression cell with no other stage
    run, the cells of each tb planned in a dict of their own."""
    return [result for tb in (-1, -2, -3) for result in regressions._check_cells(tb, n_max, {})]
