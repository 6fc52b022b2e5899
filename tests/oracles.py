"""Independent references for the functions of the library, one each.

The rule: every function of ``src/contactsurg`` is checked against one
reference here that shares no method with it, plus sympy where sympy
applies.  A reference that guards no library function goes, with the
tests that compared it with other references.  Two references for one
function stay only where each covers inputs the other cannot: the unknot
count by enumerating decorations (small slopes) and by the merge cascade
(slopes of 10^12, knots of tb -10^6), and the lens count as Honda's
product over ``neg_cf_runs`` (any int p and q, errors too), as
sign-shuffle classes over the vertex-by-vertex path (small p) and over
the block edge counts ``_runs`` reads (p of 100 digits).  The block path
the cascade reads, ``minimal_path_blocks``, has two references of its
own: breadth-first search (small denominators, and the only check that
it is shortest and unique) and vertex by vertex (any denominator).
``python tests/reach.py`` shows which tests call which library function through
which reference, and fails if a library function is called by no test;
``python tests/mutants.py`` runs the named mutants of ``src/`` against
the tests that must kill them.

The references, each slow but plainly right: negative continued
fractions one term at a time, Rolfsen twists and the lens-space
classification; the conversion as one presentation per stabilization
outcome, built a component at a time, its form entry by entry, and the
smooth slope recovered by slam-dunks; Honda's lens count over the
runs of the negative continued fraction; the minimal Farey path as its
continued-fraction blocks, vertex by vertex with its own extended Euclid
and by search, decorated paths, their block classes and the shortening
move; one sparse fraction-free
symmetric elimination for the determinant, signature and adjugate blocks
of a symmetric matrix of any shape, and Berkowitz's characteristic
polynomial of any square matrix, its constant term the determinant; d3
one rotation vector at a time; the d3-equality equations with
hand-derived coefficients and the affine line solved by a walk over s;
the intersection-form families built by hand; verify's stages each run
alone, the c1^2 check one full vector at a time, and scan's spectra one
knot at a time.  Helpers live here too: slopes as reduced vectors, the
lemma matrices and other sparse rows, their symmetry check and their
reading into a ``linalg._Path``.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from operator import add, sub
from typing import NamedTuple

from contactsurg import closedforms, invariants, linalg, regressions
from contactsurg.invariants import NonTorsionEulerClassError, d3_spectrum
from contactsurg.slopes import SlopeError, neg_cf_runs, parse_slope
from contactsurg.surgery import ContactZeroError, LegendrianData, rot_range


# ---------------------------------------------------------------------------
# slope calculus

# Farey vertices are the reduced vectors ``minimal_path_blocks`` takes:
# (p, q) with q > 0 for p/q, and (1, 0) for infinity
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
    (p, q), (p2, q2) = a, b
    return p == p2 and (p <= 1 or (q - q2) % p == 0 or q * q2 % p == 1)


def cs_set_by_search(p: int, q: int, den_bound: int) -> list:
    """``slopes.cs_set`` by search: every -p/d, 0 < |d| <= den_bound and
    gcd(p, d) = 1, whose lens space L(p, d mod p) is L(p, q) by
    ``same_lens_space``, as Fractions sorted by value."""
    return sorted(Fraction(-p, d) for d in range(-den_bound, den_bound + 1)
                  if d and math.gcd(p, d) == 1 and same_lens_space((p, d % p), (p, q % p)))


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
class Component:
    """One link component of a listed presentation: role 'pushoff' (a
    copy of the base knot, possibly stabilized) or 'chain' (a meridian
    unknot), its tb, its contact sign and its rotation number, None for a
    chain unknot, whose rotation number is a free choice."""

    role: str
    tb: int
    sign: int
    rot: int | None = None


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


class Form(NamedTuple):
    """Q as the sparse rows of a symmetric matrix of any shape, with the
    count l of (+1)-components: a form for ``d3_values``, where a
    presentation holds only the shapes the path kernel takes."""

    rows: tuple
    l: int

    @property
    def n(self):
        return len(self.rows)


def listed_linking_matrix(pres) -> Form:
    """The form of a listed presentation, its sparse rows built entry by
    entry as the library once built Q: the framings on the diagonal, the
    base tb between any two push-offs, and -1 between each chain unknot
    and the component before it; a zero entry is not stored."""
    comps = pres.components
    rows = [{} for _ in comps]

    def put(i, j, x):
        if x:
            rows[i][j] = rows[j][i] = x

    pushoffs = [i for i, c in enumerate(comps) if c.role == "pushoff"]
    for i, c in enumerate(comps):
        put(i, i, framing(c))
    for k, i in enumerate(pushoffs):
        for j in pushoffs[k + 1:]:
            put(i, j, pres.base_tb)
    prev = pushoffs[-1] if pushoffs else None
    for i, c in enumerate(comps):
        if c.role == "chain":
            if prev is None:
                raise ValueError("chain component without a predecessor")
            put(i, prev, -1)
            prev = i
    return Form(tuple(rows), pres.l)


# ---------------------------------------------------------------------------
# conversion as a list: one presentation built per stabilization outcome,
# each with its rotation number pinned; ``surgery._presentation`` builds
# them as one

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
# infinity; ``minimal_path_blocks`` builds clockwise paths only, and an
# anticlockwise path from a to b is the reflection p -> -p of the clockwise
# one from -a to -b
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
    clockwise to b, in O(log) of the endpoints: the reference that the
    merge cascade reads.  Each endpoint is a reduced vector (num, den):
    den > 0, or (1, 0) for infinity.

    All intermediate vertices lie strictly inside the clockwise arc from
    a to b, and among such paths this one has the fewest edges.  The
    blocks are placed from ``_runs`` in the path's ``_frame`` and carried
    back by a determinant +1 map, which keeps arithmetic progressions."""
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


def minimal_path(a: tuple, b: tuple, direction: str = CLOCKWISE):
    """The vertices of the minimal path from a to b in ``direction``, from
    ``minimal_path_blocks`` (reflected, for an anticlockwise path)."""
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


def cf_blocks(path) -> list:
    """Partition of the edges of a minimal path into continued-fraction
    blocks: edges e_i and e_{i+1} share a block exactly when the outer
    vertices satisfy |det| = 2."""
    verts = path.vertices if isinstance(path, DecoratedFareyPath) else tuple(path)
    blocks = [[0]]
    for i in range(1, len(verts) - 1):
        det = abs(_det(verts[i - 1], verts[i + 1]))
        if det == 1:
            raise ValueError("continued-fraction blocks require a minimal path")
        if det == 2:
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


def sign_class_count(vertices, unsigned_positions) -> int:
    """Decorated paths on the minimal path ``vertices`` up to shuffles of
    the signs inside each block (``cf_blocks``), the edges at
    ``unsigned_positions`` unsigned: a block of s signed edges gives a
    factor s + 1.  It reads each edge, where ``_classes`` reads only the
    block sizes."""
    return math.prod(1 + sum(i not in unsigned_positions for i in block)
                     for block in cf_blocks(vertices))


def _edges(a: tuple, b: tuple) -> list:
    """The edge count of each block of the minimal clockwise path from a
    to b, reduced vectors as ``minimal_path_blocks`` takes them, read off
    ``_runs`` in the path's frame with no vertex built."""
    return [edges for edges, _ in _runs(*_frame(a, b)[0])]


def _classes(edges: list, first: int, last: int) -> int:
    """Decorated paths up to shuffles of the signs inside each block,
    from the edge count of each block, when the first ``first`` and the
    last ``last`` edges are unsigned: a block with s signed edges
    contributes a factor s + 1.  ``_classes(_edges((-p, q), (0, 1)), 1,
    1)`` is the Farey-side tight count on L(p, q), which Honda's product
    in ``count_tight_lens_pq`` equals."""
    hi, total, offset = sum(edges) - last, 1, 0
    for n in edges:
        # the block's signed edges are start, ..., end - 1
        start = offset if offset > first else first
        offset += n
        end = offset if offset < hi else hi
        if end > start:
            total *= end - start + 1
    return total


def honda_product(p: int, q: int) -> int:
    """``farey.count_tight_lens_pq`` as Honda's product of -c - 1 over the
    terms c of ``neg_cf_runs(-p, q)``, the runs of -2 skipped (each a
    factor 1), coprimality by ``math.gcd``: the same values and the same
    errors for any int p and q."""
    if p < 1:
        raise ValueError("lens space needs p >= 1")
    q %= p
    if p == 1:
        return 1
    if q == 0 or math.gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}) is not a lens space")
    return math.prod(-c - 1 for c, _ in neg_cf_runs(-p, q) if c != -2)


# ---------------------------------------------------------------------------
# intersection-form families, derived by hand: the reference for the forms
# that ``surgery._presentation`` builds

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


def sparse(rows):
    """The sparse rows of a square matrix given as dense rows, such as the
    rows ``linalg.dense`` makes of a path."""
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
    ValueError.  ``read(sparse(linalg.dense(path)))`` is ``path``."""
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


def char_poly(rows):
    """det(x*I - A), descending, of any square integer matrix A of sparse
    ``rows``, by ``berkowitz`` on the whole matrix."""
    return berkowitz(rows)[::-1]


def determinant(rows) -> int:
    """Exact determinant of any square integer matrix (sparse rows),
    (-1)^n chi_A(0) from ``berkowitz``, with no elimination."""
    coeffs = berkowitz(rows)
    return (-1) ** (len(coeffs) - 1) * coeffs[0]


def berkowitz(a):
    """Ascending coefficients of det(x*I - A) (Berkowitz 1984), for any
    square matrix A of sparse rows ``a``: the one characteristic
    polynomial of the tests, sharing nothing with the library's
    continuant and determinant lemma.

    Grows the leading block A_k one vertex v at a time, with column c and
    row r the entries joining v to A_k.  From p = chi(A_k) and
    t_m = r A_k^m c, chi(A_(k+1)) = (x - a_vv) p - sum_j x^j
    sum_(i>j) p_i t_(i-j-1), by the adjugate identity
    adj(x*I - A_k) = sum_j x^j sum_(i>j) p_i A_k^(i-j-1).  Rows are kept
    sparse, so a step costs k matrix-vector products over the nonzeros:
    O(k^4) on a dense block of k rows.
    """
    off = [[(w, x) for w, x in row.items() if w != u] for u, row in enumerate(a)]
    diag = [row.get(u, 0) for u, row in enumerate(a)]
    p = [1]
    for k in range(len(a)):
        col = [a[u].get(k, 0) for u in range(k)]
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
    """The vertices of the minimal path from a to b in ``direction``, the
    reference for ``minimal_path_blocks``, built vertex by vertex:
    move a to infinity, take the greedy path there, and move it back."""
    if direction == ANTICLOCKWISE:
        return [neg(v) for v in minimal_path_vertexwise(neg(a), neg(b), CLOCKWISE)]
    p, q = a
    x, y = _bezout(p, q)
    # rows (x, y) and (-q, p) have determinant x p + y q = 1 and send a to
    # infinity; their adjugate ((p, -y), (q, x)) moves the path back
    target = Fraction(x * b[0] + y * b[1], p * b[1] - q * b[0])
    return [vec(p * vn - y * vd, q * vn + x * vd)
            for vn, vd in path_from_infinity(target)]


def minimal_path_bfs(a: tuple, b: tuple, direction: str = CLOCKWISE):
    """The minimal path from a to b in ``direction`` and the number of
    minimal paths, by breadth-first search over the reduced slopes inside
    the arc with numerator and denominator at most twice the ends'.  The
    small-denominator reference for ``minimal_path_blocks``: it uses
    no continued fraction, so it also checks that the path has the fewest
    edges and is the only one that does."""
    if direction == ANTICLOCKWISE:
        path, ways = minimal_path_bfs(neg(a), neg(b), CLOCKWISE)
        return [neg(v) for v in path], ways
    nums, dens = 2 * (abs(a[0]) + abs(b[0])) + 3, 2 * (a[1] + b[1]) + 3
    verts = [b] + [(p, q) for q in range(dens + 1) for p in range(-nums, nums + 1)
                   if math.gcd(p, q) == 1 and (q or p == 1) and in_clockwise_arc((p, q), a, b)]
    # the minimal paths from a, a level at a time; b out of reach raises KeyError
    paths, level = {a: [[a]]}, [a]
    while level and b not in paths:
        reached = {}
        for u in level:
            for v in verts:
                if v not in paths and is_edge(u, v):
                    reached.setdefault(v, []).extend(path + [v] for path in paths[u])
        paths.update(reached)
        level = list(reached)
    return paths[b][0], len(paths[b])


def shorten(path: DecoratedFareyPath):
    """Shorten a decorated path to minimal length, rescanning from the
    start after every merge.

    Two consecutive edges merge when the outer vertices are themselves
    Farey neighbours.  Merging edges of opposite sign detects an
    overtwisted structure; merging across an unsigned edge is always
    allowed and the merged edge stays unsigned.  Returns the fully
    shortened path and the verdict 'tight' or 'overtwisted'.  Meant for
    monotone concatenations (paths winding clockwise through less than a
    full turn), which is what gluing produces.
    """
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
        shortened, verdict = shorten(DecoratedFareyPath(vertices, dec + comp))
        if verdict == "tight":
            tight += 1
            key = decorated_path_key(shortened)
            fibers[key] = fibers.get(key, 0) + 1
    return tight, fibers


def _junction_cascade(blocks, tb: int):
    """Merges made when the complement path tb, tb + 1, ..., 0 is glued
    after a minimal path with these blocks ending at tb, and shortened.

    Follows the stack pass of the shortening move (merges at the top of a
    stack of path vertices, leftmost first) a block at a time.
    Pushing c_i = tb + i merges the junction edge into c_i when the last
    surviving path vertex x neighbours c_i; then the path loses its last
    vertex for as long as the vertex before it neighbours c_i too.  Along
    a block det(start + j step, c_i) is linear in j, so a block costs
    O(1): its whole tail goes when the step is parallel to c_i, at most
    two vertices otherwise.  Once two complement vertices stand side by
    side (|det| = 2) nothing merges again.  When x is infinity, every
    c_i neighbours it, and the pushes merge straight through to the
    first c_i that the vertex before x neighbours (solving det = +-1).

    Returns the surviving edges of each block and the merged edges in
    merge order, as runs ("path", block, n, edges left in the block) and
    ("complement", i, j) for the edges into c_i, ..., c_j.
    """
    k = -tb
    alive = [block.edges for block in blocks]
    merged = []
    # The last path edge, into tb, is the junction edge until it merges.
    alive[-1] -= 1
    top = len(blocks) - 1 if alive[-1] else len(blocks) - 2

    def vertex(back):
        """The surviving path vertex ``back`` places before the last one."""
        if top < 0:
            return blocks[0].start
        (sn, sd), (wn, wd), _ = blocks[top]
        j = alive[top] - back
        return (sn + j * wn, sd + j * wd)

    def eat(t):
        nonlocal top
        while top >= 0:
            (sn, sd), (wn, wd), _ = blocks[top]
            d0, dw = sn - t * sd, wn - t * wd  # det(vertex j, c) = d0 + j dw
            j = alive[top]
            n = j if dw == 0 and abs(d0) == 1 else 0
            while dw and n < j and abs(d0 + (j - 1 - n) * dw) == 1:
                n += 1
            if n:
                alive[top] -= n
                merged.append(("path", top, n, alive[top]))
            if alive[top]:
                return
            top -= 1

    i = 1
    while i <= k:
        xn, xd = vertex(0)
        if abs(xn - (tb + i) * xd) != 1:
            break
        if not merged:
            merged.append(("path", len(blocks) - 1, 1, alive[-1]))
        stop = i
        if xd == 0:  # x is infinity, never the path's first (finite) vertex
            stop = k + 1
            pn, pd = vertex(1)
            for s in (1, -1):
                if (pn - s) % pd == 0 and i <= (pn - s) // pd - tb < stop:
                    stop = (pn - s) // pd - tb
        if stop > i:
            merged.append(("complement", i, stop - 1))
            i = stop
            continue
        merged.append(("complement", i, i))
        eat(tb + i)
        i += 1
    if not merged:
        alive[-1] += 1
    return alive, merged


def equivalent_count_by_cascade(tb: int, rot: int, contact_coeff) -> int:
    """``cosmetic.equivalent_surgery_count`` by the block-quotient fiber
    argument over the merge cascade (``_junction_cascade``), which the
    closed form sums up.

    A decorated surgery torus is a choice of plus signs per block of the
    minimal path from the smooth slope to tb (first edge unsigned).  It
    is glued to the complement of the Legendrian unknot, the path tb,
    tb + 1, ..., 0 whose last edge is unsigned and whose other -tb - 1
    edges carry the stabilization signs, plus first, summing to rot.
    Blocks the merge cascade leaves alone keep their signs, so distinct
    choices there give distinct tight structures.  Eaten blocks fold
    into the junction edge: signed edges merged before the first
    unsigned one must share one sign (a clash is overtwisted), and after
    it every choice gives the same result.  The fiber size is the
    product over eaten blocks of their tight choices.  As a check, the
    tight decorations must number fiber size x the decorations that the
    surviving edges carry on the lens space's own minimal path.
    """
    contact_coeff = Fraction(contact_coeff)
    smooth = tb + contact_coeff
    if smooth == 0:
        raise SlopeError("zero smooth slope excluded")
    if tb < smooth < 0:
        raise ValueError("overtwisted regime; per-slope counts are tight-only")
    blocks = minimal_path_blocks((smooth.numerator, smooth.denominator), (tb, 1))
    k = -tb
    plus = (k - 1 + rot) // 2
    if not 0 <= plus <= k - 1:
        raise ValueError("rotation number out of range for an unknot")
    alive, merged = _junction_cascade(blocks, tb)

    # signed edges merged before the first unsigned one: per block, and
    # the complement's edges into tb + 1, ..., tb + h
    held, h = {}, 0
    for kind, *run in merged:
        if kind == "path":
            b, n, left = run
            unsigned = b == 0 and left == 0
            held[b] = held.get(b, 0) + n - unsigned
        else:
            h = min(run[1], k - 1)
            unsigned = run[1] == k
        if unsigned:
            break
    # The first merge takes the complement edge into tb + 1, so when two
    # or more edges are held they include a complement sign to match.
    constrained = sum(held.values()) + h > 1
    if constrained and 0 < plus < h:
        raise RuntimeError("no tight decoration found in the tight regime")

    tight = fiber = 1
    for b, block in enumerate(blocks):
        signed = block.edges - (b == 0)
        if alive[b] == block.edges:
            tight *= signed + 1
            continue
        if alive[b] or (constrained and 0 < held.get(b, 0) < signed):
            raise RuntimeError("the merge cascade splits a continued-fraction block")
        choices = 1 if constrained and held.get(b, 0) else signed + 1
        tight *= choices
        fiber *= choices

    edges = _edges((smooth.numerator, smooth.denominator), (0, 1))
    keys = _classes(edges, 1, sum(edges) - sum(alive))
    if tight != fiber * keys:
        raise RuntimeError(f"{tight} tight decorations at smooth slope {smooth}, but "
                           f"fibers of {fiber} over {keys} tight structures")
    return fiber


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
                rep._mismatch(name, context(shifted), want, Fraction(num, det),
                              plan.presentation.path)
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


def spectra_by_knot(knots, slope, plans):
    """``cosmetic._spectra`` one knot at a time, as scan read it before one
    pass read each plan for every rotation number: (side, spectrum) at
    each knot of ``knots``, all of one tb, side = (plan, d, nums, text) of
    ``d3_records`` at the knot, text the d3 string ``str`` gives each
    num's Fraction, one dict for every knot, and the spectrum the set of
    those."""
    text, spectra = {}, []
    for L in knots:
        plan, d, nums, pairs = invariants.d3_records(L, slope, plans)
        for num in pairs.keys() - text.keys():
            a, b = pairs[num]
            text[num] = str(a) if b == 1 else f"{a}/{b}"
        spectra.append(((plan, d, nums, text), set(map(text.__getitem__, pairs))))
    return spectra
