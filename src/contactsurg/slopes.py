"""Exact slope arithmetic for surgery coefficients.

Slopes are reduced rationals p/q together with the point at infinity,
which is represented as (1, 0).  Negative denominators are normalized by
moving the sign to the numerator, so 3/2 and -3/-2 are the same value.

The module also provides negative continued fractions (all coefficients
<= -2, the unique expansion of a rational < -1) by one Euclid,
``neg_cf_runs``, which codes a run of -2 terms as one entry: both the
(+1/-1) presentations of ``surgery`` and the Farey paths of ``farey``
read their terms from it.  It also provides modular inverses,
canonical representatives of Rolfsen-twist orbits on the unknot, and
the set of surgery coefficients on the unknot producing a fixed lens
space.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class SlopeError(ValueError):
    """Domain error in slope arithmetic (zero or infinite slope, etc.)."""


class Slope:
    """A reduced rational slope p/q, or infinity as (1, 0)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, Slope):
            num, den = num.num, num.den * den
        if isinstance(num, Fraction):
            num, den = num.numerator, num.denominator * den
        num = int(num)
        den = int(den)
        if den == 0:
            if num == 0:
                raise SlopeError("0/0 is not a slope")
            num = 1
        else:
            g = math.gcd(num, den)
            num //= g
            den //= g
            if den < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("Slope is immutable")

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinite:
            raise SlopeError("infinite slope has no rational value")
        return Fraction(self.num, self.den)

    def __eq__(self, other):
        if isinstance(other, Slope):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return not self.is_infinite and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def _cmp_key(self):
        if self.is_infinite:
            raise SlopeError("infinite slope is not ordered")
        return self.as_fraction()

    def __lt__(self, other):
        other = other.as_fraction() if isinstance(other, Slope) else Fraction(other)
        return self._cmp_key() < other

    def __le__(self, other):
        other = other.as_fraction() if isinstance(other, Slope) else Fraction(other)
        return self._cmp_key() <= other

    def __neg__(self):
        return Slope(-self.num, self.den) if not self.is_infinite else self

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"Slope({self})"


INFINITY = Slope(1, 0)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_slope(text: str) -> Slope:
    """Parse 'p/q', 'p', or 'inf' into a Slope; other text raises SlopeError."""
    text = text.strip()
    if text in ("inf", "oo", "infinity"):
        return INFINITY
    parts = text.split("/")
    # plain ASCII digits only: int() would also take "1_0" or " 3"
    if len(parts) > 2 or not all(_INTEGER.fullmatch(x) for x in parts):
        raise SlopeError(f"malformed slope {text!r}: expected p/q, p or inf")
    return Slope(*(int(x) for x in parts))


def neg_cf_runs(p: int, q: int) -> list:
    """Negative continued fraction of p/q < -1 (q > 0), run-length coded.

    The expansion p/q = c1 - 1/(c2 - 1/(... - 1/cn)) with every ci <= -2
    is unique.  It is returned as [(c, m), ...]: a run of m terms of -2
    is one entry, and every other term c <= -3 is an entry (c, 1) of its
    own.  Terms of -3 or less at least double the continuants, so there
    are O(log q) entries, and each is found in one floor division.
    """
    if q <= 0:
        raise SlopeError(f"negative continued fraction needs a positive "
                         f"denominator, got {p}/{q}")
    if p >= -q:
        raise SlopeError(f"negative continued fraction requires r < -1, "
                         f"got {Fraction(p, q)}")
    # Euclid on p/q: the term is c = floor(p/q), and p/q - c = rem/q gives
    # the next p/q = -q/rem while rem != 0.  A term of -2 (d = -p - q <= q)
    # keeps d and takes d off q, so a run of them ends at q mod d.
    runs = []
    while q:
        d = -p - q
        if d > q:
            c = p // q
            runs.append((c, 1))
            p, q = -q, p - c * q
        else:
            m = q // d
            runs.append((-2, m))
            q -= m * d
            p = -q - d
    return runs


def mod_inverse(q: int, p: int):
    """Inverse of q mod p in [1, p-1], or None when gcd(q, p) != 1.

    For the degenerate modulus p = 1 the inverse is 0 (everything is
    congruent mod 1), which keeps the double-inverse involution exact.
    """
    if p < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(q, p) != 1:
        return None
    return pow(q, -1, p)


def canonical_slope(r: Slope) -> Slope:
    """The unique member of r's Rolfsen-twist orbit that is <= -1.

    Every finite nonzero surgery coefficient on the unknot is equivalent
    to exactly one -p/q with 0 < q <= p.
    """
    r = r if isinstance(r, Slope) else Slope(r)
    if r.is_infinite or r.num == 0:
        raise SlopeError("canonical form needs a finite nonzero slope")
    a, b = r.num, r.den
    p = abs(a)
    if a < 0:
        q = (b - 1) % p + 1
        return Slope(-p, q)
    q = b % p - p
    return Slope(p, q)


def lens_parameters(r: Slope):
    """Lens space L(p, q) produced by r-surgery on the unknot.

    Writes r = -p/q with p >= 0 and returns (p, q mod p); p = 1 gives the
    three-sphere and p = 0 the S1 x S2 case, reported as (1, 0) and
    (0, 1).
    """
    r = r if isinstance(r, Slope) else Slope(r)
    if r.is_infinite:
        raise SlopeError("infinity surgery gives back the three-sphere")
    a, b = r.num, r.den
    if a == 0:
        return (0, 1)
    if a < 0:
        p, q = -a, b
    else:
        p, q = a, -b
    return (p, q % p)


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


def cs_set(p: int, q: int, den_bound: int):
    """Surgery coefficients on the unknot giving the lens space of -p/q.

    For canonical -p/q the set consists of -p/(q + np) and -p/(qbar + np)
    over all integers n, where qbar inverts q mod p.  The set is
    infinite; returns its members -p/q' with 0 < |q'| <= den_bound,
    sorted.
    """
    if p < 1 or not (0 < q <= p) or math.gcd(p, q) != 1:
        raise SlopeError(f"p={p}, q={q}: -p/q is not a canonical surgery "
                         "coefficient (needs 0 < q <= p, gcd(p, q) = 1)")
    if den_bound < 1:
        raise ValueError("denominator bound must be positive")
    seen = set()
    for start in {q, mod_inverse(q, p)}:
        n0 = (-den_bound - start) // p
        qq = start + n0 * p
        while qq <= den_bound:
            if qq != 0 and qq >= -den_bound:
                seen.add(Slope(-p, qq))
            qq += p
    return sorted(seen, key=lambda s: s.as_fraction())
