"""Exact slope arithmetic for surgery coefficients.

Finite slopes are ``Fraction``s.  The slope at infinity has no rational
value, and ``parse_slope`` rejects it.

The module also provides negative continued fractions (all coefficients
<= -2, the unique expansion of a rational < -1) by one Euclid,
``neg_cf_runs``, which codes a run of -2 terms as one entry: the
(+1/-1) presentations of ``surgery`` read their terms from it.  It also
provides canonical representatives of Rolfsen-twist orbits on the
unknot, the lens space L(p, q) of a surgery on the unknot, and the set
of surgery coefficients on the unknot producing a fixed lens space.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain


class SlopeError(ValueError):
    """Domain error in slope arithmetic (zero or infinite slope, etc.)."""


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_slope(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into a Fraction.

    'inf', 'oo', 'infinity' and p/0 name the slope at infinity, which
    has no rational value: they raise SlopeError, as do 0/0 and any
    other text.
    """
    text = text.strip()
    if text in ("inf", "oo", "infinity"):
        raise SlopeError("infinite slope has no rational value")
    parts = text.split("/")
    # plain ASCII digits only: int() would also take "1_0" or " 3"
    if len(parts) > 2 or not all(_INTEGER.fullmatch(x) for x in parts):
        raise SlopeError(f"malformed slope {text!r}: expected p/q or p")
    num, den = (int(x) for x in parts) if len(parts) == 2 else (int(text), 1)
    if den == 0:
        raise SlopeError("infinite slope has no rational value" if num else "0/0 is not a slope")
    return Fraction(num, den)


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


def canonical_slope(r: Fraction) -> Fraction:
    """The unique member of r's Rolfsen-twist orbit that is <= -1.

    Every nonzero surgery coefficient r (a Fraction) on the unknot is
    equivalent to exactly one -p/q with 0 < q <= p, returned as a
    Fraction.
    """
    if r == 0:
        raise SlopeError("canonical form needs a finite nonzero slope")
    # twisting p/q gives p/(q + n|p|): the denominator moves mod p
    p, b = abs(r.numerator), r.denominator
    return Fraction(-p, (b - 1) % p + 1 if r < 0 else p - b % p)


def lens_parameters(r: Fraction):
    """Lens space L(p, q) produced by r-surgery on the unknot, for a
    Fraction r.

    Writes r = -p/q with p >= 0 and returns (p, q mod p); p = 1 gives the
    three-sphere and p = 0 the S1 x S2 case, reported as (1, 0) and
    (0, 1).
    """
    a, b = r.numerator, r.denominator
    if a == 0:
        return (0, 1)
    return (abs(a), (b if a < 0 else -b) % abs(a))


def _cs_set_dens(p: int, q: int, den_bound: int) -> list:
    """The q' of the members -p/q' of ``cs_set``, in its order, as ints.

    The q' are the residue classes of q and qbar mod p, two ascending
    progressions on each side of 0, merged as ints.  -p/q' increases
    with q' on each side, and every q' > 0 gives a negative member, so
    the members come in value order as the q' > 0, then the q' < 0.
    """
    if p < 1 or not (0 < q <= p) or math.gcd(p, q) != 1:
        raise SlopeError(f"p={p}, q={q}: -p/q is not a canonical surgery "
                         "coefficient (needs 0 < q <= p, gcd(p, q) = 1)")
    if den_bound < 1:
        raise ValueError("denominator bound must be positive")
    starts = {q % p, pow(q, -1, p)}
    # each class from its first q' > 0, then from its first q' >= -den_bound;
    # sorted merges the two ascending runs of a side in one pass
    dens = sorted(chain.from_iterable(range((s - 1) % p + 1, den_bound + 1, p)
                                      for s in starts))
    dens += sorted(chain.from_iterable(range(-den_bound + (s + den_bound) % p, 0, p)
                                       for s in starts))
    return dens


def cs_set(p: int, q: int, den_bound: int):
    """Surgery coefficients on the unknot giving the lens space of -p/q.

    For canonical -p/q the set consists of -p/(q + np) and -p/(qbar + np)
    over all integers n, where qbar inverts q mod p.  The set is
    infinite; returns its members -p/q' with 0 < |q'| <= den_bound, as
    Fractions sorted by value (``_cs_set_dens`` lists the q').
    """
    return [Fraction(-p, d) for d in _cs_set_dens(p, q, den_bound)]
