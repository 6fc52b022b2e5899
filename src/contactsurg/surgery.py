"""Contact (r)-surgery as sequences of contact (+1/-1)-surgeries.

A contact r-surgery on a Legendrian knot L (r the contact-frame
coefficient; the smooth coefficient is tb(L) + r) is realized by
(+1/-1)-surgeries on a link built from push-offs of L and a chain of
meridian unknots.  For r < 0 the smooth coefficient s = tb + r < -1 has
a negative continued fraction [c1, ..., cn]; L gets |c1 + 1 - tb|
stabilizations and the i-th chain unknot has tb = c_i + 1, all with
contact -1.  For r = p/q > 0 there are k push-offs with contact +1,
where k is minimal with q - kp <= 0; when q - kp < 0 the remaining
coefficient p/(q - kp) < 0 is handled by the negative case on one more
push-off, and when q - kp = 0 the k push-offs complete the surgery.  The
m + 1 presentations differ only in the stabilized push-off's rotation
number, so the pipeline builds one (``_presentation``), whose push-off
holds them all as a range.  It is built as integers, one list
multiplication per run of the continued fraction (``neg_cf_runs``; no
other library code reads it).

Orientations are fixed so that push-off pairs link with lk = tb(L) and
consecutive meridian chain components contribute -1 off-diagonal
entries; this is the unique convention reproducing the intersection
forms of all the worked (tb, slope) cases.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .linalg import _Path
from .slopes import SlopeError, neg_cf_runs


class ContactZeroError(SlopeError):
    """Contact (0)-surgery is not well-defined."""


@dataclass(frozen=True)
class LegendrianData:
    """A Legendrian knot given by its classical invariants, with the
    concordance invariant tau of its knot type when the caller knows it."""

    tb: int
    rot: int
    tau: int | None = None

    def __post_init__(self):
        if (self.rot - self.tb - 1) % 2 != 0:
            raise ValueError("rot must be congruent to tb + 1 mod 2")
        if self.tau is not None and self.tb + abs(self.rot) > 2 * self.tau - 1:
            raise ValueError("tb + |rot| exceeds the 2 tau - 1 bound")


@dataclass
class SurgeryPresentation:
    """The one record of a presentation: the ``linalg._Path`` of its
    linking form, the rotation numbers each row may take, ``pinned`` 1 on
    the push-offs (the first rows) and 0 on the chain, the count l of
    contact (+1) components (the first l) and the knot's tb and rot.
    Reports write the matrix straight from the path, row by row
    (``linalg._band``)."""

    path: _Path
    choices: list
    pinned: tuple
    l: int
    base_tb: int
    base_rot: int


def rot_range(tb: int) -> list:
    """Rotation numbers allowed by tb + |rot| <= -1 with rot = tb + 1
    mod 2, ascending: tb + 1, tb + 3, ..., -tb - 1.  These are the
    rotation numbers of Legendrian unknots with this tb, and those of
    any knot with tau = 0."""
    if tb > -1:
        raise ValueError(f"tb + |rot| <= -1 admits no rotation number at tb = {tb}")
    return list(range(tb + 1, -tb, 2))


def _negative_chain(tb: int, rot: int, p: int, q: int) -> tuple:
    """(framings, choices) of the knot, stabilized m = tb - c1 - 1 times,
    then the meridian chain, for a negative contact coefficient p/q (q > 0,
    in lowest terms) on a knot (tb, rot): the terms c1, c2, ... of the
    smooth slope (tb q + p)/q, c1 the knot's.  Its rotation numbers are
    the range rot + m, rot + m - 2, ..., rot - m, and a chain unknot of
    framing c (tb c + 1) takes -c - 2, -c - 4, ..., c + 2."""
    s = tb * q + p
    if s >= -q:
        raise SlopeError(f"tb={tb}, contact coefficient {Fraction(p, q)}: negative-coefficient "
                         f"conversion needs smooth slope < -1, got {Fraction(s, q)}")
    runs = neg_cf_runs(s, q)
    m = tb - runs[0][0] - 1
    if m < 0:
        raise ValueError(f"negative-coefficient conversion needs a negative contact "
                         f"coefficient, got {Fraction(p, q)}")
    for count, what in ((m + 1, "presentations"), (sum(k for _, k in runs) - 1, "chain unknots")):
        if count > sys.maxsize:
            raise SlopeError(f"tb={tb}, contact coefficient {Fraction(p, q)}: {count} {what} "
                             f"are more than a list holds ({sys.maxsize})")
    framings, choices = [], []
    for c, k in runs:
        framings += [c] * k
        choices += [tuple(range(-c - 2, c + 1, -2))] * k
    choices[0] = range(rot + m, rot - m - 1, -2)
    return framings, choices


def _presentation(L: LegendrianData, p: int, q: int) -> SurgeryPresentation:
    """The one (+1/-1)-surgery presentation of contact r-surgery on L, for
    r = p/q in lowest terms with q > 0.  Its stabilized push-off, if it has
    one, carries all the rotation numbers its stabilizations allow, as a
    ``range``; the presentations differ only in which one it pins.  The
    push-offs come first and link each other with tb: a clique head when
    there are three or more and tb != 0, else a path.  Each chain component
    links only its predecessor, with -1.  Fractions are made only for error
    texts."""
    if not p:
        raise ContactZeroError("contact (0)-surgery is not well-defined")
    tb = L.tb
    if p < 0:
        k, (framings, choices) = 0, _negative_chain(tb, L.rot, p, q)
    else:
        k = -(-q // p)  # smallest k with q - k p <= 0
        if k > sys.maxsize:
            raise SlopeError(f"tb={tb}, contact coefficient {Fraction(p, q)}: {k} push-offs "
                             f"are more than a list holds ({sys.maxsize})")
        rem = q - k * p
        # the remainder coefficient is -p/-rem, in lowest terms as p/q is, and
        # its smooth slope (tb (-rem) - p)/(-rem) must be < -1
        if rem and tb * -rem - p >= rem:
            tail_coeff = Fraction(p, rem)
            raise SlopeError(
                f"tb={tb}, contact coefficient {Fraction(p, q)} (smooth slope "
                f"{Fraction(tb * q + p, q)}): after {k} push-off{'s' if k > 1 else ''} the "
                f"remainder coefficient {tail_coeff} needs smooth slope < -1, "
                f"got {tb + tail_coeff}")
        framings, choices = _negative_chain(tb, L.rot, -p, -rem) if rem else ([], [])
        framings[:0], choices[:0] = [tb + 1] * k, [(L.rot,)] * k
    n, pushoffs = len(framings), k + (len(framings) > k)
    head = (pushoffs, tb) if pushoffs >= 3 and tb else (0, 0)
    path = _Path(framings, [tb] * (pushoffs - 1) + [-1] * (n - pushoffs), *head)
    return SurgeryPresentation(path, choices, (1,) * pushoffs + (0,) * (n - pushoffs), k,
                               tb, L.rot)
