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
holds them all as a range.

Orientations are fixed so that push-off pairs link with lk = tb(L) and
consecutive meridian chain components contribute -1 off-diagonal
entries; this is the unique convention reproducing the intersection
forms of all the worked (tb, slope) cases.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .linalg import _Path, _read, _rows
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


@dataclass(frozen=True)
class Component:
    """One link component of a (+1/-1)-surgery presentation.

    role is 'pushoff' (a copy of the base knot, possibly stabilized) or
    'chain' (a meridian unknot).  rot is None for components whose
    rotation number is a free choice (chain unknots), and the range of
    them for the stabilized push-off of ``_presentation``.
    """

    role: str
    tb: int
    sign: int
    rot: int | None = None

    @property
    def framing(self) -> int:
        return self.tb + self.sign


@dataclass(frozen=True)
class SurgeryPresentation:
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


def rot_range(tb: int) -> list:
    """Rotation numbers allowed by tb + |rot| <= -1 with rot = tb + 1
    mod 2, ascending: tb + 1, tb + 3, ..., -tb - 1.  These are the
    rotation numbers of Legendrian unknots with this tb, and those of
    any knot with tau = 0."""
    if tb > -1:
        raise ValueError(f"tb + |rot| <= -1 admits no rotation number at tb = {tb}")
    return list(range(tb + 1, -tb, 2))


def _negative_chain(tb: int, rot: int, p: int, q: int) -> tuple:
    """The components, stabilized knot then meridian chain, for a negative
    contact coefficient p/q (q > 0, in lowest terms) on a knot with
    invariants (tb, rot).  The m stabilizations shift rot by one of m,
    m - 2, ..., -m: the knot's rot is the range of those rotation numbers,
    in that order.  The smooth slope is s/q with s = tb q + p, in lowest
    terms as p/q is."""
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
    # the knot, then the chain terms after the first, one shared (immutable) Component per run
    chain = [Component("pushoff", tb - m, -1, rot=range(rot + m, rot - m - 1, -2))]
    for c, k in runs:
        chain += [Component("chain", c + 1, -1)] * k
    return tuple(chain[:1] + chain[2:])


def _presentation(L: LegendrianData, contact_coeff) -> SurgeryPresentation:
    """The one (+1/-1)-surgery presentation of contact r-surgery on L.  Its
    stabilized push-off, if it has one, carries all the rotation numbers
    its stabilizations allow, as a ``range`` (shifts m, m - 2, ..., -m);
    the presentations differ only in which one it pins.  The slope tests
    run on integers; Fractions are made only for the presentation's
    fields and for error texts."""
    if type(contact_coeff) is not Fraction:
        contact_coeff = Fraction(contact_coeff)
    p, q = contact_coeff.numerator, contact_coeff.denominator
    if not p:
        raise ContactZeroError("contact (0)-surgery is not well-defined")
    smooth = Fraction(L.tb * q + p, q)
    if p < 0:
        comps = _negative_chain(L.tb, L.rot, p, q)
        return SurgeryPresentation(comps, L.tb, L.rot, contact_coeff, smooth)
    k = -(-q // p)  # smallest k with q - k p <= 0
    if k > sys.maxsize:
        raise SlopeError(f"tb={L.tb}, contact coefficient {contact_coeff}: {k} push-offs "
                         f"are more than a list holds ({sys.maxsize})")
    rem = q - k * p
    comps = (Component("pushoff", L.tb, 1, rot=L.rot),) * k  # one shared (immutable) Component
    if rem:
        # the remainder coefficient is -p/-rem, in lowest terms as p/q is, and
        # its smooth slope (tb (-rem) - p)/(-rem) must be < -1
        if L.tb * -rem - p >= rem:
            tail_coeff = Fraction(p, rem)
            raise SlopeError(
                f"tb={L.tb}, contact coefficient {contact_coeff} (smooth slope {smooth}): "
                f"after {k} push-off{'s' if k > 1 else ''} the remainder coefficient "
                f"{tail_coeff} needs smooth slope < -1, got {L.tb + tail_coeff}")
        comps += _negative_chain(L.tb, L.rot, -p, -rem)
    return SurgeryPresentation(comps, L.tb, L.rot, contact_coeff, smooth)


def rotation_choices(pres: SurgeryPresentation) -> list:
    """The rotation numbers each component may take, in enumeration order:
    a push-off keeps its pinned one (the stabilized push-off its range of
    them), and a chain unknot with tb = -t ranges over t-1, t-3, ..., -t+1
    (``rot_range`` raises for t < 1)."""
    return [c.rot if type(c.rot) is range else (c.rot,) if c.rot is not None
            else tuple(range(-c.tb - 1, c.tb, -2)) if c.tb <= -1 else rot_range(c.tb)
            for c in pres.components]


@dataclass(frozen=True, init=False)
class IntersectionForm:
    """Symmetric linking form Q of a presentation, with the count l of
    (+1)-components.  Q is held as its ``path``, the ``linalg._Path`` of
    its diagonal, links, head size and head link, which ``linking_matrix``
    reads straight off the components.  Q may be given as sparse rows
    instead (row i the dict {j: Q_ij} of its nonzeros), which are checked
    and read into the path once, here.  ``rows`` are built from the path
    on first use: only reports that write the matrix ask for them, and
    ``linalg.dense`` makes dense rows at the edge."""

    path: _Path
    l: int

    def __init__(self, q, l: int):
        if type(q) is not _Path:
            object.__setattr__(self, "rows", tuple(q))
            q = _read(self.rows, "Q")
        object.__setattr__(self, "path", q)
        object.__setattr__(self, "l", l)

    @cached_property
    def rows(self) -> tuple:
        return _rows(self.path)

    @property
    def n(self) -> int:
        return len(self.path.a)


def linking_matrix(pres: SurgeryPresentation) -> IntersectionForm:
    """Intersection form of the trace of the surgeries, read as a path.

    Diagonal entries are the smooth framings tb_i + sign_i.  The p
    push-offs come first and link each other with the base tb: a clique
    head of link tb when p >= 3 and tb != 0, else a path (of zero links at
    tb = 0).  Each chain component links only its predecessor, with -1.
    """
    comps = pres.components
    p = 0
    while p < len(comps) and comps[p].role == "pushoff":
        p += 1
    if any(c.role != "chain" for c in comps[p:]):
        raise ValueError("push-offs must come before the chain")
    if comps and not p:
        raise ValueError("chain component without a predecessor")
    tb = pres.base_tb
    path = _Path([c.framing for c in comps], [tb] * (p - 1) + [-1] * (len(comps) - p),
                 *((p, tb) if p >= 3 and tb else (0, 0)))
    return IntersectionForm(path, pres.l)
