"""Transports between the alcove model and the path model.

All four transports read an element through one walk over its own fold
(``_transport``).  The walk visits the foldings in primal walk order, which
for a dual element means its positions reversed: a dual element's folded
roots are those of its mirror in the primal model, reversed, so no mirror is
built.  Starting from the velocity v = v0, v0 = lam on a finite chain and
v0 = rho on a window, each folding on beta at level l is crossed at the time
l / <v0, beta^vee> primally and ``end`` - l / <v0, beta^vee> dually, where
``end`` is 1 on a finite chain and 0 on a window, and crossing it drops v by
<v0, beta^vee> gamma, gamma the folded root there.  Every crossing time
is an integer tick over the lcm of the gaps <v0, beta^vee>, so the walk
builds the path's integer form with no ``Fraction``.

``varpi`` is minus the integral of v over [0, 1], a path whose raising and
lowering swap with the element's and whose weight is the element's negated.
``varpi_infinity`` starts on the incoming rho-ray at the first crossing and
follows plus the integral of v up to time 0: the path every projection of
the element onto a finite crystal of k rho gives once slowed down by k, for
every admissible k.  ``varpi_dual`` and ``varpi_dual_infinity`` dualize the
primal result, which lands the image among paths of the opposite sign.
``crystalgraph.check_dual_iso`` checks that a transport is a dual
isomorphism between two enumerated crystal graphs.
"""

from __future__ import annotations

from math import lcm

from .alcove import _canonical
from .littelmann import PLPath, dualize
from .rootsys import pairing

__all__ = [
    "varpi",
    "varpi_dual",
    "varpi_dual_infinity",
    "varpi_infinity",
]


def _transport(el) -> PLPath:
    """The primal path image of an element: finite on a chain, co-extended on
    a window, the foldings walked in primal walk order (see the module
    docstring).  ValueError if the element is not admissible or its
    crossing times decrease.  The path is built in integer form over the
    lcm of the gaps <v0, beta^vee>, so each crossing time is an integer
    tick, with no ``Fraction``; ``from_vertices`` divides out the common
    factor."""
    el = _canonical(el)
    chain, rs, dual = el.chain, el.rs, el.is_dual
    v0 = rs.rho if chain.is_window else tuple(chain.lam)
    end = 0 if chain.is_window else 1
    folded = el.fold.roots
    gaps, crossings, drops = [], [], []
    for p in reversed(el.positions) if dual else el.positions:
        entry = chain.entries[p]
        gap = pairing(v0, entry.root)
        gaps.append(gap)
        crossings.append(end * gap - entry.level if dual else entry.level)  # time * gap
        drops.append(tuple(gap * c for c in rs.root_weights[folded[p]]))
    den = lcm(*gaps)
    ticks = [c * (den // gap) for c, gap in zip(crossings, gaps)]

    if chain.is_window:
        # on the incoming ray up to the first crossing, then +v up to time 0
        kind, sign, start = "co-extended", 1, ticks[0] if ticks else 0
        ticks.append(0)
    else:
        kind, sign, start = "finite", -1, 0
        ticks.append(den)
    times, points, v = [start], [(start,) * rs.rank], v0
    for j, tick in enumerate(ticks):
        if tick != times[-1]:  # from_vertices refuses a tick earlier than the last
            dt = sign * (tick - times[-1])
            points.append(tuple(c + x * dt for c, x in zip(points[-1], v)))
            times.append(tick)
        if j < len(drops):
            v = tuple(x - d for x, d in zip(v, drops[j]))
    return PLPath.from_vertices(rs, kind, den, times, points)


def varpi(el) -> PLPath:
    """Path image of a finite alcove element: minus the integral of the
    velocity, which starts at the chain weight lam and drops at each
    folding's crossing time (``_transport``)."""
    if el.is_window or el.is_dual:
        raise ValueError("varpi expects an element over a finite primal chain")
    return _transport(el)


def varpi_dual(el) -> PLPath:
    """Path image of a finite dual alcove element: the dual chain lists the
    same hyperplanes in reversed order, so the walk reads the foldings
    backwards, and dualizing its path lands the image among paths of the
    opposite sign."""
    if el.is_window or not el.is_dual:
        raise ValueError("varpi_dual expects an element over a finite dual chain")
    return dualize(_transport(el))


def varpi_infinity(el) -> PLPath:
    """Co-extended path image of an element of the unbounded model: the
    incoming rho-ray up to the first crossing, then the integral of the
    velocity up to time 0 (``_transport``)."""
    if not el.is_window or el.is_dual:
        raise ValueError("varpi_infinity expects an element over the primal window")
    return _transport(el)


def varpi_dual_infinity(el) -> PLPath:
    """Extended path image of an element of the unbounded dual model: the
    walk reads the foldings backwards onto the incoming rho-ray, and
    dualizing that path gives the image, which merges into the outgoing
    rho-ray."""
    if not el.is_window or not el.is_dual:
        raise ValueError("varpi_dual_infinity expects an element over the dual window")
    return dualize(_transport(el))

