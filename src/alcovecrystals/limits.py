"""Transports between the alcove model and the path model.

The finite transport ``varpi`` reads the folding times of an alcove element
off its chain and the directions off its folded chain, and produces a
piecewise linear path; it swaps raising with lowering and negates weights.
The dual transports go through their primal twins: ``varpi_dual`` and
``varpi_dual_infinity`` mirror the element into the primal model and
dualize the path image.  ``varpi_infinity`` lifts ``varpi`` to the
unbounded model by projecting onto a finite crystal first and letting the
canonical straightening of rho-rays erase the choice made there.

``verify_dual_iso`` is the audit harness: it replays every defining identity
of a dual isomorphism over an enumerated set of elements and returns a
:class:`~alcovecrystals.crystalgraph.Check`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .alcove import minimal_projection, mirror, project_Spr
from .chains import _integer
from .crystalgraph import Check
from .littelmann import PLPath, dualize, xi_infinity
from .rootsys import pairing

__all__ = [
    "varpi",
    "varpi_dual",
    "varpi_dual_infinity",
    "varpi_infinity",
    "verify_dual_iso",
]


def varpi(el) -> PLPath:
    """Path image of a finite alcove element.

    Each selected hyperplane is crossed at the time given by its level over
    the pairing of the chain weight lam with its coroot.  The direction
    between crossing times is -w(lam), w the product of the reflections
    crossed so far: crossing beta_p drops w(lam) by <lam, beta_p^vee> gamma_p,
    gamma_p the folded root there.  The path is built in integer form over
    the lcm of the crossing-time denominators.
    """
    chain = el.chain
    if chain.is_window or el.is_dual:
        raise ValueError("varpi expects an element over a finite primal chain")
    rs = el.rs
    lam = tuple(chain.lam)
    folded = el.fold.roots
    crossings, drops = [], []
    for p in el.positions:
        entry = chain.entries[p]
        gap = pairing(lam, entry.root)
        crossings.append(Fraction(entry.level, gap))
        drops.append(rs._weight_coords([gap * c for c in rs.roots[folded[p]].coeffs]))
    if any(a > b for a, b in zip(crossings, crossings[1:])):
        raise ValueError("chain entries are not in crossing-time order")
    den = lcm(*(t.denominator for t in crossings))
    ticks = [t.numerator * (den // t.denominator) for t in crossings] + [den]

    times, points = [0], [(0,) * rs.rank]
    v = lam
    for j, tick in enumerate(ticks):
        if tick > times[-1]:
            dt = tick - times[-1]
            points.append(tuple(c - x * dt for c, x in zip(points[-1], v)))
            times.append(tick)
        if j < len(drops):
            v = tuple(x - d for x, d in zip(v, drops[j]))
    return PLPath.from_vertices(rs, "finite", den, times, points)


def varpi_dual(el) -> PLPath:
    """Path image of a finite dual alcove element.

    The dual chain lists the same hyperplanes in reversed order, so the
    element transfers verbatim to the primal chain; the finite transport and
    a path dualization then land it among paths of the opposite sign.
    """
    if el.chain.is_window or not el.is_dual:
        raise ValueError("varpi_dual expects an element over a finite dual chain")
    return dualize(varpi(mirror(el)))


def varpi_infinity(el, copies: int | None = None) -> PLPath:
    """Co-extended path image of an element of the unbounded model.

    The element is projected onto a finite crystal with ``copies`` times the
    dominant-sum weight, transported there, and grafted onto the incoming
    rho-ray.  Any admissible number of copies gives the same canonical path
    because the leading run in the rho direction is absorbed by the ray.
    """
    if not el.chain.is_window or el.is_dual:
        raise ValueError("varpi_infinity expects an element over the primal window")
    rs = el.rs
    if copies is None:
        copies, image = minimal_projection(el)
    else:
        copies = _integer(copies, "copies")
        image = project_Spr(el, copies)
        if image is None:
            raise ValueError(f"no projection onto {copies} copies")
    if copies == 0:
        return xi_infinity(rs)
    # slowed down by ``copies`` and negated, the finite path ends at time 0
    # and starts where the incoming ray is at time -copies
    finite = varpi(image)
    start = copies * finite.den
    return PLPath.from_vertices(
        rs,
        "co-extended",
        finite.den,
        [copies * t - start for t in finite.times],
        [tuple(-start - c for c in p) for p in finite.points],
    )


def varpi_dual_infinity(el, copies: int | None = None) -> PLPath:
    """Extended path image of an element of the unbounded dual model.

    The element's mirror in the primal window is transported by
    ``varpi_infinity`` onto the incoming rho-ray; dualizing that path gives
    the image, which merges into the outgoing rho-ray.
    """
    if not el.chain.is_window or not el.is_dual:
        raise ValueError("varpi_dual_infinity expects an element over the dual window")
    return dualize(varpi_infinity(mirror(el), copies))


def verify_dual_iso(elements, mapping, source_ops, target_ops) -> Check:
    """Check that ``mapping`` is a dual isomorphism on the given elements;
    ``checked`` counts the elements.

    For every element and every direction: lowering must transport to
    raising and vice versa (with undefined matching undefined), the two
    string statistics must trade places, and the weight must flip sign.
    Failures read ``"element: property"``, the element as its ``repr``.
    """
    if source_ops.rs != target_ops.rs:
        raise ValueError("source and target live over different root systems")
    elements = list(elements)
    failures = []
    image_of = cache(mapping)  # each element is mapped once however often it is met

    for b in elements:
        image = image_of(b)
        wt = source_ops.weight(b)
        if tuple(target_ops.weight(image)) != tuple(-c for c in wt):
            failures.append(f"{b!r}: weight negation")
        for i in source_ops.rs.index_set:
            if target_ops.epsilon(image, i) != source_ops.phi(b, i):
                failures.append(f"{b!r}: eps/phi swap at {i}")
            if target_ops.phi(image, i) != source_ops.epsilon(b, i):
                failures.append(f"{b!r}: phi/eps swap at {i}")
            down = source_ops.f(b, i)
            up = target_ops.e(image, i)
            if (down is None) != (up is None):
                failures.append(f"{b!r}: lowering nullity at {i}")
            elif down is not None and image_of(down) != up:
                failures.append(f"{b!r}: lowering transport at {i}")
            down = target_ops.f(image, i)
            up = source_ops.e(b, i)
            if (down is None) != (up is None):
                failures.append(f"{b!r}: raising nullity at {i}")
            elif up is not None and image_of(up) != down:
                failures.append(f"{b!r}: raising transport at {i}")
    return Check("dual-iso", len(elements), failures)
