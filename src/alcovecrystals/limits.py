"""Transports between the alcove model and the path model.

The finite transport ``varpi`` reads the folding times of an alcove element
off its chain and produces a piecewise linear path; it swaps raising with
lowering and negates weights.  ``varpi_dual`` is the same construction
threaded through the order-reversing identification of the dual chain.  The
``*_infinity`` variants lift both to the unbounded models by projecting onto
a finite crystal first and letting the canonical straightening of rho-rays
erase the choice made there.

``verify_dual_iso`` is the audit harness: it replays every defining identity
of a dual isomorphism over an enumerated set of elements and returns a
:class:`~alcovecrystals.crystalgraph.Check`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .alcove import element, minimal_projection, mirror, project_Spr
from .chains import _rho_multiple, dual_chain
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
    the pairing of the chain weight with its coroot; the direction between
    consecutive crossing times is minus the running reflection product
    applied to the chain weight.  The path is built in integer form over the
    lcm of the crossing-time denominators.
    """
    chain = el.chain
    if chain.is_window or el.is_dual:
        raise ValueError("varpi expects an element over a finite primal chain")
    rs = el.rs
    lam = tuple(chain.lam)
    events = []
    for p in el.positions:
        entry = chain.entries[p]
        gap = pairing(lam, entry.root)
        events.append((Fraction(entry.level, gap), entry.root))
    for (a, _), (b, _) in zip(events, events[1:]):
        if a > b:
            raise ValueError("chain entries are not in crossing-time order")
    den = lcm(*(t.denominator for t, _ in events))
    ticks = [t.numerator * (den // t.denominator) for t, _ in events] + [den]

    times, points = [0], [(0,) * rs.rank]
    w = rs.identity_element()
    for j, tick in enumerate(ticks):
        if tick > times[-1]:
            dt = tick - times[-1]
            v = w.apply_weight(lam)
            points.append(tuple(c - x * dt for c, x in zip(points[-1], v)))
            times.append(tick)
        if j < len(events):
            w = rs.times_reflection(w, events[j][1])
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
        if copies == 0:
            return xi_infinity(rs)
    else:
        if copies == 0 and not el.positions:
            return xi_infinity(rs)
        image = project_Spr(el, copies)
        if image is None:
            raise ValueError(f"no projection onto {copies} copies")
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

    The window entries agree verbatim with the dual chain of a large enough
    multiple of the dominant-sum weight, so the element restricts to a finite
    dual crystal; its path image, slowed down by the number of copies, merges
    into the outgoing rho-ray independently of that number.
    """
    if not el.chain.is_window or not el.is_dual:
        raise ValueError("varpi_dual_infinity expects an element over the dual window")
    rs = el.rs
    needed = max(1, el.chain.deepest_block(el.positions))
    if copies is None:
        copies = needed
    elif copies < needed:
        raise ValueError(f"need at least {needed} copies")
    finite = varpi_dual(element(dual_chain(_rho_multiple(rs, copies)), el.positions))
    return PLPath.from_vertices(
        rs, "extended", finite.den, [copies * t for t in finite.times], finite.points
    )


def verify_dual_iso(elements, mapping, source_ops, target_ops) -> Check:
    """Check that ``mapping`` is a dual isomorphism on the given elements;
    ``checked`` counts the elements.

    For every element and every direction: lowering must transport to
    raising and vice versa (with undefined matching undefined), the two
    string statistics must trade places, and the weight must flip sign.
    Failures read ``"rendered element: property"``.
    """
    if source_ops.rs != target_ops.rs:
        raise ValueError("source and target live over different root systems")
    elements = list(elements)
    failures = []
    images: dict = {}

    def image_of(b):
        """The image of ``b``, mapped once per call however often it is met."""
        key = source_ops.key(b)
        if key not in images:
            images[key] = mapping(b)
        return images[key]

    for b in elements:
        name = source_ops.render(b)
        image = image_of(b)
        wt = source_ops.weight(b)
        if tuple(target_ops.weight(image)) != tuple(-c for c in wt):
            failures.append(f"{name}: weight negation")
        for i in source_ops.rs.index_set:
            if target_ops.epsilon(image, i) != source_ops.phi(b, i):
                failures.append(f"{name}: eps/phi swap at {i}")
            if target_ops.phi(image, i) != source_ops.epsilon(b, i):
                failures.append(f"{name}: phi/eps swap at {i}")
            down = source_ops.f(b, i)
            up = target_ops.e(image, i)
            if (down is None) != (up is None):
                failures.append(f"{name}: lowering nullity at {i}")
            elif down is not None and target_ops.key(image_of(down)) != target_ops.key(up):
                failures.append(f"{name}: lowering transport at {i}")
            down = target_ops.f(image, i)
            up = source_ops.e(b, i)
            if (down is None) != (up is None):
                failures.append(f"{name}: raising nullity at {i}")
            elif up is not None and target_ops.key(image_of(up)) != target_ops.key(down):
                failures.append(f"{name}: raising transport at {i}")
    return Check("dual-iso", len(elements), failures)
