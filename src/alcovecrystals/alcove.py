"""The alcove model: crystal structures on admissible sets of foldings.

An element is a set of positions in a chain (a finite chain for the highest
weight crystals, a window of the infinite chain for their direct limit).  The
same signature machinery drives all four flavours:

* finite primal chains model the highest weight crystal,
* finite dual (reversed) chains model its contragredient dual,
* primal windows model the direct limit from below,
* dual windows model the dual limit.

Operators locate a letter in the reduced plus/minus word of the folded chain
and move a folding there; weights come from affine reflections.  A second,
independent formulation of the same operators through a piecewise linear
profile is provided for cross-checking (``profile_f`` / ``profile_e``).  The
string statistics are read off that profile in closed form: how far it falls
from its peak to its end gives epsilon (phi in the dual models), and the
weight gives the other one, so no operator is applied to compute them.

Each element is folded once: a single walk along its chain yields the folded
roots, the end product of the folding reflections and whether every folding
was a Bruhat cover (``AlcoveElement.fold``).  Operators, signatures, weights
and the profile all read that walk, and every element built by
:func:`element` or by an operator is checked to be admissible.  The weight
and the string statistics are computed once per element and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .chains import (
    InfChainWindow,
    LambdaChain,
    _rho_multiple,
    concat,
    dual_chain,
    lex_chain,
    window,
)
from .rootsys import Root, RootSystem, WeylElement, pairing, root_string, weight_neg

__all__ = [
    "AlcoveElement",
    "Fold",
    "element",
    "element_from_pairs",
    "element_to_json",
    "e_op",
    "epsilon",
    "f_op",
    "folded_roots",
    "i_signature",
    "include_Sin",
    "is_admissible",
    "minimal_projection",
    "mirror",
    "phi",
    "profile_e",
    "profile_f",
    "project_Spr",
    "reduce_signature",
    "render_element",
    "shift_S",
    "weight",
]


class Fold(NamedTuple):
    """One walk along an element's chain: the folded root coordinates at each
    position, the product of the folding reflections in walk order (tau
    primally, iota dually) and whether every folding was a Bruhat cover."""

    roots: tuple[tuple[int, ...], ...]
    end: WeylElement
    admissible: bool


@dataclass(frozen=True)
class AlcoveElement:
    """A set of folding positions (0-based, strictly increasing) in a chain."""

    chain: LambdaChain | InfChainWindow
    positions: tuple[int, ...]

    @property
    def rs(self) -> RootSystem:
        return self.chain.rs

    @property
    def is_dual(self) -> bool:
        return self.chain.dual

    @property
    def is_window(self) -> bool:
        return self.chain.is_window

    @cached_property
    def fold(self) -> Fold:
        """The folded chain, walked left to right primally, right to left dually.

        At each position the product of the foldings already passed is applied
        to the chain root, by a lookup in the root system's memoized action
        (which also keeps the stored tuples shared).  After k covers the
        product has length k, so each folding is checked with one memoized
        length.
        """
        rs = self.rs
        entries = self.chain.entries
        jset = set(self.positions)
        n = len(entries)
        roots: list = [None] * n
        w = rs.identity_element()
        action = rs.root_action(w)
        covers = 0
        admissible = True
        for ind in range(n - 1, -1, -1) if self.is_dual else range(n):
            root = entries[ind].root
            roots[ind] = action[root.coeffs]
            if ind in jset:
                w = rs.times_reflection(w, root)
                action = rs.root_action(w)
                covers += 1
                admissible = admissible and rs.length(w) == covers
        return Fold(tuple(roots), w, admissible)

    @cached_property
    def wt(self) -> tuple[int, ...]:
        """The weight, in fundamental-weight coordinates: the chain weight
        pushed through the foldings' affine reflections, last folding first."""
        rs = self.rs
        entries = self.chain.entries
        lam = self.chain.weight_for_ops()
        if not self.is_dual:
            v = weight_neg(lam)
            for p in reversed(self.positions):
                e = entries[p]
                v = rs.affine_reflect(e.root, -e.level, v)
            return weight_neg(v)
        v = lam
        for p in reversed(self.positions):
            e = entries[p]
            v = rs.affine_reflect(e.root, e.level, v)
        return weight_neg(self.fold.end.apply_weight(v))

    @cached_property
    def strings(self) -> dict[int, tuple[int, int]]:
        """(epsilon, phi) in every direction i, read off the profile.

        The profile of a primal element falls from its peak to its end by
        twice epsilon (its heights are doubled); a dual element reads its
        mirror's profile, where the same fall is twice phi.  The other
        statistic follows from phi - epsilon = <wt, alpha_i^vee>, which in
        the limit models defines it and lets it be negative.
        """
        el = _canonical(self)
        out = {}
        for i in self.rs.index_set:
            _, _, h_inf, peak = _profile_data(el, i)
            fall, odd = divmod(peak - h_inf, 2)
            assert not odd, "a profile falls from its peak by whole steps"
            gap = pairing(self.wt, self.rs.simple_root(i))
            out[i] = (fall - gap, fall) if self.is_dual else (fall, fall + gap)
        return out

    def pairs(self) -> tuple[tuple[Root, int], ...]:
        """The foldings as (root, level) pairs in chain order."""
        ent = self.chain.entries
        return tuple((ent[p].root, ent[p].level) for p in self.positions)

    def __repr__(self) -> str:
        return render_element(self)


def render_element(el: AlcoveElement) -> str:
    """Text form listing the foldings in chain order, e.g. ``((α1, -1))``."""
    inner = ", ".join(f"({root_string(r)}, {lvl})" for r, lvl in el.pairs())
    return f"({inner})"


# ---------------------------------------------------------------------------
# construction and window canonicalization


def _canonical(el: AlcoveElement) -> AlcoveElement:
    """Renormalize a window element to its canonical number of copies.

    The canonical window keeps one fresh block beyond the deepest folding so
    every operator sees the letters it needs.  Finite-chain elements are
    returned unchanged.
    """
    if not el.is_window:
        return el
    w: InfChainWindow = el.chain
    wanted = w.deepest_block(el.positions) + 1
    if wanted == w.copies:
        return el
    shift = w.offset(wanted)
    fresh = window(el.rs, wanted, dual=w.dual)
    return AlcoveElement(fresh, tuple(p + shift for p in el.positions))


def element(chain, positions) -> AlcoveElement:
    """Build an element over ``chain``, validating and normalizing positions.

    Positions must be distinct 0-based indices into the chain forming an
    admissible set; window elements are renormalized to the canonical window.
    """
    pos = tuple(sorted(int(p) for p in positions))
    if len(set(pos)) != len(pos):
        raise ValueError(f"duplicate positions in {positions}")
    if pos and (pos[0] < 0 or pos[-1] >= len(chain.entries)):
        raise ValueError(f"position out of range for a chain of length {len(chain.entries)}")
    out = _canonical(AlcoveElement(chain, pos))
    if not out.fold.admissible:
        raise ValueError(f"positions {list(pos)} are not admissible: {out!r}")
    return out


def element_from_pairs(chain, pairs) -> AlcoveElement:
    """Build an element from (root coefficients, level) pairs."""
    wanted = [(tuple(c), int(lvl)) for c, lvl in pairs]
    index = {
        (e.root.coeffs, e.level): i for i, e in enumerate(chain.entries)
    }
    positions = []
    for key in wanted:
        if key not in index:
            raise ValueError(f"{key} does not occur in the chain")
        positions.append(index[key])
    return element(chain, positions)


# ---------------------------------------------------------------------------
# admissibility, folded chains and signatures


def is_admissible(el: AlcoveElement) -> bool:
    """Whether the folding positions form a chain of Bruhat covers.

    Primal elements are read left to right, dual elements right to left.
    """
    return el.fold.admissible


def folded_roots(el: AlcoveElement) -> tuple[tuple[int, ...], ...]:
    """Root coordinates of the folded chain, one tuple per chain position.

    At each position the accumulated product of folding reflections is applied
    to the chain root; primal elements accumulate left to right, dual elements
    right to left, in both cases excluding the position itself.
    """
    return el.fold.roots


def _letters(el: AlcoveElement, i: int) -> list[tuple[int, int]]:
    """(position, sign) wherever the folded chain passes through plus or minus
    the i-th simple root, foldings included, in chain order."""
    target = el.rs.simple_root(i).coeffs
    signs = {target: 1, tuple(-c for c in target): -1}
    return [(ind, signs[c]) for ind, c in enumerate(folded_roots(el)) if c in signs]


def _word(el: AlcoveElement, letters) -> tuple[tuple[int, int], ...]:
    """The plus/minus word: the unfolded letters, signs flipped dually."""
    jset = set(el.positions)
    flip = -1 if el.is_dual else 1
    return tuple((ind, flip * sign) for ind, sign in letters if ind not in jset)


def i_signature(el: AlcoveElement, i: int) -> tuple[tuple[int, int], ...]:
    """The plus/minus word for direction ``i``: (position, sign) pairs.

    Letters sit at unfolded positions where the folded chain passes through
    the i-th simple root (either sign); the dual convention flips signs.
    """
    el = _canonical(el)
    return _word(el, _letters(el, i))


def reduce_signature(word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cancel minus-then-plus pairs; return surviving plus and minus positions."""
    pluses: list[int] = []
    minus_stack: list[int] = []
    for pos, sign in word:
        if sign < 0:
            minus_stack.append(pos)
        elif minus_stack:
            minus_stack.pop()
        else:
            pluses.append(pos)
    return tuple(pluses), tuple(minus_stack)


# ---------------------------------------------------------------------------
# crystal operators


def f_op(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Lowering operator in direction ``i`` (1-based), or None."""
    return _lower(_canonical(el), i)


def e_op(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Raising operator in direction ``i`` (1-based), or None."""
    return _raise(_canonical(el), i)


def _lower(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """The lowering step on the element's own chain, which for a window
    element need not be the canonical window; the result is canonical."""
    rs = el.rs
    letters = _letters(el, i)
    pluses, _ = reduce_signature(_word(el, letters))
    jset = set(el.positions)
    mine = [j for j, _ in letters if j in jset]
    if pluses:
        a = pluses[-1]
        tail = [j for j in mine if j > a]
        new = jset | {a}
        if tail:
            new.discard(tail[0])
        return element(el.chain, new)
    if not el.is_dual:
        if el.is_window:
            raise AssertionError("the limit model always admits a lowering")
        return None
    # dual boundary: drop the first folding in this direction when the dual
    # walk endpoint points away from the i-th wall
    if pairing(el.fold.end.apply_weight(rs.rho), rs.simple_root(i)) < 0:
        return element(el.chain, jset - {mine[0]})
    return None


def _raise(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """The raising step on the element's own chain (see :func:`_lower`)."""
    rs = el.rs
    letters = _letters(el, i)
    _, minuses = reduce_signature(_word(el, letters))
    jset = set(el.positions)
    mine = [j for j, _ in letters if j in jset]
    if minuses:
        a = minuses[0]
        head = [j for j in mine if j < a]
        new = jset | {a}
        if head:
            new.discard(head[-1])
        return element(el.chain, new)
    # primal boundary: drop the last folding in this direction when tau(rho)
    # points away from the i-th wall; dual raising always needs a minus letter
    if el.is_dual:
        return None
    if pairing(el.fold.end.apply_weight(rs.rho), rs.simple_root(i)) < 0:
        return element(el.chain, jset - {mine[-1]})
    return None


# ---------------------------------------------------------------------------
# weights and statistics


def weight(el: AlcoveElement):
    """The weight of an element, in fundamental-weight coordinates."""
    return el.wt


def epsilon(el: AlcoveElement, i: int) -> int:
    """How many times the raising operator applies; in the dual limit model it
    is defined through the weight identity and may be negative."""
    return el.strings[i][0]


def phi(el: AlcoveElement, i: int) -> int:
    """How many times the lowering operator applies; in the limit model it is
    defined through the weight identity and may be negative."""
    return el.strings[i][1]


# ---------------------------------------------------------------------------
# shifts between the finite models and the limit


def shift_S(el: AlcoveElement, mu) -> AlcoveElement | None:
    """Push an element across a chain concatenation by a dominant weight.

    The foldings keep their roots, levels grow by the pairing with ``mu``, and
    positions move past the prepended chain.  Returns None if the image fails
    the admissibility walk.
    """
    if el.is_window or el.is_dual:
        raise ValueError("shift_S expects an element over a finite primal chain")
    mu = tuple(mu)
    rs = el.rs
    if any((not isinstance(c, int)) or c < 0 for c in mu):
        raise ValueError(f"weight {mu} is not dominant integral")
    head = lex_chain(rs, mu)
    combined = concat(head, el.chain)
    moved = AlcoveElement(combined, tuple(p + len(head) for p in el.positions))
    return moved if is_admissible(moved) else None


def include_Sin(el: AlcoveElement, k: int) -> AlcoveElement:
    """Reinterpret an element over the k-fold rho chain inside the limit model.

    Positions carry over verbatim (the window repeats the same root sequence);
    each level drops by ``k <rho, zeta^vee>``.
    """
    if el.is_window or el.is_dual:
        raise ValueError("include_Sin expects an element over a finite primal chain")
    rs = el.rs
    krho = tuple(k * c for c in rs.rho)
    if el.chain.lam != krho:
        raise ValueError("include_Sin needs an element over the k-fold rho chain")
    return element(window(rs, k), el.positions)


def project_Spr(el: AlcoveElement, k: int) -> AlcoveElement | None:
    """Project a limit element onto the k-fold rho chain, or None.

    Levels grow by ``k <rho, zeta^vee>``; the image exists when every folding
    lands inside the chain (level within its occurrence range).
    """
    if not el.is_window or el.is_dual:
        raise ValueError("project_Spr expects an element of the primal limit model")
    rs = el.rs
    if k < 0:
        raise ValueError("k must be nonnegative")
    if el.chain.deepest_block(el.positions) > k:
        return None
    shift = el.chain.offset(k)
    target = _rho_multiple(rs, k)
    for p in el.positions:
        src = el.chain.entries[p]
        dst = target.entries[p + shift]
        assert dst.root == src.root
        assert dst.level == src.level + k * pairing(rs.rho, src.root)
    out = AlcoveElement(target, tuple(p + shift for p in el.positions))
    if not is_admissible(out):
        return None
    return out


def minimal_projection(el: AlcoveElement) -> tuple[int, AlcoveElement]:
    """The smallest k whose projection exists, with its image.

    The empty element projects at k = 0 onto the empty chain.
    """
    k = el.chain.deepest_block(el.positions) if el.is_window else 0
    while True:
        image = project_Spr(el, k)
        if image is not None:
            return k, image
        k += 1


def mirror(el: AlcoveElement) -> AlcoveElement:
    """The canonical reinterpretation between the primal and dual models.

    Foldings keep their roots; finite levels reflect within their occurrence
    range, window levels negate.  This map is a dual isomorphism of crystals
    (it swaps the raising and lowering operators).
    """
    if el.is_window:
        target = window(el.rs, el.chain.copies, dual=not el.is_dual)
        size = len(el.chain.entries)
        return element(target, tuple(size - 1 - p for p in el.positions))
    target = dual_chain(el.chain)
    size = len(el.chain.entries)
    return element(target, tuple(size - 1 - p for p in el.positions))


# ---------------------------------------------------------------------------
# independent operator formulation through a piecewise linear profile


def _profile_data(el: AlcoveElement, i: int):
    """Doubled heights of the profile for direction ``i``.

    Returns (positions, heights at marked half-points, height past the end,
    maximum of the whole profile), every height twice the profile's so that
    all of them are integers.  A primal element reads its letters in chain
    order; a dual element reads them in reverse, which is the profile of its
    mirror.  Either way the fold ends at the product of the foldings in the
    order read.
    """
    rs = el.rs
    jset = set(el.positions)
    letters = _letters(el, i)
    if el.is_dual:
        letters.reverse()
    spots = [ind for ind, _ in letters]
    g = -1
    peak = g
    heights = []
    prev_pair = None
    for ind, sgn in letters:
        mark = -1 if ind in jset else 1
        pair = (sgn, mark * sgn)
        assert pair != (-1, 1), "profile slopes violate the structure conditions"
        if prev_pair == (1, 1):
            assert pair != (-1, -1), "profile slopes violate the structure conditions"
        prev_pair = pair
        g += sgn
        heights.append(g)
        peak = max(peak, g)
        g += mark * sgn
        peak = max(peak, g)
    gamma_inf = el.fold.end.apply_weight(rs.rho)
    last = pairing(gamma_inf, rs.simple_root(i))
    assert last != 0
    sgn_inf = 1 if last > 0 else -1
    if prev_pair == (1, 1):
        assert sgn_inf == 1, "profile slopes violate the structure conditions"
    h_inf = g + sgn_inf
    peak = max(peak, h_inf)
    return spots, heights, h_inf, peak


def profile_f(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Lowering operator computed from the piecewise linear profile.

    Independent of the signature route; the two must agree everywhere.  A
    dual element reads its mirror's profile, on which lowering is the
    mirror's raising.
    """
    el = _canonical(el)
    return _profile_up(el, i) if el.is_dual else _profile_down(el, i)


def profile_e(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Raising operator computed from the piecewise linear profile."""
    el = _canonical(el)
    return _profile_down(el, i) if el.is_dual else _profile_up(el, i)


def _profile_down(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Move the first maximal marked point of the profile one letter back,
    or fold at the last letter when the maximum is only reached at the end."""
    spots, heights, h_inf, peak = _profile_data(el, i)
    if peak <= 0:
        return None
    jset = set(el.positions)
    candidates = [pos for pos, h in zip(spots, heights) if h == peak]
    if candidates:
        mu = candidates[0]
        idx = spots.index(mu)
        assert mu in jset
        assert idx > 0, "a maximal half-point needs a predecessor"
        k = spots[idx - 1]
        new = (jset - {mu}) | {k}
    else:
        assert h_inf == peak
        assert spots, "an unbounded profile needs at least one marked point"
        k = spots[-1]
        new = jset | {k}
    assert k not in jset
    return element(el.chain, new)


def _profile_up(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Move the last maximal marked point of the profile one letter on, or
    unfold it when it is the last letter."""
    spots, heights, h_inf, peak = _profile_data(el, i)
    if peak <= h_inf:
        return None
    jset = set(el.positions)
    candidates = [pos for pos, h in zip(spots, heights) if h == peak]
    assert candidates, "a strict interior maximum must be marked"
    k = candidates[-1]
    assert k in jset
    idx = spots.index(k)
    if idx + 1 < len(spots):
        mu = spots[idx + 1]
        assert mu not in jset
        new = (jset - {k}) | {mu}
    else:
        new = jset - {k}
    return element(el.chain, new)


# ---------------------------------------------------------------------------
# serialization


def _model_name(el: AlcoveElement) -> str:
    if el.is_window:
        return "Al-dual(infinity)" if el.is_dual else "Al(infinity)"
    return "Al-dual(lambda)" if el.is_dual else "Al(lambda)"


def element_to_json(el: AlcoveElement) -> dict:
    entries = el.chain.entries
    return {
        "model": _model_name(el),
        "chain": [
            {"root": list(e.root.coeffs), "level": e.level} for e in entries
        ],
        "positions": [
            {
                "root": list(entries[p].root.coeffs),
                "level": entries[p].level,
                "index": p,
            }
            for p in el.positions
        ],
    }
