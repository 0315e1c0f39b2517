"""The alcove model: crystal structures on admissible sets of foldings.

An element is a set of positions in a chain (a finite chain for the highest
weight crystals, a window of the infinite chain for their direct limit).  The
same signature machinery drives all four flavours:

* finite primal chains model the highest weight crystal,
* finite dual (reversed) chains model its contragredient dual,
* primal windows model the direct limit from below,
* dual windows model the dual limit.

Every element is read in its walk order: chain order primally, reversed
dually.  One signature step (``_step``) gives all four operators: lowering a
primal element or raising a dual one steps down, the other two step up, and
both steps and the string statistics come from one reading of direction i
(``_reading``).  It reads the letters of the folded chain in walk order,
matching each -alpha_i with the first unmatched alpha_i after it, which is
the matching of the signature read either way, as ``mirror`` (the dual
isomorphism that swaps f_i and e_i) reads it: the step down folds the last
unmatched alpha_i, the step up the first unmatched -alpha_i.  The reading
walks the element's foldings, not the window.  Between two foldings the
product W of the foldings walked is fixed, and the folded root at p is
W(beta_p) (P s_beta = s_{P(beta)} P), so the letters there are exactly the
occurrences in the chain of one positive root, plus or minus W^-1(alpha_i),
and all have the sign of W^-1(alpha_i).  Two bisections of the chain's
``occurrences`` of that root count such a run, and it is matched in one
step, so a reading does Python work per folding, not per letter or per
position of the window.  Weights are read off the folded chain through two
tables built once: each folding adds its fold level (the chain's
``fold_levels``) times its folded root's row of ``RootSystem.root_weights``.
The string statistics come from the same reading, so no operator is applied
to compute them: stepping up applies once per unmatched -alpha_i and once
more when the end product turns rho away from the i-th wall, which gives
epsilon (phi in the dual models), and the weight's i-th coordinate gives the
other one.  ``AlcoveElement.strings`` makes one reading per direction and
keeps them on the element, so every operator step taken there afterwards
reads its change off them and reads nothing again; a step at an element whose
statistics were not read makes its one reading and keeps nothing.
``strings`` hands back both tuples, and ``epsilon`` and ``phi`` read one
entry.  A second, independent formulation of the operators through a
piecewise linear profile is their oracle (``profile_f`` / ``profile_e``);
how far that profile falls from its peak to its end is an oracle for the
statistics.  Each element keeps the profile of each direction once read
(``AlcoveElement.profiles``), so both profile operators and that oracle
share it; a profile whose letters break its structure conditions raises
:class:`ProfileError`.

Each element is folded once (``AlcoveElement.fold``): the folded roots as
root indices (one byte per position, see ``RootSystem.roots``), the end
product of the folding reflections as the permutation it makes of the root
indices, and whether every folding was a Bruhat cover.  Toggling the folding
at p translates every root after p in walk order by the reflection through
the folded root at p (``_toggle``), as P s_beta = s_{P(beta)} P.  An element
built by :func:`element` or directly is folded afresh: it toggles each of
its foldings on the chain's root indices, and ``_covers`` walks them,
composing the reflections' permutations, read from ``RootSystem.reflections``
at the folded roots' bytes, into the end product and checking the length at
every folding; it walks the root indices alone, the first 2|Phi+| bytes, and
the end product stays those bytes.  An operator's result changes one or two
foldings, both at letters plus or minus alpha_i, and derives its fold from
its parent's (``_child``): every prefix product P between the changes
becomes s_i P, so it checks only the added folding and the foldings between
the changes, as l(s_i w) = l(w) + 1 or - 1 with the sign of w^-1(alpha_i).
This module builds no Weyl element of ``rootsys``.  Every operator and
statistic reads its argument through ``_canonical``, which moves it to its
canonical window and refuses an element that is not admissible, and every
operator checks its result; an operator's result is built on its canonical
window.  The weight and the string statistics are computed once per element
and kept.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import add, sub
from typing import Collection, NamedTuple

from .chains import (
    InfChainWindow,
    LambdaChain,
    _integer,
    _rho_multiple,
    chain_to_json,
    dual_chain,
    window,
)
from .rootsys import Root, RootSystem, _kept, pairing, root_string, weight_neg

__all__ = [
    "AlcoveElement",
    "Fold",
    "ProfileError",
    "element",
    "element_to_json",
    "e_op",
    "epsilon",
    "f_op",
    "include_Sin",
    "is_admissible",
    "minimal_projection",
    "mirror",
    "phi",
    "profile_e",
    "profile_f",
    "project_Spr",
    "render_element",
    "strings",
    "weight",
]


class Fold(NamedTuple):
    """One walk along an element's chain: the index of the folded root at each
    position, one byte per position, the product of the folding reflections
    in walk order (tau primally, iota dually) as the 2|Phi+| bytes of the
    permutation it makes of the root indices, and whether every folding was
    a Bruhat cover: on a fresh fold these two come from ``_covers``'s walk on
    the root indices, on an operator's result from its parent's fold
    (``_child``).  The weight and the path image are read off the folded
    roots."""

    roots: bytes
    end: bytes
    admissible: bool


def _toggle(refl: tuple[bytes, ...], roots: bytes, p: int, dual: bool) -> bytes:
    """The folded roots after toggling the folding at ``p``: every prefix
    product P after p in walk order becomes s_gamma P, gamma = roots[p] the
    folded root there (P s_beta = s_{P(beta)} P), so every later root is
    translated by the permutation of s_gamma, ``refl[roots[p]]``."""
    s = refl[roots[p]]
    if dual:
        return roots[:p].translate(s) + roots[p:]
    return roots[: p + 1] + roots[p + 1 :].translate(s)


def _covers(rs: RootSystem, positions, dual: bool, roots: bytes) -> tuple[bytes, bool]:
    """The end product of the foldings at ``positions``, given the folded
    roots, and whether every folding was a Bruhat cover.  Each folding on
    gamma turns the permutation w so far into s_gamma w; after k covers it
    has length k, so each folding is checked.  The walk runs on the root
    indices alone, the first 2|Phi+| bytes of the identity, since no
    reflection moves a byte past them, and the end product is those bytes."""
    refl, negative, npos = rs.reflections, rs._negative, len(rs.positive_roots)
    w = bytes(range(2 * npos))
    admissible = True
    for count, p in enumerate(reversed(positions) if dual else positions, 1):
        w = w.translate(refl[roots[p]])
        admissible = admissible and w[:npos].translate(negative).count(1) == count
    return w, admissible


@dataclass(frozen=True)
class AlcoveElement:
    """A set of folding positions (0-based, strictly increasing) in a chain.

    Building one checks the positions (ValueError), the one check every
    element passes but ``_child``'s, built from a checked parent;
    ``_canonical`` checks admissibility.  The hash reads only the positions,
    so a lookup does not hash the chain's entries."""

    chain: LambdaChain | InfChainWindow
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        pos, size = self.positions, len(self.chain.entries)
        in_order = {int}.issuperset(map(type, pos)) and pos == tuple(sorted(set(pos)))
        if not in_order or pos and not 0 <= pos[0] <= pos[-1] < size:
            raise ValueError(f"positions {pos!r}: not a strictly increasing tuple of ints < {size}")

    def __hash__(self) -> int:
        return hash(self.positions)

    @property
    def rs(self) -> RootSystem:
        return self.chain.rs

    @property
    def is_dual(self) -> bool:
        return self.chain.dual

    @property
    def is_window(self) -> bool:
        return self.chain.is_window

    @_kept
    def fold(self) -> Fold:
        """The folded chain, walked left to right primally, right to left dually.

        Starting from the chain's root indices, each folding is toggled in
        walk order (``_toggle``); ``_covers`` then reads the end product and
        the cover check off the folded roots.
        """
        chain, positions = self.chain, self.positions
        rs, dual = chain.rs, chain.dual
        refl, roots = rs.reflections, chain.root_ids
        for p in reversed(positions) if dual else positions:
            roots = _toggle(refl, roots, p, dual)
        return Fold(roots, *_covers(rs, positions, dual, roots))

    @_kept
    def wt(self) -> tuple[int, ...]:
        """The weight, in fundamental-weight coordinates, read off the fold:
        with gamma_p the folded root at the folding on beta_p at level l_p, it
        is lam + sum_p k_p gamma_p, lam the chain weight (0 on windows) and
        k_p = l_p - <lam, beta_p^vee> primally (Lenart and Postnikov's
        -r_{j1}...r_{js}(-lam) expanded), and -lam + sum_p l_p gamma_p dually.
        The multipliers k_p are the chain's ``fold_levels`` and each gamma_p
        a row of ``RootSystem.root_weights``, both tables built once."""
        rows, levels, folded = self.rs.root_weights, self.chain.fold_levels, self.fold.roots
        lam = self.chain.lam
        total = weight_neg(lam) if self.is_dual else lam
        for p in self.positions:
            k = levels[p]
            total = [t + k * c for t, c in zip(total, rows[folded[p]])]
        return tuple(total)

    @_kept
    def strings(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(epsilon, phi): two tuples with one entry per direction of
        ``index_set``, from one reading of each direction (``_reading``).

        Stepping up applies once per unmatched -alpha_i and once more when
        the end product turns rho away from the i-th wall: the reading's up
        count, epsilon for a primal element and phi for a dual one.  The
        other statistic follows from phi - epsilon = <wt, alpha_i^vee>, the
        i-th coordinate of the weight, which in the limit models defines it
        and lets it be negative.  The readings are kept in the canonical
        element's ``__dict__`` as ``readings``, so every operator step taken
        there afterwards (``_step``) reads its change off them and reads
        nothing again.
        """
        el = _canonical(self)
        rs, dual = el.rs, el.is_dual
        readings = el.__dict__["readings"] = tuple(
            _reading(el, i, alpha) for i, alpha in zip(rs.index_set, rs._simple_indices)
        )
        steps = tuple(count for _, _, count in readings)
        # <wt, alpha_i^vee> is the i-th coordinate, as <Lambda_j, alpha_i^vee> = delta_ij
        other = tuple(map(sub if dual else add, steps, self.wt))
        return (other, steps) if dual else (steps, other)

    @_kept
    def profiles(self) -> dict[int, tuple]:
        """The profile of each direction read so far, kept by
        ``_profile_data``."""
        return {}

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


def _canonical_window(chain, positions) -> tuple[LambdaChain | InfChainWindow, tuple[int, ...]]:
    """A window and foldings moved to the canonical window: one fresh block
    beyond the deepest folding, so every operator sees the letters it needs."""
    if not chain.is_window:
        return chain, positions
    wanted = chain.deepest_block(positions) + 1
    if wanted == chain.copies:
        return chain, positions
    shift = chain.offset(wanted)
    return window(chain.rs, wanted, dual=chain.dual), tuple(p + shift for p in positions)


def _inadmissible(positions, out: AlcoveElement) -> ValueError:
    return ValueError(f"positions {list(positions)} are not admissible: {out!r}")


def _canonical(el: AlcoveElement) -> AlcoveElement:
    """The element on its canonical window (``_canonical_window``); ValueError
    if its positions are not admissible.  Every operator and statistic reads
    its argument through here.  The window is looked up from the positions,
    and only the element on it is folded, so an element given on another
    window is never folded; an element already on it is returned as it is."""
    chain, positions = _canonical_window(el.chain, el.positions)
    out = el if chain is el.chain else AlcoveElement(chain, positions)
    if not out.fold.admissible:
        raise _inadmissible(el.positions, out)
    return out


def element(chain, positions) -> AlcoveElement:
    """The element over ``chain`` folded at ``positions``, in any order, each
    read as an integer (``chains._integer``); on a window, moved to the
    canonical window (``_canonical``, which also checks admissibility)."""
    pos = tuple(sorted(_integer(p, "a position") for p in positions))
    return _canonical(AlcoveElement(chain, pos))


# ---------------------------------------------------------------------------
# admissibility, folded chains and signatures


def is_admissible(el: AlcoveElement) -> bool:
    """Whether the folding positions form a chain of Bruhat covers.

    Primal elements are read left to right, dual elements right to left.
    """
    return el.fold.admissible


def _letters(el: AlcoveElement, i: int) -> list[tuple[int, int, bool]]:
    """(position, sign, folded) at each letter of direction ``i`` in walk
    order, alpha_i a plus and -alpha_i a minus.  Only the profile, the
    signature route's oracle, scans the whole folded chain for them, so the
    two routes share no letter-finding code: one ``translate`` by the
    direction's ``RootSystem.letter_masks`` entry marks the letters and
    ``compress`` picks them out, one Python step per letter."""
    chain, roots = el.chain, el.fold.roots
    rs = chain.rs
    plus = rs.simple_index(i)
    jset = set(el.positions)
    spots, marks = range(len(roots)), roots.translate(rs.letter_masks[i])
    if chain.dual:
        spots, marks = spots[::-1], marks[::-1]
    return [(p, 1 if roots[p] == plus else -1, p in jset) for p in compress(spots, marks)]


def _turns_away(el: AlcoveElement, alpha: int) -> bool:
    """Whether the end product w of the element's walk turns rho away from the
    i-th wall, ``alpha`` the index of alpha_i.  As <w(rho), alpha_i^vee> =
    <rho, w^-1(alpha_i)^vee>, that is exactly when w^-1(alpha_i) is a
    negative root."""
    return el.fold.end.index(alpha) >= len(el.chain.rs.positive_roots)


# ---------------------------------------------------------------------------
# crystal operators


def f_op(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Lowering operator in direction ``i`` (1-based), or None."""
    el = _canonical(el)
    return _step(el, i, el.chain.dual)


def e_op(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Raising operator in direction ``i`` (1-based), or None."""
    el = _canonical(el)
    return _step(el, i, not el.chain.dual)


def _step(el: AlcoveElement, i: int, up: bool) -> AlcoveElement | None:
    """One signature step on the element's own chain, which for a window
    element need not be the canonical window; the result is canonical.

    Lowering a primal element and raising a dual one step down, the other two
    step up; both changes come from one reading of direction ``i``
    (``_reading``).  ``i`` is checked and alpha_i looked up first.  An
    element whose ``strings`` were read keeps its readings, and the step
    takes its change from there; otherwise it makes the one reading and
    keeps nothing.
    """
    chain = el.chain
    alpha = chain.rs.simple_index(i)
    kept = el.__dict__.get("readings")
    down, rise, _ = _reading(el, i, alpha, up) if kept is None else kept[i - 1]
    changed = rise if up else down
    if changed is not None:
        return _child(el, i, changed)
    if not up and chain.is_window:
        raise AssertionError("the limit models always admit a step down")
    return None


def _reading(el: AlcoveElement, i: int, alpha: int, up: bool | None = None) -> tuple:
    """Direction ``i``'s signature read once, in walk order, ``alpha`` the
    index of alpha_i: (the down step's change, the up step's change, the up
    count), a change being the positions to toggle, or None.

    Each -alpha_i letter is matched with the first unmatched alpha_i after
    it, the matching of the signature read either way.  The down step folds
    the last unmatched alpha_i and unfolds the first folding after it, if
    any.  The up step folds the first unmatched -alpha_i and unfolds the
    latest folding before it, if any; with none unmatched it unfolds the
    last folding when the end product turns rho away from the i-th wall,
    which then adds one to the count of unmatched -alpha_i.  ``up`` names
    the one step a caller takes, if only one: the turn then counts only
    where that step needs it, and the count is not to be read.

    The reading walks the foldings in walk order, not the window, and
    reads neither the folded roots nor the end product.  It keeps x =
    W^-1(alpha_i), W the product of the foldings walked so far, which the
    folding at q turns into s_{beta_q}(x), beta_q the chain's root there.
    Between two foldings W is fixed and the folded root at p is W(beta_p),
    so the letters there are the chain's occurrences of the positive root
    g = +-x, counted by two bisections of ``occurrences[g]``: all alpha_i
    when x is positive, each closing an open -alpha_i if any is left, and
    all -alpha_i when x is negative.  A folding is a letter exactly when
    its chain root is g, and the end product turns rho away from the i-th
    wall exactly when x ends negative (``_turns_away``).
    """
    chain, pos = el.chain, el.positions
    ids, occ = chain.root_ids, chain.occurrences
    refl, npos, size = chain.rs.reflections, len(occ), len(ids)
    opens = 0
    last = after = first = before = folded = None
    x = alpha
    # each pass reads the run of letters before the folding q, or the tail
    # before the sentinel, then the folding itself; dually the walk runs
    # down the chain, so a run's first letter in walk order is o[hi - 1]
    if chain.dual:
        edge = size
        for q in (*reversed(pos), -1):
            g = x % npos
            o = occ[g]
            hi = bisect_left(o, edge)
            lo = bisect_right(o, q, 0, hi)
            if lo < hi:
                if x < npos:  # alpha_i letters close the latest open -alpha_i
                    if hi - lo <= opens:
                        opens -= hi - lo
                    else:
                        opens, last, after = 0, o[lo], None
                elif opens:
                    opens += hi - lo
                else:  # the first unmatched -alpha_i so far
                    first, before, opens = o[hi - 1], folded, hi - lo
            if q < 0:
                break
            if ids[q] == g:
                folded = q
                if after is None:
                    after = q
            x = refl[ids[q]][x]
            edge = q
    else:
        edge = -1
        for q in (*pos, size):
            g = x % npos
            o = occ[g]
            lo = bisect_right(o, edge)
            hi = bisect_left(o, q, lo)
            if lo < hi:
                if x < npos:
                    if hi - lo <= opens:
                        opens -= hi - lo
                    else:
                        opens, last, after = 0, o[hi - 1], None
                elif opens:
                    opens += hi - lo
                else:
                    first, before, opens = o[lo], folded, hi - lo
            if q == size:
                break
            if ids[q] == g:
                folded = q
                if after is None:
                    after = q
            x = refl[ids[q]][x]
            edge = q
    down = None if last is None else (last,) if after is None else (last, after)
    turns = x >= npos
    if opens:
        rise = (first,) if before is None else (first, before)
        turns = up is None and turns
    else:
        turns = up is not False and turns
        rise = (folded,) if turns else None
    return down, rise, opens + turns


def _child(el: AlcoveElement, i: int, changed: Collection[int]) -> AlcoveElement:
    """The element whose foldings differ from ``el``'s at ``changed``, one or
    two letters of direction ``i``, on its canonical window, with its fold
    derived from ``el``'s instead of walked afresh; ValueError if
    ``changed`` is not such letters, or if ``el`` or the result is not
    admissible.

    Toggling the folding at c1, the first change in walk order, turns every
    later prefix product P into s_i P, as the folded root there is plus or
    minus alpha_i (P s_beta = s_{P(beta)} P), and a second change c2 turns
    them back: the roots after c1 and up to c2 are translated by s_i, and
    the end product is s_i times the parent's after one change and the
    parent's after two.  The parent is admissible, so only the foldings
    that moved are checked, as l(s_i w) = l(w) + 1 exactly when
    w^-1(alpha_i) is positive: an added c1 is a cover exactly when the
    parent's folded root there is +alpha_i; two changes must add one
    folding and remove the other; and a folding strictly between them
    (after c1 when there is one), with parent product P, stays a cover
    exactly when P^-1(alpha_i) is positive if c1 was added and negative if
    it was removed, which walks the parent's roots up to the last such
    folding.  Blocks a window gains or loses hold no folding and come first
    in walk order, so gained ones read the plain chain roots.
    """
    chain, fold, pos = el.chain, el.fold, el.positions
    if not fold.admissible:
        raise _inadmissible(pos, el)
    rs, dual, roots, end = chain.rs, chain.dual, fold.roots, fold.end
    mask, alpha = rs.letter_masks[i], rs._simple_indices[i - 1]
    s = rs.reflections[alpha]
    # a, b: the parent's foldings strictly between the changes, in chain
    # order, are pos[a:b]; added: whether the first change adds a folding
    if len(changed) == 2:
        lo, hi = changed
        if lo > hi:
            lo, hi = hi, lo
        letters = 0 <= lo != hi and mask[roots[lo]] and mask[roots[hi]]
        a = bisect_right(pos, lo)
        b = bisect_left(pos, hi, a)
        had_lo, had_hi = pos[a - 1 : a] == (lo,), pos[b : b + 1] == (hi,)
        # (p,)[had:] is empty where the parent folds at p, so p is removed
        positions = pos[: a - had_lo] + (lo,)[had_lo:] + pos[a:b] + (hi,)[had_hi:] + pos[b + had_hi :]
        first, added = (hi, not had_hi) if dual else (lo, not had_lo)
        # one adds and one removes, or the count at the second is off by two
        covers = had_lo != had_hi and (not added or roots[first] == alpha)
        start, stop = (lo, hi) if dual else (lo + 1, hi + 1)
    else:
        (first,) = changed
        letters = 0 <= first and mask[roots[first]]
        k = bisect_left(pos, first)
        added = pos[k : k + 1] != (first,)
        positions = pos[:k] + (first,) + pos[k:] if added else pos[:k] + pos[k + 1 :]
        a, b = (0, k) if dual else (k + (not added), len(pos))
        covers = not added or roots[first] == alpha
        start, stop = (0, first) if dual else (first + 1, len(roots))
        end = end.translate(s)
    if not letters:
        raise ValueError(f"positions {sorted(changed)} are not one or two letters of direction {i}")
    if covers and a < b:
        refl, npos = rs.reflections, len(end) // 2
        w = bytes(range(len(end)))
        for p in reversed(pos[b:]) if dual else pos[:a]:
            w = w.translate(refl[roots[p]])
        for p in reversed(pos[a:b]) if dual else pos[a:b]:
            w = w.translate(refl[roots[p]])
            if (w.index(alpha) < npos) != added:
                covers = False
                break
    roots = roots[:start] + roots[start:stop].translate(s) + roots[stop:]
    chain, positions = _canonical_window(chain, positions)
    ids = chain.root_ids
    grown = len(ids) - len(roots)
    if dual and grown:
        roots = roots[: len(ids)] + ids[len(roots) :]
    elif grown:
        roots = ids[: max(grown, 0)] + roots[max(-grown, 0) :]
    out = object.__new__(AlcoveElement)
    kept = out.__dict__
    kept["chain"], kept["positions"] = chain, positions
    if not covers:
        raise _inadmissible(positions, out)
    kept["fold"] = Fold(roots, end, True)
    return out


# ---------------------------------------------------------------------------
# weights and statistics


def weight(el: AlcoveElement):
    """The weight of an element, in fundamental-weight coordinates."""
    return el.wt


def strings(el: AlcoveElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(epsilon, phi) in every direction at once: two tuples in ``index_set``
    order (``AlcoveElement.strings``)."""
    return el.strings


def epsilon(el: AlcoveElement, i: int) -> int:
    """How many times the raising operator applies; in the dual limit model it
    is defined through the weight identity and may be negative."""
    el.rs._check_index(i)
    return el.strings[0][i - 1]


def phi(el: AlcoveElement, i: int) -> int:
    """How many times the lowering operator applies; in the limit model it is
    defined through the weight identity and may be negative."""
    el.rs._check_index(i)
    return el.strings[1][i - 1]


# ---------------------------------------------------------------------------
# shifts between the finite models and the limit


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
    k = _integer(k, "k")
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

    Admissibility reads only the roots between foldings, which do not depend
    on k, so the projection exists at the deepest block holding a folding if
    it exists at all; otherwise the element is not admissible (ValueError).
    The empty element projects at k = 0 onto the empty chain.
    """
    k = el.chain.deepest_block(el.positions) if el.is_window else 0
    image = project_Spr(el, k)
    if image is None:
        raise ValueError(f"{el!r} has no projection: its foldings are not admissible")
    return k, image


def mirror(el: AlcoveElement) -> AlcoveElement:
    """The canonical reinterpretation between the primal and dual models.

    Foldings keep their roots; finite levels reflect within their occurrence
    range, window levels negate.  This map is a dual isomorphism of crystals
    (it swaps the raising and lowering operators).
    """
    if el.is_window:
        target = window(el.rs, el.chain.copies, dual=not el.is_dual)
    else:
        target = dual_chain(el.chain)
    size = len(el.chain.entries)
    return element(target, tuple(size - 1 - p for p in el.positions))


# ---------------------------------------------------------------------------
# independent operator formulation through a piecewise linear profile


class ProfileError(ValueError):
    """The letters a profile reads break its structure conditions."""


def _require(holds: bool, condition: str) -> None:
    """Raise :class:`ProfileError` naming ``condition`` unless it holds."""
    if not holds:
        raise ProfileError(f"the profile violates its structure conditions: {condition}")


def _profile_data(el: AlcoveElement, i: int) -> tuple:
    """The profile of direction ``i`` (``_read_profile``), read once per
    element and direction and kept on the element, as its fold, weight and
    string statistics are, so that ``profile_f``, ``profile_e`` and the
    statistics oracle share it.  Only a profile that meets the structure
    conditions is kept.  ``i`` is checked first: True and 1.0 hash as 1, so
    the lookup alone would read them as a kept direction 1."""
    el.rs._check_index(i)
    kept = el.profiles
    if i not in kept:
        kept[i] = _read_profile(el, i)
    return kept[i]


def _read_profile(el: AlcoveElement, i: int) -> tuple:
    """Doubled heights of the profile for direction ``i``.

    Returns (positions, heights at marked half-points, height past the end,
    maximum of the whole profile), every height twice the profile's so that
    all of them are integers.  The letters are read in walk order, so a dual
    element reads the profile of its mirror, and the fold ends at the product
    of the foldings in the order read.  Only the profile operators and the
    oracles of the string statistics (the fall from the maximum to the end
    is twice epsilon, twice phi dually) read it.  :class:`ProfileError` if
    the slopes break the structure conditions.
    """
    letters = _letters(el, i)
    spots = tuple(ind for ind, _, _ in letters)
    g = -1
    peak = g
    heights = []
    prev_pair = None
    for _, sgn, folded in letters:
        mark = -1 if folded else 1
        pair = (sgn, mark * sgn)
        _require(pair != (-1, 1), "a folded minus")
        _require(prev_pair != (1, 1) or pair != (-1, -1), "an unfolded plus before an unfolded minus")
        prev_pair = pair
        g += sgn
        heights.append(g)
        peak = max(peak, g)
        g += mark * sgn
        peak = max(peak, g)
    sgn_inf = -1 if _turns_away(el, el.rs.simple_index(i)) else 1
    _require(prev_pair != (1, 1) or sgn_inf == 1, "an unfolded plus before a falling end")
    h_inf = g + sgn_inf
    peak = max(peak, h_inf)
    return spots, tuple(heights), h_inf, peak


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
        _require(mu in jset, "a maximal half-point is folded")
        _require(idx > 0, "a maximal half-point has a predecessor")
        k = spots[idx - 1]
        new = (jset - {mu}) | {k}
    else:
        _require(h_inf == peak, "a maximum off the letters is at the end")
        _require(bool(spots), "a profile peaking at its end has a letter")
        k = spots[-1]
        new = jset | {k}
    _require(k not in jset, "the letter folded is unfolded")
    return element(el.chain, new)


def _profile_up(el: AlcoveElement, i: int) -> AlcoveElement | None:
    """Move the last maximal marked point of the profile one letter on, or
    unfold it when it is the last letter."""
    spots, heights, h_inf, peak = _profile_data(el, i)
    if peak <= h_inf:
        return None
    jset = set(el.positions)
    candidates = [pos for pos, h in zip(spots, heights) if h == peak]
    _require(bool(candidates), "a maximum above the end is at a half-point")
    k = candidates[-1]
    _require(k in jset, "a maximal half-point is folded")
    idx = spots.index(k)
    if idx + 1 < len(spots):
        mu = spots[idx + 1]
        _require(mu not in jset, "the letter after a maximal half-point is unfolded")
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
        "chain": chain_to_json(el.chain),
        "positions": [
            {"root": list(entries[p].root.coeffs), "level": entries[p].level, "index": p}
            for p in el.positions
        ],
    }
