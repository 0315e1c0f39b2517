"""Operator-level checks for the alcove model, pinned to hand-computed values."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcovecrystals import alcove as al
from alcovecrystals import limits, verify
from alcovecrystals.chains import _integer, dual_chain, lex_chain, window
from alcovecrystals.rootsys import RootSystem, cartan_matrix, pairing, weight_neg
from alcovecrystals.verify import Sweep

from test_chains import concat
from test_rootsys import cartan_weight_coords

A1 = RootSystem.from_type("A1")
A2 = RootSystem.from_type("A2")
A3 = RootSystem.from_type("A3")


def el(chain, *positions):
    return al.element(chain, positions)


def pairs(elem):
    return tuple(((r.coeffs), lvl) for r, lvl in elem.pairs())


def element_from_pairs(chain, pairs) -> al.AlcoveElement:
    """The element of ``chain`` folded at the given (root coefficients,
    level) pairs; ValueError for a level that is not an integer or a pair
    the chain does not hold."""
    index = {(e.root.coeffs, e.level): p for p, e in enumerate(chain.entries)}
    positions = []
    for coeffs, level in pairs:
        key = (tuple(coeffs), _integer(level, "a level"))
        if key not in index:
            raise ValueError(f"{key} does not occur in the chain")
        positions.append(index[key])
    return al.element(chain, positions)


def folded_roots(elem):
    """The folded chain as root coefficient tuples, one per position."""
    roots = elem.rs.roots
    return tuple(roots[k].coeffs for k in elem.fold.roots)


def reduce_signature(word):
    """Cancel minus-then-plus pairs; return surviving plus and minus positions."""
    pluses, minus_stack = [], []
    for pos, sign in word:
        if sign < 0:
            minus_stack.append(pos)
        elif minus_stack:
            minus_stack.pop()
        else:
            pluses.append(pos)
    return tuple(pluses), tuple(minus_stack)


def all_admissible(chain):
    n = len(chain.entries)
    found = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            cand = al.AlcoveElement(chain, combo)
            if al.is_admissible(cand):
                found.append(set(combo))
    return found


# ---------------------------------------------------------------------------
# admissibility


def test_single_fold_admissible_for_doubled_first_fundamental():
    chain = lex_chain(A3, (2, 0, 0))
    assert al.is_admissible(el(chain, 3))


def test_non_cover_pair_rejected():
    chain = lex_chain(A3, (1, 0, 0))
    assert not al.is_admissible(al.AlcoveElement(chain, (1, 2)))
    with pytest.raises(ValueError):
        el(chain, 1, 2)
    with pytest.raises(ValueError):
        al.element(lex_chain(A2, (1, 1)), [0, 1, 2, 3])


def test_positions_validated():
    chain = lex_chain(A2, (1, 1))
    with pytest.raises(ValueError):
        al.element(chain, [4])
    with pytest.raises(ValueError):
        al.element(chain, [1, 1])
    for bad in (0.7, 2.9, 2.0, "2"):
        with pytest.raises(ValueError):
            al.element(chain, [bad])
    with pytest.raises(ValueError):
        element_from_pairs(chain, [((1, 0), 0.5)])
    with pytest.raises(ValueError):
        element_from_pairs(chain, [((1, 0), "0")])
    assert element_from_pairs(chain, [((1, 0), 0)]).positions == (2,)


def test_boolean_positions_and_levels_are_refused():
    # True and False would pass for positions 1 and 0 and level 0
    chain = lex_chain(A2, (1, 1))
    for bad in (True, False):
        with pytest.raises(ValueError, match="must be an integer"):
            al.element(chain, [bad])
        with pytest.raises(ValueError, match="must be an integer"):
            element_from_pairs(chain, [((1, 0), bad)])


def test_building_an_element_checks_its_positions():
    # unsorted positions would give wrong statistics once read, and one past
    # the end an IndexError or a window of no copies
    rho = lex_chain(A2, (1, 1))
    for chain in (rho, dual_chain(rho), window(A2, 2), window(A2, 2, dual=True)):
        size = len(chain.entries)
        bad_sets = [(1, 0), (2, 0), (1, 1), (-1,), (-1, 0), (size,), (0, size), (20,), (True,)]
        for bad in bad_sets + [(0, 1.0), ("0",), [0]]:
            with pytest.raises(ValueError, match="not a strictly increasing tuple"):
                al.AlcoveElement(chain, bad)
        assert al.AlcoveElement(chain, (0, size - 1)).positions == (0, size - 1)


@pytest.mark.parametrize("bad", [0, 3, "1", True, 1.0], ids=repr)
def test_direction_index_is_checked(bad):
    # True and 1.0 compare equal to 1, so a bare lookup would read them as
    # direction 1; operators, statistics, signatures and profiles refuse them,
    # also once ``strings`` has kept its readings, where readings[0 - 1]
    # would quietly serve direction 2 for 0
    rho = lex_chain(A2, (1, 1))
    for chain in (rho, dual_chain(rho), window(A2, 1), window(A2, 1, dual=True)):
        b = el(chain)
        ops = (al.f_op, al.e_op, al.epsilon, al.phi, al.profile_f, al.profile_e)
        steps = (lambda b, i: al._step(b, i, False), lambda b, i: al._step(b, i, True))
        for kept in (False, True):
            if kept:
                b.strings
                assert len(b.__dict__["readings"]) == A2.rank
            for fn in ops + steps:
                with pytest.raises(ValueError, match="outside index set"):
                    fn(b, bad)


def test_admissible_sets_for_doubled_first_fundamental_a3():
    chain = lex_chain(A3, (2, 0, 0))
    expected = [
        set(),
        {0},
        {3},
        {0, 1},
        {0, 4},
        {3, 4},
        {0, 1, 2},
        {0, 1, 5},
        {0, 4, 5},
        {3, 4, 5},
    ]
    got = all_admissible(chain)
    assert len(got) == 10
    for s in expected:
        assert s in got


def test_admissible_sets_for_first_fundamental_a3():
    chain = lex_chain(A3, (1, 0, 0))
    got = all_admissible(chain)
    assert got == [set(), {0}, {0, 1}, {0, 1, 2}]


def test_rho_chain_admissible_sets_a2():
    chain = lex_chain(A2, (1, 1))
    expected = [
        set(),
        {0},
        {2},
        {0, 1},
        {0, 2},
        {0, 3},
        {2, 3},
        {0, 1, 2},
    ]
    got = all_admissible(chain)
    assert len(got) == 8
    for s in expected:
        assert s in got


def test_dual_rho_chain_admissible_sets_a2():
    chain = dual_chain(lex_chain(A2, (1, 1)))
    expected = [
        set(),
        {1},
        {3},
        {0, 1},
        {0, 3},
        {1, 3},
        {2, 3},
        {1, 2, 3},
    ]
    got = all_admissible(chain)
    assert len(got) == 8
    for s in expected:
        assert s in got


# ---------------------------------------------------------------------------
# folded chains and signatures


B2 = RootSystem.from_type("B2")
G2 = RootSystem.from_type("G2")


def affine_reflect(rs, root, level, weight):
    """The reflection of ``weight`` through ``<., root^vee> = level``, the
    root converted to weight coordinates by the Cartan matrix here, so the
    weight oracle shares no code with ``RootSystem.root_weights``."""
    k = pairing(weight, root) - level
    return tuple(w - k * x for w, x in zip(weight, cartan_weight_coords(rs, root.coeffs)))


def reference_walk(chain, positions):
    """Admissibility, folded roots, end product and weight of a position set,
    each from its own loop of plain reflection products."""
    rs = chain.rs
    entries = chain.entries
    walk = list(reversed(positions)) if chain.dual else list(positions)
    admissible = True
    w = rs.identity_element()
    for p in walk:
        admissible = admissible and rs.is_cover(w, entries[p].root)
        w = w * rs.reflection(entries[p].root)
    folded = [None] * len(entries)
    v = rs.identity_element()
    order = range(len(entries) - 1, -1, -1) if chain.dual else range(len(entries))
    for ind in order:
        folded[ind] = v.apply_root_coeffs(entries[ind].root.coeffs)
        if ind in positions:
            v = v * rs.reflection(entries[ind].root)
    lam = chain.lam
    sign = 1 if chain.dual else -1
    wt = lam if chain.dual else weight_neg(lam)
    for p in reversed(positions):
        wt = affine_reflect(rs, entries[p].root, sign * entries[p].level, wt)
    if chain.dual:
        wt = w.apply_weight(wt)
    return admissible, tuple(folded), w, weight_neg(wt)


FOLD_CHAINS = {
    "a2-21": lex_chain(A2, (2, 1)),
    "b2-rho": lex_chain(B2, (1, 1)),
    "g2-01": lex_chain(G2, (0, 1)),
    "a2-21-dual": dual_chain(lex_chain(A2, (2, 1))),
    "b2-rho-dual": dual_chain(lex_chain(B2, (1, 1))),
    "g2-01-dual": dual_chain(lex_chain(G2, (0, 1))),
    "a2-window-1": window(A2, 1),
    "a2-window-2": window(A2, 2),
    "b2-window-1": window(B2, 1),
    "a2-dual-window-1": window(A2, 1, dual=True),
    "a2-dual-window-2": window(A2, 2, dual=True),
    "b2-dual-window-1": window(B2, 1, dual=True),
    "a3-rho": lex_chain(A3, (1, 1, 1)),
    "a3-rho-dual": dual_chain(lex_chain(A3, (1, 1, 1))),
    "a3-window-1": window(A3, 1),
    "a3-dual-window-1": window(A3, 1, dual=True),
}


@pytest.mark.parametrize("chain", FOLD_CHAINS.values(), ids=FOLD_CHAINS.keys())
def test_fold_matches_reference_walks(chain):
    n = len(chain.entries)
    admissible = 0
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            b = al.AlcoveElement(chain, combo)
            ok, folded, end, wt = reference_walk(chain, combo)
            assert al.is_admissible(b) == ok, combo
            assert folded_roots(b) == folded, combo
            assert b.fold.end == end.perm[: 2 * len(chain.rs.positive_roots)], combo
            assert al.weight(b) == wt, combo
            admissible += ok
    assert admissible > 1


def random_position_sets(chain, rng, count):
    """``count`` random position sets, most of them not admissible, and
    ``count`` admissible ones grown in walk order by folding wherever
    ``is_cover`` allows it, with probability one half."""
    rs, entries = chain.rs, chain.entries
    n = len(entries)
    sets = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(5, n))))) for _ in range(count)]
    walk = range(n - 1, -1, -1) if chain.dual else range(n)
    for _ in range(count):
        w, chosen = rs.identity_element(), []
        for p in walk:
            if rng.random() < 0.5 and rs.is_cover(w, entries[p].root):
                chosen.append(p)
                w = w * rs.reflection(entries[p].root)
        sets.append(tuple(sorted(chosen)))
    return sets


@pytest.mark.parametrize("type_string", ["B3", "B4", "C3", "D4", "F4", "E6", "E7", "E8"])
def test_fold_matches_reference_walks_beyond_rank_three(type_string):
    """Fresh folds against the reference walk on seeded random position sets,
    admissible and not, over the rho-chains and the one- and two-block
    windows, primal and dual: the cover walk on raw permutations must reject
    exactly the sets the reference walk rejects."""
    rs = RootSystem.from_type(type_string)
    rng = random.Random(f"folds-{type_string}")
    rho = lex_chain(rs, rs.rho)
    chains = [rho, dual_chain(rho)] + [
        window(rs, copies, dual) for copies in (1, 2) for dual in (False, True)
    ]
    for chain in chains:
        verdicts = Counter()
        for combo in random_position_sets(chain, rng, 30):
            b = al.AlcoveElement(chain, combo)
            ok, folded, end, wt = reference_walk(chain, combo)
            assert al.is_admissible(b) == ok, combo
            assert folded_roots(b) == folded, combo
            assert b.fold.end == end.perm[: 2 * len(chain.rs.positive_roots)], combo
            assert al.weight(b) == wt, combo
            verdicts[ok, len(combo) >= 3] += 1
        assert verdicts[True, True] and verdicts[False, True], verdicts


def reference_letters(el, i, up):
    """(position, sign, folded) wherever the folded chain passes through plus
    or minus the i-th simple root, found by comparing every position, in walk
    order; read ``up``, backwards with their signs negated."""
    rs = el.rs
    alpha = rs.simple_index(i)
    sign = -1 if up else 1
    signs = {alpha: sign, alpha + len(rs.positive_roots): -sign}
    jset = set(el.positions)
    out = [(ind, signs[c], ind in jset) for ind, c in enumerate(el.fold.roots) if c in signs]
    if el.is_dual != up:
        out.reverse()
    return out


def i_signature(el, i):
    """The plus/minus word for direction ``i``: (position, sign) pairs at the
    unfolded positions where the folded chain passes through plus or minus
    the i-th simple root, in chain order, signs negated dually, as the
    lowering operator reads them; found by comparing every position."""
    el = al._canonical(el)
    letters = reference_letters(el, i, el.is_dual)
    return tuple((p, sign) for p, sign, folded in letters if not folded)


def reference_step(el, i, up):
    """The signature step spelled out: the reduced word of the unfolded
    letters, its last unmatched plus folded and the next folding read after
    it unfolded; with no plus, a step up drops the first folding read when
    the end product turns rho away from the i-th wall."""
    letters = reference_letters(el, i, up)
    word = [(n, sign) for n, (_, sign, folded) in enumerate(letters) if not folded]
    pluses, _ = reduce_signature(word)
    if pluses:
        n = pluses[-1]
        later = [ind for ind, _, folded in letters[n + 1 :] if folded]
        return al._child(el, i, {letters[n][0], *later[:1]})
    if not up:
        assert not el.is_window
        return None
    if al._turns_away(el, el.rs.simple_index(i)):
        first = next(ind for ind, _, folded in letters if folded)
        return al._child(el, i, {first})
    return None


# finite weights whose primal and dual crystals join the window truncations
POOL_WEIGHTS = {"A2": (2, 1), "B2": (1, 1), "G2": (0, 1)}


def widened_pool(type_string, depth):
    """The window truncations of both models to ``depth``, the finite
    primal and dual crystals of ``POOL_WEIGHTS``, and every window element
    widened by two and three blocks, as the limits suite widens them."""
    rs = RootSystem.from_type(type_string)
    sweep = Sweep(rs, depth)
    pool = [*sweep.truncation().nodes, *sweep.truncation(dual=True).nodes]
    for dual in (False, True) if type_string in POOL_WEIGHTS else ():
        pool += sweep.finite(POOL_WEIGHTS[type_string], dual).nodes
    wide = [verify._widen(b, copies) for b in pool if b.is_window for copies in (2, 3)]
    return pool, wide


@pytest.mark.parametrize(
    "type_string, depth", [("A2", 6), ("B2", 6), ("G2", 6), ("A3", 5)], ids=["a2", "b2", "g2", "a3"]
)
def test_derived_folds_match_fresh_walks(type_string, depth):
    """Operator results derive their fold from the parent's; it must equal a
    fresh fold and the reference walk on window truncations of both models,
    on finite primal and dual crystals, and on pool elements widened by two
    and three blocks (as the limits suite widens them), whose steps drop
    blocks again.  Fresh and derived folds share ``_toggle``, so the reference walk
    is the oracle that shares nothing with them."""
    rs = RootSystem.from_type(type_string)
    pool, widened = widened_pool(type_string, depth)
    children = [op(b, i) for b in pool for i in rs.index_set for op in (al.f_op, al.e_op)]
    shrunk = 0
    for wide in widened:
        steps = [al._step(wide, i, up) for i in rs.index_set for up in (False, True)]
        shrunk += sum(c is not None and c.chain.copies < wide.chain.copies for c in steps)
        children += steps
    children = [c for c in children if c is not None]
    assert len(children) > 1000 and shrunk > 500
    for c in children:
        assert c.fold == al.AlcoveElement(c.chain, c.positions).fold, c
        ok, folded, end, wt = reference_walk(c.chain, c.positions)
        end = end.perm[: 2 * len(rs.positive_roots)]
        assert (ok, folded_roots(c), c.fold.end, c.wt) == (True, folded, end, wt), c


def admissible_sample(chain, rng):
    """Every admissible position set of a chain of fewer than 8 entries, and
    the admissible ones among ``random_position_sets`` of a longer one."""
    if len(chain.entries) < 8:
        return all_admissible(chain)
    sets = random_position_sets(chain, rng, 12)
    return [c for c in sets if al.is_admissible(al.AlcoveElement(chain, c))]


@pytest.mark.parametrize(
    "type_string, depth",
    [("A2", 6), ("B2", 6), ("G2", 6), ("A3", 5), ("C3", 4), ("D4", 4), ("F4", 3), ("E6", 3)],
    ids=["a2", "b2", "g2", "a3", "c3", "d4", "f4", "e6"],
)
def test_steps_match_reference_step(type_string, depth):
    """The one-reading step against the reduced word, both ways, on the pools
    of the derived-fold test (enumerated, so with the readings ``strings``
    keeps), on their widened elements (with none) and on the few letters of
    long higher-rank windows; and on seeded random admissible elements of the
    rho-chain and the one- and two-block windows, primal and dual, first as
    they are built and then with ``strings`` read, through ``f_op``,
    ``e_op`` and ``_step``."""
    pool, wide = widened_pool(type_string, depth)
    rs = RootSystem.from_type(type_string)
    rng = random.Random(f"steps-{type_string}")
    rho = lex_chain(rs, rs.rho)
    chains = [rho, dual_chain(rho)] + [
        window(rs, copies, dual) for copies in (1, 2) for dual in (False, True)
    ]
    built = [al.element(c, combo) for c in chains for combo in admissible_sample(c, rng)]
    for b in wide:
        for i in rs.index_set:
            for up in (False, True):
                assert al._step(b, i, up) == reference_step(b, i, up), (b, i, up)
    kept = Counter()
    for b in pool + built + built:
        kept["readings" in b.__dict__] += 1
        for i in rs.index_set:
            down, up = reference_step(b, i, False), reference_step(b, i, True)
            assert (al._step(b, i, False), al._step(b, i, True)) == (down, up), (b, i)
            lower, upper = (up, down) if b.is_dual else (down, up)
            assert (al.f_op(b, i), al.e_op(b, i)) == (lower, upper), (b, i)
        b.strings  # the second time round, ``built`` steps off the kept readings
    assert kept == {True: len(pool) + len(built), False: len(built)}, kept


def test_derived_child_checks_admissibility():
    # both alpha_1 letters of the two-block A2 window: s_1 s_1 is no chain of covers
    chain = window(A2, 2)
    letters = [p for p, e in enumerate(chain.entries) if e.root.coeffs == (1, 0)]
    assert len(letters) == 2
    with pytest.raises(ValueError, match="not admissible"):
        al.element(chain, letters)
    with pytest.raises(ValueError, match="not admissible"):
        al._child(al.AlcoveElement(chain, ()), 1, set(letters))


def full_cover_walk(rs, positions, dual, roots):
    """``_covers``'s walk on all 256 bytes of the identity permutation, with
    the length counted by comparing every root index with the number of
    positive roots: the end product and whether every folding was a
    Bruhat cover."""
    npos = len(rs.positive_roots)
    w, covers = bytes(range(256)), True
    for count, p in enumerate(reversed(positions) if dual else positions, 1):
        w = w.translate(rs.reflections[roots[p]])
        covers = covers and sum(k >= npos for k in w[:npos]) == count
    return w, covers


@pytest.mark.parametrize("type_string", ["F4", "E8"])
def test_cover_walk_on_the_root_indices_matches_the_full_walk(type_string):
    """``_covers`` walks the first 2|Phi+| bytes only (240 of 256 on E8, the
    most roots a supported type has) and keeps the end product as those
    bytes; they and the cover verdict must equal the walk on the full
    256-byte table, on random position sets, admissible and not, and on
    operator results."""
    rs = RootSystem.from_type(type_string)
    npos = len(rs.positive_roots)
    rng = random.Random(f"covers-{type_string}")
    rho = lex_chain(rs, rs.rho)
    elements = []
    for chain in (rho, dual_chain(rho), window(rs, 1), window(rs, 2, dual=True)):
        elements += [al.AlcoveElement(chain, c) for c in random_position_sets(chain, rng, 10)]
    for dual in (False, True):
        b = al.element(window(rs, 1, dual=dual), [])
        for _ in range(12):
            b = al._step(b, rng.choice(rs.index_set), False)
            elements.append(b)
    verdicts = Counter()
    for b in elements:
        chain = b.chain
        end, ok = al._covers(rs, b.positions, chain.dual, b.fold.roots)
        full, covers = full_cover_walk(rs, b.positions, chain.dual, b.fold.roots)
        assert (end, ok) == (full[: 2 * npos], covers), b
        assert (end, ok) == (b.fold.end, b.fold.admissible), b
        assert type(b.fold.end) is bytes and len(b.fold.end) == 2 * npos, b
        verdicts[ok] += 1
    assert verdicts[True] > 20 and verdicts[False] > 10, verdicts


@pytest.mark.parametrize(
    "type_string, depth", [("A2", 5), ("B2", 5), ("G2", 5), ("A3", 4)], ids=["a2", "b2", "g2", "a3"]
)
def test_every_copy_canonicalizes_to_one_element(type_string, depth):
    """``_canonical`` keeps an element exactly when ``_canonical_window``
    keeps its chain, and an element and its fresh copy canonicalize alike:
    on the pool (operator results, built on their canonical window, and
    their fresh copies), on its window elements widened by two and three
    blocks, and on them narrowed to their deepest block."""
    pool, wide = widened_pool(type_string, depth)
    narrow = [verify._widen(b, -1) for b in pool if b.is_window and b.positions]
    assert len(narrow) > 20
    for b in pool + wide + narrow:
        kept = al._canonical_window(b.chain, b.positions)[0] is b.chain
        fresh = al.AlcoveElement(b.chain, b.positions)
        assert al._canonical(b) == al._canonical(fresh)
        assert (al._canonical(b) is b) == (al._canonical(fresh) is fresh) == kept, b
    assert all(al._canonical(b) is b for b in pool)
    assert not any(al._canonical(b) is b for b in wide + narrow)


def test_canonical_refuses_an_inadmissible_element():
    # two alpha_1 letters, in the two blocks nearest the fixed end of a
    # three-block A2 window: s_1 s_1 is no chain of covers
    chain = window(A2, 3)
    letters = tuple(p for p, e in enumerate(chain.entries) if e.root.coeffs == (1, 0))[1:]
    canonical = al.AlcoveElement(chain, letters)
    assert al._canonical_window(chain, letters)[0] is chain and not canonical.fold.admissible
    refused_as = "are not admissible: ((α1, -2), (α1, -1))"
    wide, narrow = verify._widen(canonical, 2), verify._widen(canonical, -1)
    cases = [
        (canonical, f"positions [6, 10] {refused_as}"),
        (wide, f"positions [14, 18] {refused_as}"),
        (narrow, f"positions [2, 6] {refused_as}"),
    ]
    reads = (al._canonical, lambda x: al.f_op(x, 1), lambda x: al.e_op(x, 2), lambda x: x.strings)
    for b, text in cases:
        for read in reads:
            with pytest.raises(ValueError) as refused:
                read(b)
            assert str(refused.value) == text


def test_folded_chain_single_fold():
    chain = lex_chain(A2, (1, 1))
    folded = folded_roots(el(chain, 2))
    assert folded == ((0, 1), (1, 1), (1, 0), (0, 1))


def test_signature_of_empty_set():
    chain = lex_chain(A2, (1, 1))
    assert i_signature(el(chain), 1) == ((2, 1),)
    assert i_signature(el(chain), 2) == ((0, 1),)


def test_signature_on_window():
    assert i_signature(el(window(A2, 1)), 1) == ((2, 1),)


def test_reduction_cancels_minus_then_plus():
    assert reduce_signature([(0, -1), (1, 1)]) == ((), ())
    assert reduce_signature([(0, 1), (1, -1)]) == ((0,), (1,))
    assert reduce_signature([(0, 1), (1, -1), (2, -1), (3, 1), (4, -1)]) == (
        (0,),
        (1, 4),
    )


# ---------------------------------------------------------------------------
# operators on the finite primal model


def test_lowering_from_highest_weight_a2():
    chain = lex_chain(A2, (1, 1))
    b = el(chain)
    b1 = al.f_op(b, 1)
    assert b1.positions == (2,)
    b12 = al.f_op(b1, 2)
    assert b12 is not None
    assert al.e_op(b12, 2).positions == (2,)
    assert al.e_op(b1, 1).positions == ()
    assert al.e_op(b, 1) is None
    assert al.e_op(b, 2) is None


def test_finite_crystal_closure_matches_admissible_sets():
    chain = lex_chain(A2, (1, 1))
    seen = {(): el(chain)}
    frontier = [el(chain)]
    while frontier:
        nxt = []
        for b in frontier:
            for i in (1, 2):
                c = al.f_op(b, i)
                if c is not None and c.positions not in seen:
                    seen[c.positions] = c
                    nxt.append(c)
        frontier = nxt
    assert set(seen) == {
        (),
        (0,),
        (2,),
        (0, 1),
        (0, 2),
        (0, 3),
        (2, 3),
        (0, 1, 2),
    }


def test_lowest_element_has_no_lowering():
    chain = lex_chain(A2, (1, 1))
    bottom = el(chain, 0, 1, 2)
    assert al.f_op(bottom, 1) is None
    assert al.f_op(bottom, 2) is None
    assert al.e_op(bottom, 1) is not None


# ---------------------------------------------------------------------------
# weights and statistics


def test_weights_on_rho_crystal():
    chain = lex_chain(A2, (1, 1))
    assert al.weight(el(chain)) == (1, 1)
    assert al.weight(el(chain, 2)) == (-1, 2)
    assert al.weight(el(chain, 0, 1, 2)) == (-1, -1)


def test_statistics_on_rho_crystal():
    chain = lex_chain(A2, (1, 1))
    top = el(chain)
    assert al.epsilon(top, 1) == 0
    assert al.phi(top, 1) == 1
    for b_positions in [(), (2,), (0, 3)]:
        b = el(chain, *b_positions)
        for i in (1, 2):
            gap = al.phi(b, i) - al.epsilon(b, i)
            assert gap == pairing(al.weight(b), A2.simple_root(i))


def test_window_statistics():
    b = el(window(A2, 1), 2)
    assert al.weight(b) == (-2, 1)
    assert al.epsilon(b, 1) == 1
    assert al.phi(b, 1) == -1
    top = el(window(A2, 1))
    assert al.weight(top) == (0, 0)
    assert al.epsilon(top, 1) == 0
    assert al.phi(top, 1) == 0


def walked_strings(b, i):
    """(epsilon, phi) by applying the operators until they stop.  In the
    limit models the unbounded side comes from the weight identity."""

    def walk(op):
        count, cur = 0, op(b, i)
        while cur is not None:
            count, cur = count + 1, op(cur, i)
        return count

    gap = pairing(al.weight(b), b.rs.simple_root(i))
    if b.is_window and b.is_dual:
        phi = walk(al.f_op)
        return phi - gap, phi
    if b.is_window:
        eps = walk(al.e_op)
        return eps, eps + gap
    return walk(al.e_op), walk(al.f_op)


def profile_strings(b, i):
    """(epsilon, phi) in the profile's closed form: the profile falls from its
    peak to its end by twice epsilon primally and twice phi dually (its
    heights are doubled), and the weight gives the other statistic."""
    _, _, h_inf, peak = al._profile_data(b, i)
    fall, odd = divmod(peak - h_inf, 2)
    assert not odd, "a profile falls from its peak by whole steps"
    gap = pairing(al.weight(b), b.rs.simple_root(i))
    return (fall - gap, fall) if b.is_dual else (fall, fall + gap)


def compare_string_statistics(rs, pools):
    """Check epsilon and phi against both oracles on every element of
    ``pools`` and in every direction; returns how many were compared."""
    compared = 0
    for pool in pools:
        for b in pool:
            for i in rs.index_set:
                eps, phi = al.epsilon(b, i), al.phi(b, i)
                assert (eps, phi) == profile_strings(b, i) == walked_strings(b, i), (b, i)
                assert phi - eps == pairing(al.weight(b), rs.simple_root(i))
                compared += 1
    return compared


@pytest.mark.parametrize(("type_string", "top", "depth"), [
    ("A2", 2, 5), ("B2", 2, 5), ("G2", 2, 5), ("A3", 1, 4),
])
def test_string_statistics_match_string_walks(type_string, top, depth):
    sweep = Sweep(RootSystem.from_type(type_string), depth)
    rs = sweep.rs
    pools = [
        sweep.finite(lam, dual).nodes
        for lam in product(range(top + 1), repeat=rs.rank)
        for dual in (False, True)
    ]
    pools += [sweep.truncation(dual).nodes for dual in (False, True)]
    assert compare_string_statistics(rs, pools) > 400


@pytest.mark.parametrize(("type_string", "lam", "depth"), [
    ("C3", (1, 1, 1), 4),
    ("D4", (1, 0, 1, 1), 3),
    ("F4", (1, 0, 0, 0), 0),
    ("E6", (1, 0, 0, 0, 0, 0), 0),
    ("B3", (1, 0, 1), 3),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 0),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 0),
], ids=["C3", "D4", "F4", "E6", "B3", "E7", "E8"])
def test_string_statistics_match_string_walks_beyond_rank_three(type_string, lam, depth):
    # the finite crystal of lam in both models, and the window truncations to depth
    sweep = Sweep(RootSystem.from_type(type_string), depth)
    pools = [sweep.finite(lam, dual).nodes for dual in (False, True)]
    if depth:
        pools += [sweep.truncation(dual).nodes for dual in (False, True)]
    assert compare_string_statistics(sweep.rs, pools) >= 2 * len(pools[0]) * sweep.rs.rank


def per_direction_strings(b):
    """(epsilon, phi) read one direction at a time: the unmatched pluses of
    the upward reduced word of each direction (``reference_letters`` read
    up, reduced by ``reduce_signature``), plus one when the end product
    turns rho away from its wall; the weight gives the other statistic."""
    el = al._canonical(b)
    rs = el.rs
    out = []
    for i in rs.index_set:
        letters = reference_letters(el, i, True)
        pluses, _ = reduce_signature([(p, sign) for p, sign, folded in letters if not folded])
        steps = len(pluses) + al._turns_away(el, rs.simple_index(i))
        gap = b.wt[i - 1]
        out.append((steps - gap, steps) if el.is_dual else (steps, steps + gap))
    return out


@pytest.mark.parametrize("type_string", ["A4", "B3", "C3", "D4", "F4", "E6", "E7", "E8", "G2"])
def test_one_reading_statistics_match_the_per_direction_reading(type_string):
    """``AlcoveElement.strings`` reads every direction in one pass; direction
    by direction it must give what one reduction per direction gives, on
    seeded random admissible elements of the rho-chain and of the one- and
    two-block windows, primal and dual, and on random operator walks from
    the empty element of both windows."""
    rs = RootSystem.from_type(type_string)
    rng = random.Random(f"strings-{type_string}")
    rho = lex_chain(rs, rs.rho)
    chains = [rho, dual_chain(rho)] + [
        window(rs, copies, dual) for copies in (1, 2) for dual in (False, True)
    ]
    elements = []
    for chain in chains:
        for combo in random_position_sets(chain, rng, 8):
            b = al.AlcoveElement(chain, combo)
            if al.is_admissible(b):
                elements.append(b)
    for dual in (False, True):
        b = al.element(window(rs, 1, dual=dual), [])
        for _ in range(30):
            # a step up from the top of a window is None: stay put
            b = al._step(b, rng.choice(rs.index_set), rng.random() < 0.3) or b
            elements.append(b)
    moved = 0
    for b in elements:
        eps, phi = b.strings
        for i, want in zip(rs.index_set, per_direction_strings(b)):
            assert (eps[i - 1], phi[i - 1]) == want, (b, i)
            assert (al.epsilon(b, i), al.phi(b, i)) == want, (b, i)
        moved += any(eps) and any(phi)
    assert len(elements) > 60 and moved > 30, (len(elements), moved)


# ---------------------------------------------------------------------------
# window model


def test_window_lowering_chain_a2():
    b = el(window(A2, 1))
    b1 = al.f_op(b, 1)
    assert pairs(b1) == (((1, 0), -1),)
    b12 = al.f_op(b1, 2)
    assert pairs(b12) == (((1, 0), -1), ((1, 1), -1))
    assert al.e_op(b1, 1).positions == ()
    assert al.e_op(b, 1) is None
    assert al.e_op(b, 2) is None


def test_window_canonical_copies_grow_as_needed():
    b = el(window(A1, 1))
    b = al.f_op(b, 1)
    assert pairs(b) == (((1,), -1),)
    b = al.f_op(b, 1)
    assert pairs(b) == (((1,), -2),)
    assert b.chain.copies == 3
    back = al.e_op(al.e_op(b, 1), 1)
    assert back.positions == ()


def test_window_element_normalizes_oversized_input():
    roomy = window(A2, 4)
    b = al.element(roomy, [])
    assert b.chain.copies == 1


def test_dual_window_raising_is_total():
    b = el(window(A2, 1, dual=True))
    assert al.f_op(b, 1) is None
    up = al.e_op(b, 1)
    assert pairs(up) == (((1, 0), 1),)
    assert al.weight(up) == (2, -1)
    again = al.e_op(up, 1)
    assert again is not None
    assert al.f_op(al.e_op(b, 2), 2).positions == ()


def kostant_counts(rs, depth):
    """Kostant's partition function p(beta) on every beta of height at most
    ``depth``, in simple-root coordinates: how many ways beta is a sum of
    positive roots, counted by choosing how often each root occurs."""
    counts = {(0,) * rs.rank: 1}
    for root in rs.positive_roots:
        grown = {}
        for beta, ways in counts.items():
            while sum(beta) <= depth:
                grown[beta] = grown.get(beta, 0) + ways
                beta = tuple(b + c for b, c in zip(beta, root.coeffs))
        counts = grown
    return counts


@pytest.mark.parametrize(
    "type_string, depth",
    [("F4", 4), ("E6", 4), ("E7", 3), ("E8", 2)],
    ids=["f4", "e6", "e7", "e8"],
)
def test_window_truncations_match_kostant_partition_counts(type_string, depth):
    """The character of B(infinity) is prod_{beta > 0} 1 / (1 - e^{-beta}), so
    a truncation to depth d holds p(beta) elements of weight -beta for every
    beta of height at most d; the dual model, built by raising, holds them at
    +beta."""
    rs = RootSystem.from_type(type_string)
    a = cartan_matrix(type_string)
    sweep = Sweep(rs, depth)
    for dual, sign in ((False, -1), (True, 1)):
        want = {
            tuple(sign * sum(b * row[i] for b, row in zip(beta, a)) for i in range(rs.rank)): ways
            for beta, ways in kostant_counts(rs, depth).items()
        }
        assert Counter(al.weight(b) for b in sweep.truncation(dual).nodes) == want


def test_dual_finite_rank_one():
    chain = dual_chain(lex_chain(A1, (1,)))
    bottom = el(chain)
    top = el(chain, 0)
    assert al.weight(bottom) == (-1,)
    assert al.weight(top) == (1,)
    assert al.f_op(top, 1).positions == ()
    assert al.f_op(bottom, 1) is None
    assert al.e_op(bottom, 1).positions == (0,)
    assert al.e_op(top, 1) is None


# ---------------------------------------------------------------------------
# shifts, inclusion, projection


def shift_S(b, mu):
    """Push an element across a chain concatenation by the dominant weight
    ``mu``: the foldings keep their roots, levels grow by the pairing with
    ``mu`` and positions move past the prepended chain.  None if the image
    is not admissible."""
    if b.is_window or b.is_dual:
        raise ValueError("shift_S expects an element over a finite primal chain")
    head = lex_chain(b.rs, mu)  # refuses a weight that is not dominant integral
    moved = al.AlcoveElement(concat(head, b.chain), tuple(p + len(head) for p in b.positions))
    return moved if al.is_admissible(moved) else None


def test_shift_by_rho_on_rho_crystal():
    chain = lex_chain(A2, (1, 1))
    moved = shift_S(el(chain, 2), (1, 1))
    assert pairs(moved) == (((1, 0), 1),)
    folded_all = shift_S(el(chain, 0, 1, 2), (1, 1))
    assert pairs(folded_all) == (((0, 1), 1), ((1, 1), 2), ((1, 0), 1))


def test_shift_rejects_bad_inputs():
    chain = lex_chain(A2, (1, 1))
    with pytest.raises(ValueError):
        shift_S(el(chain), (1, -1))
    with pytest.raises(ValueError):
        shift_S(el(window(A2, 1)), (1, 1))


def test_inclusion_into_the_window():
    b = al.include_Sin(el(lex_chain(A2, (1, 1)), 2), 1)
    assert pairs(b) == (((1, 0), -1),)
    with pytest.raises(ValueError):
        al.include_Sin(el(lex_chain(A2, (1, 0)), 0), 1)


def test_inclusion_then_projection_roundtrip():
    for k in (1, 2):
        chain = lex_chain(A2, (k, k))
        for positions in all_admissible(chain):
            b = el(chain, *positions)
            img = al.project_Spr(al.include_Sin(b, k), k)
            assert img is not None
            assert img.positions == b.positions


def test_projection_levels_shift():
    b = el(window(A2, 1), 2)
    img = al.project_Spr(b, 1)
    assert pairs(img) == (((1, 0), 0),)
    assert al.project_Spr(b, 0) is None
    img2 = al.project_Spr(b, 2)
    assert pairs(img2) == (((1, 0), 1),)
    # True would pass for one copy, and 2.0 or "2" for two
    for bad in (2.0, "2", 1.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            al.project_Spr(b, bad)


def test_minimal_projection():
    k, img = al.minimal_projection(el(window(A2, 1)))
    assert k == 0
    assert img.positions == ()
    assert len(img.chain.entries) == 0
    k, img = al.minimal_projection(el(window(A2, 1), 2))
    assert k == 1
    assert pairs(img) == (((1, 0), 0),)


def test_projection_of_an_inadmissible_element_is_refused():
    # the lone folding sits in the first of two blocks: no k admits it, so
    # the projection is refused at once instead of searched for
    bad = al.AlcoveElement(window(A2, 2), (1,))
    assert not al.is_admissible(bad)
    with pytest.raises(ValueError, match="not admissible"):
        al.minimal_projection(bad)


@pytest.mark.parametrize(
    "bad, transport",
    [
        (al.AlcoveElement(window(A2, 2), (1,)), limits.varpi_infinity),
        (al.AlcoveElement(lex_chain(A2, (1, 1)), (1, 2)), limits.varpi),
        # the mirrors of the two: reversed chains, positions counted from the end
        (al.AlcoveElement(window(A2, 2, dual=True), (6,)), limits.varpi_dual_infinity),
        (al.AlcoveElement(dual_chain(lex_chain(A2, (1, 1))), (1, 2)), limits.varpi_dual),
    ],
    ids=["window", "finite-chain", "dual-window", "dual-finite-chain"],
)
def test_operators_and_statistics_refuse_an_inadmissible_element(bad, transport):
    assert not al.is_admissible(bad)
    for i in A2.index_set:
        for fn in (al.f_op, al.e_op, al.epsilon, al.phi, al.profile_f, al.profile_e):
            with pytest.raises(ValueError, match="not admissible"):
                fn(bad, i)
    with pytest.raises(ValueError, match="not admissible"):
        transport(bad)


def test_projection_commutes_with_lowering():
    b = el(window(A2, 1))
    for word in ([1], [1, 2], [1, 2, 1], [2, 1, 1, 2]):
        cur = b
        for i in word:
            cur = al.f_op(cur, i)
        k, img = al.minimal_projection(cur)
        for kk in (k, k + 1, k + 2):
            proj = al.project_Spr(cur, kk)
            assert proj is not None
            for i in (1, 2):
                lifted = al.f_op(cur, i)
                lowered = al.f_op(proj, i)
                if lowered is None:
                    continue
                target = al.project_Spr(lifted, kk)
                if target is not None:
                    assert target.positions == lowered.positions


# ---------------------------------------------------------------------------
# mirror map


def test_mirror_swaps_the_models_a2():
    chain = lex_chain(A2, (1, 1))
    primal = all_admissible(chain)
    dual = all_admissible(dual_chain(chain))
    mirrored = [set(al.mirror(el(chain, *sorted(s))).positions) for s in primal]
    for s in mirrored:
        assert s in dual
    assert len({frozenset(s) for s in mirrored}) == 8


def test_mirror_is_an_involution():
    chain = lex_chain(A2, (1, 1))
    for s in all_admissible(chain):
        b = el(chain, *sorted(s))
        back = al.mirror(al.mirror(b))
        assert back.positions == b.positions
    w = al.f_op(el(window(A2, 1)), 1)
    assert al.mirror(al.mirror(w)).positions == w.positions


def test_mirror_negates_levels_on_windows():
    b = al.f_op(el(window(A2, 1)), 1)
    m = al.mirror(b)
    assert m.is_dual
    assert pairs(m) == (((1, 0), 1),)


def mirror_elements(type_string):
    """The elements of Al(lam) and its dual model for lam = rho and
    (2, 1, 0, ...), and of Al(infinity) and its dual to depth 4."""
    sweep = Sweep(RootSystem.from_type(type_string), 4)
    rank = sweep.rs.rank
    out = [
        b
        for lam in ((1,) * rank, (2, 1) + (0,) * (rank - 2))
        for dual in (False, True)
        for b in sweep.finite(lam, dual).nodes
    ]
    return [*out, *sweep.truncation().nodes, *sweep.truncation(dual=True).nodes]


def test_mirror_intertwines_the_operators():
    """mirror is a dual isomorphism on all four models: it swaps f_i and e_i
    both ways, negates weights, swaps epsilon and phi, and reverses the
    signature with negated signs."""
    for type_string in ("A2", "B2", "G2", "A3"):
        for b in mirror_elements(type_string):
            m = al.mirror(b)
            size = len(b.chain.entries)
            assert al.weight(m) == weight_neg(al.weight(b))
            for i in b.rs.index_set:
                for op, op_dual in ((al.f_op, al.e_op), (al.e_op, al.f_op)):
                    lhs, rhs = op(m, i), op_dual(b, i)
                    if rhs is None:
                        assert lhs is None
                    else:
                        assert pairs(lhs) == pairs(al.mirror(rhs))
                assert al.epsilon(m, i) == al.phi(b, i)
                assert i_signature(m, i) == tuple(
                    (size - 1 - p, -sign) for p, sign in reversed(i_signature(b, i))
                )


# ---------------------------------------------------------------------------
# the profile formulation agrees with the signature formulation


def crystal_elements(chain):
    return [el(chain, *sorted(s)) for s in all_admissible(chain)]


@pytest.mark.parametrize(
    "chain",
    [
        lex_chain(A2, (1, 1)),
        lex_chain(A2, (2, 1)),
        lex_chain(A3, (1, 0, 0)),
        lex_chain(A3, (2, 0, 0)),
        dual_chain(lex_chain(A2, (1, 1))),
        dual_chain(lex_chain(A3, (2, 0, 0))),
    ],
    ids=["a2-rho", "a2-21", "a3-fund", "a3-double", "a2-rho-dual", "a3-double-dual"],
)
def test_profile_operators_agree_on_finite_models(chain):
    rs = chain.rs
    for b in crystal_elements(chain):
        for i in rs.index_set:
            for mine, ref in ((al.profile_f, al.f_op), (al.profile_e, al.e_op)):
                got = mine(b, i)
                want = ref(b, i)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.positions == want.positions


def test_profile_operators_agree_on_windows():
    frontier = [el(window(A2, 1))]
    seen = {frontier[0].pairs()}
    for _ in range(4):
        nxt = []
        for b in frontier:
            for i in (1, 2):
                c = al.f_op(b, i)
                if c is not None and c.pairs() not in seen:
                    seen.add(c.pairs())
                    nxt.append(c)
        frontier = nxt
    assert len(seen) == 22
    for b in (el(window(A2, 1)), *frontier):
        for i in (1, 2):
            for mine, ref in ((al.profile_f, al.f_op), (al.profile_e, al.e_op)):
                got = mine(b, i)
                want = ref(b, i)
                if want is None:
                    assert got is None
                else:
                    assert got.pairs() == want.pairs()


# ---------------------------------------------------------------------------
# property tests


three_types = st.sampled_from(["A2", "B2", "A3"])


@given(three_types, st.lists(st.integers(1, 3), max_size=6))
@settings(max_examples=60, deadline=None)
def test_random_lowering_words_stay_consistent(type_string, word):
    rs = RootSystem.from_type(type_string)
    chain = lex_chain(rs, tuple([1] * rs.rank))
    b = el(chain)
    for i in word:
        if i > rs.rank:
            continue
        nxt = al.f_op(b, i)
        if nxt is None:
            continue
        assert al.is_admissible(nxt)
        back = al.e_op(nxt, i)
        assert back is not None and back.positions == b.positions
        assert al.weight(nxt) == tuple(
            a - c
            for a, c in zip(al.weight(b), rs.root_in_weight_coords(rs.simple_root(i)))
        )
        b = nxt


@given(three_types, st.lists(st.integers(1, 3), max_size=5))
@settings(max_examples=40, deadline=None)
def test_random_window_words_roundtrip_through_projection(type_string, word):
    rs = RootSystem.from_type(type_string)
    b = el(window(rs, 1))
    for i in word:
        if i > rs.rank:
            continue
        b = al.f_op(b, i)
    k, img = al.minimal_projection(b)
    assert al.include_Sin(img, k).pairs() == b.pairs() if k else b.positions == ()


@given(
    st.sampled_from(["C3", "D4", "F4", "E6"]),
    st.booleans(),
    st.lists(st.integers(1, 6), max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_random_window_words_beyond_rank_three(type_string, dual, word):
    """Both window models of C3, D4, F4 and E6, walked along a random word
    (lowering primally, raising dually, indices taken mod the rank): each
    step is undone by the other operator, and at every element passed the
    signature operators agree with the profile operators."""
    rs = RootSystem.from_type(type_string)
    step, back = (al.e_op, al.f_op) if dual else (al.f_op, al.e_op)
    b = el(window(rs, 1, dual=dual))
    for i in [1 + (j - 1) % rs.rank for j in word]:
        for k in rs.index_set:
            assert al.f_op(b, k) == al.profile_f(b, k), (b, k)
            assert al.e_op(b, k) == al.profile_e(b, k), (b, k)
        nxt = step(b, i)
        assert nxt is not None and back(nxt, i) == b, (b, i)
        b = nxt


def test_json_shape():
    b = el(lex_chain(A2, (1, 1)), 2)
    doc = al.element_to_json(b)
    assert doc["model"] == "Al(lambda)"
    assert doc["positions"] == [{"root": [1, 0], "level": 0, "index": 2}]
    assert len(doc["chain"]) == 4
    assert al.render_element(b) == "((α1, 0))"
