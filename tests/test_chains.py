"""Chain construction, validation, duality, and windows."""

from __future__ import annotations

import itertools

import pytest

from alcovecrystals.chains import (
    ChainEntry,
    InfChainWindow,
    LambdaChain,
    _rho_multiple,
    chain_to_json,
    concat,
    dual_chain,
    lex_chain,
    validate_chain,
    window,
)
from alcovecrystals.rootsys import RootSystem, pairing


def entries_as_pairs(chain):
    return [(e.root.coeffs, e.level) for e in chain.entries]


def test_lex_chain_a2_rho():
    rs = RootSystem.from_type("A2")
    chain = lex_chain(rs, (1, 1))
    assert entries_as_pairs(chain) == [
        ((0, 1), 0),
        ((1, 1), 0),
        ((1, 0), 0),
        ((1, 1), 1),
    ]


def test_lex_chain_a3_rho():
    rs = RootSystem.from_type("A3")
    chain = lex_chain(rs, (1, 1, 1))
    assert entries_as_pairs(chain) == [
        ((0, 0, 1), 0),
        ((0, 1, 1), 0),
        ((0, 1, 0), 0),
        ((1, 1, 1), 0),
        ((1, 1, 0), 0),
        ((1, 0, 0), 0),
        ((1, 1, 1), 1),
        ((0, 1, 1), 1),
        ((1, 1, 0), 1),
        ((1, 1, 1), 2),
    ]


def test_lex_chain_a3_first_fundamental():
    rs = RootSystem.from_type("A3")
    chain = lex_chain(rs, (1, 0, 0))
    assert entries_as_pairs(chain) == [
        ((1, 0, 0), 0),
        ((1, 1, 0), 0),
        ((1, 1, 1), 0),
    ]


def test_lex_chain_a3_doubled_fundamental():
    rs = RootSystem.from_type("A3")
    chain = lex_chain(rs, (2, 0, 0))
    assert entries_as_pairs(chain) == [
        ((1, 0, 0), 0),
        ((1, 1, 0), 0),
        ((1, 1, 1), 0),
        ((1, 0, 0), 1),
        ((1, 1, 0), 1),
        ((1, 1, 1), 1),
    ]


def test_lex_chain_zero_weight_is_empty():
    for type_string in ("A2", "G2"):
        rs = RootSystem.from_type(type_string)
        assert lex_chain(rs, (0,) * rs.rank).entries == ()


def test_lex_chain_rejects_non_dominant():
    rs = RootSystem.from_type("A2")
    with pytest.raises(ValueError, match="dominant"):
        lex_chain(rs, (-1, 2))


def test_lex_chain_length_formula():
    for type_string in ("A2", "B2", "G2", "A3"):
        rs = RootSystem.from_type(type_string)
        for lam in itertools.product(range(3), repeat=rs.rank):
            chain = lex_chain(rs, lam)
            assert len(chain) == sum(pairing(lam, b) for b in rs.positive_roots)


@pytest.mark.parametrize("type_string", ["A2", "A3", "B2", "C2", "G2", "B3"])
def test_lex_chains_validate(type_string):
    rs = RootSystem.from_type(type_string)
    rank = rs.rank
    for lam in itertools.product(range(3), repeat=rank):
        assert validate_chain(lex_chain(rs, lam))


def test_validate_rejects_wrong_occurrence_count():
    rs = RootSystem.from_type("A2")
    chain = lex_chain(rs, (1, 1))
    extra = chain.entries + (ChainEntry(rs.root_from_coeffs((1, 0)), 1),)
    assert not validate_chain(LambdaChain(rs, (1, 1), extra))


def brute_force_condition(rs, roots, dual=False):
    """Check the interlacing condition by enumerating coroot triples with a
    plain double loop over |p| <= 2, written independently of the library."""
    positives = {r.cocoeffs: r for r in rs.positive_roots}
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            if a == b:
                continue
            for p in (-2, -1, 1, 2):
                gv = tuple(x + p * y for x, y in zip(a.cocoeffs, b.cocoeffs))
                g = positives.get(gv)
                if g is None:
                    continue
                for pos in range(len(roots)):
                    if roots[pos] != b:
                        continue
                    if dual:
                        tail = roots[pos:]
                        na, nb, ng = tail.count(a), tail.count(b), tail.count(g)
                    else:
                        head = roots[:pos]
                        na, nb, ng = head.count(a), head.count(b), head.count(g)
                    if ng != na + p * nb:
                        return False
    return True


def test_reordered_rho_sequence_a2():
    # take the valid chain (a2, a12, a1, a12) and reorder it badly
    rs = RootSystem.from_type("A2")
    a1 = rs.root_from_coeffs((1, 0))
    a2 = rs.root_from_coeffs((0, 1))
    a12 = rs.root_from_coeffs((1, 1))
    reordered = LambdaChain(
        rs,
        (1, 1),
        (
            ChainEntry(a12, 0),
            ChainEntry(a12, 1),
            ChainEntry(a1, 0),
            ChainEntry(a2, 0),
        ),
    )
    expected = brute_force_condition(rs, [a12, a12, a1, a2])
    assert validate_chain(reordered) == expected
    assert expected is False


def test_validator_agrees_with_brute_force_on_all_rho_orderings_a2():
    rs = RootSystem.from_type("A2")
    a1 = rs.root_from_coeffs((1, 0))
    a2 = rs.root_from_coeffs((0, 1))
    a12 = rs.root_from_coeffs((1, 1))
    for perm in set(itertools.permutations([a1, a2, a12, a12])):
        counts = {}
        entries = []
        for r in perm:
            entries.append(ChainEntry(r, counts.get(r, 0)))
            counts[r] = counts.get(r, 0) + 1
        chain = LambdaChain(rs, (1, 1), tuple(entries))
        assert validate_chain(chain) == brute_force_condition(rs, list(perm))


def test_concat_doubles_rho_chain_a2():
    rs = RootSystem.from_type("A2")
    chain = lex_chain(rs, (1, 1))
    doubled = concat(chain, chain)
    assert doubled.lam == (2, 2)
    assert len(doubled) == 8
    assert entries_as_pairs(doubled)[:4] == entries_as_pairs(chain)
    assert [lvl for _, lvl in entries_as_pairs(doubled)[4:]] == [1, 2, 1, 3]
    assert validate_chain(doubled)


def test_concat_identity_and_errors():
    rs = RootSystem.from_type("A2")
    chain = lex_chain(rs, (1, 1))
    empty = lex_chain(rs, (0, 0))
    assert concat(chain, empty).entries == chain.entries
    assert concat(empty, chain).entries == chain.entries
    other = lex_chain(RootSystem.from_type("A3"), (1, 0, 0))
    with pytest.raises(ValueError, match="root system"):
        concat(chain, other)


def test_concat_fundamental_twice_a3():
    rs = RootSystem.from_type("A3")
    chain = lex_chain(rs, (1, 0, 0))
    doubled = concat(chain, chain)
    assert len(doubled) == 6
    assert validate_chain(doubled)


def test_lex_chain_of_multiple_rho_is_iterated_concat():
    for type_string in ("A2", "A3", "B2"):
        rs = RootSystem.from_type(type_string)
        rho = rs.rho
        base = lex_chain(rs, rho)
        for k in range(2, 5):
            repeated = base
            for _ in range(k - 1):
                repeated = concat(repeated, base)
            assert repeated.entries == lex_chain(rs, tuple(k * c for c in rho)).entries


def test_dual_chain_a2_rho():
    rs = RootSystem.from_type("A2")
    dual = dual_chain(lex_chain(rs, (1, 1)))
    assert dual.dual
    assert entries_as_pairs(dual) == [
        ((1, 1), 1),
        ((1, 0), 1),
        ((1, 1), 2),
        ((0, 1), 1),
    ]
    assert validate_chain(dual)


def test_dual_chain_is_an_involution():
    for type_string in ("A2", "B2"):
        rs = RootSystem.from_type(type_string)
        for lam in [(1, 1), (2, 1), (0, 2)]:
            chain = lex_chain(rs, lam)
            assert dual_chain(dual_chain(chain)) == chain
    rs = RootSystem.from_type("A2")
    assert dual_chain(lex_chain(rs, (0, 0))).entries == ()


def test_dual_concat_compatibility():
    # dual(first * second) == concat(dual(second), dual(first))
    rs = RootSystem.from_type("A2")
    first = lex_chain(rs, (1, 1))
    second = lex_chain(rs, (1, 0))
    lhs = dual_chain(concat(first, second))
    rhs = concat(dual_chain(second), dual_chain(first))
    assert lhs == rhs


def test_window_a2_single_copy():
    rs = RootSystem.from_type("A2")
    w = window(rs, 1)
    assert entries_as_pairs(w) == [
        ((0, 1), -1),
        ((1, 1), -2),
        ((1, 0), -1),
        ((1, 1), -1),
    ]


def test_window_growth_prepends():
    rs = RootSystem.from_type("A2")
    for k in range(1, 4):
        small = window(rs, k).entries
        big = window(rs, k + 1).entries
        assert big[len(big) - len(small):] == small
        assert all(e.level < 0 for e in big)


def test_window_second_copy_shift():
    rs = RootSystem.from_type("A2")
    pairs = entries_as_pairs(window(rs, 2))
    older, newer = pairs[:4], pairs[4:]
    rho = (1, 1)
    table = {r.coeffs: r for r in RootSystem.from_type("A2").positive_roots}
    for (root_o, lvl_o), (root_n, lvl_n) in zip(older, newer):
        assert root_o == root_n
        assert lvl_o == lvl_n - pairing(rho, table[root_n])


def test_dual_window_appends():
    rs = RootSystem.from_type("A2")
    for k in range(1, 4):
        small = window(rs, k, dual=True).entries
        big = window(rs, k + 1, dual=True).entries
        assert big[: len(small)] == small
        assert all(e.level > 0 for e in big)


def test_dual_window_first_copy_is_dual_rho_chain():
    rs = RootSystem.from_type("A2")
    w = window(rs, 1, dual=True)
    assert entries_as_pairs(w) == [
        ((1, 1), 1),
        ((1, 0), 1),
        ((1, 1), 2),
        ((0, 1), 1),
    ]


def test_dual_window_prefix_of_dual_multiple_rho_chain():
    # the dual window with k copies coincides with the dual of the k*rho chain
    for type_string in ("A2", "A3"):
        rs = RootSystem.from_type(type_string)
        for k in (1, 2, 3):
            w = window(rs, k, dual=True)
            d = dual_chain(lex_chain(rs, tuple(k * c for c in rs.rho)))
            assert w.entries == d.entries


@pytest.mark.parametrize("type_string", ["A2", "G2"])
@pytest.mark.parametrize("dual", [False, True])
def test_window_is_reused(type_string, dual):
    rs = RootSystem.from_type(type_string)
    for k in (1, 2, 3, 4):
        w = window(rs, k, dual)
        assert window(rs, k, dual) is w
        assert w.entries == InfChainWindow(rs, k, dual).entries
        # independent reference: the k*rho chain, levels shifted primally
        chain = lex_chain(rs, tuple(k * c for c in rs.rho))
        if dual:
            assert w.entries == dual_chain(chain).entries
        else:
            assert entries_as_pairs(w) == [
                (e.root.coeffs, e.level - k * pairing(rs.rho, e.root))
                for e in chain.entries
            ]
    # blocks are shared: the window of k + 1 copies holds the same entry
    # objects as the window of k copies
    small, big = window(rs, 3, dual).entries, window(rs, 4, dual).entries
    overlap = big[: len(small)] if dual else big[len(big) - len(small) :]
    assert all(a is b for a, b in zip(overlap, small, strict=True))


@pytest.mark.parametrize("type_string", ["A1", "A2", "A3", "B2", "C2", "G2", "B3", "D4"])
def test_rho_multiple_is_the_sorted_chain(type_string):
    rs = RootSystem.from_type(type_string)
    for k in range(7):
        chain = _rho_multiple(rs, k)
        assert chain == lex_chain(rs, tuple(k * c for c in rs.rho))
        assert _rho_multiple(rs, k) is chain
    # each copy holds the entry objects of a shared block
    block = len(lex_chain(rs, rs.rho))
    two, three = _rho_multiple(rs, 2).entries, _rho_multiple(rs, 3).entries
    assert all(a is b for a, b in zip(two, three[: 2 * block], strict=True))


def _block_by_level(rs, entry, dual):
    """Reference for the window layout: the entry's block read off its level,
    ceil(-level / <rho, beta^vee>) primally and ceil(level / ...) dually."""
    depth = entry.level if dual else -entry.level
    return -(-depth // pairing(rs.rho, entry.root))


@pytest.mark.parametrize("type_string", ["A1", "A2", "A3", "B2", "C3", "G2", "D4"])
@pytest.mark.parametrize("dual", [False, True])
def test_window_layout_matches_levels(type_string, dual):
    rs = RootSystem.from_type(type_string)
    for copies in range(1, 6):
        w = window(rs, copies, dual)
        blocks = [_block_by_level(rs, e, dual) for e in w.entries]
        assert sorted(set(blocks)) == list(range(1, copies + 1))
        assert w.deepest_block(()) == 0
        assert all(w.deepest_block((p,)) == b for p, b in enumerate(blocks))
        spread = tuple(range(len(w) // 3, len(w), 2))
        assert w.deepest_block(spread) == max(blocks[p] for p in spread)
        if dual:
            assert w.entries == dual_chain(_rho_multiple(rs, copies)).entries
        # every entry in the first k blocks keeps its root in a window of k
        # blocks and in the k*rho chain; its level moves by k * <rho, beta^vee>
        # into the primal k*rho chain and nowhere else
        for k in range(1, 6):
            shift = w.offset(k)
            other = window(rs, k, dual).entries
            krho = _rho_multiple(rs, k)
            krho = dual_chain(krho) if dual else krho
            for p, e in enumerate(w.entries):
                if blocks[p] > k:
                    continue
                assert other[p + shift] == e
                moved = krho.entries[p + shift]
                lift = 0 if dual else k * pairing(rs.rho, e.root)
                assert (moved.root, moved.level) == (e.root, e.level + lift)


def test_window_rejects_bad_copies():
    rs = RootSystem.from_type("A2")
    with pytest.raises(ValueError):
        window(rs, 0)


def test_chain_json():
    rs = RootSystem.from_type("A2")
    data = chain_to_json(lex_chain(rs, (1, 1)))
    assert data == [
        {"root": [0, 1], "level": 0},
        {"root": [1, 1], "level": 0},
        {"root": [1, 0], "level": 0},
        {"root": [1, 1], "level": 1},
    ]
