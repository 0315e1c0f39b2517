"""Root system construction, reflections, and Weyl group lengths."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcovecrystals.rootsys import (
    RootSystem,
    cartan_matrix,
    pairing,
    root_string,
)


def expected_count(family: str, n: int) -> int:
    if family == "A":
        return n * (n + 1) // 2
    if family in ("B", "C"):
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "G":
        return 6
    if family == "F":
        return 24
    raise AssertionError(family)


@pytest.mark.parametrize(
    "type_string",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "D3", "D4", "G2", "F4"],
)
def test_positive_root_counts_match_family_formula(type_string):
    rs = RootSystem.from_type(type_string)
    family, n = type_string[0], int(type_string[1:])
    assert len(rs.positive_roots) == expected_count(family, n)


def test_a2_positive_roots():
    rs = RootSystem.from_type("A2")
    assert {r.coeffs for r in rs.positive_roots} == {(1, 0), (0, 1), (1, 1)}
    # height, then lexicographic on coordinates
    assert [r.coeffs for r in rs.positive_roots] == [(0, 1), (1, 0), (1, 1)]


def test_b2_roots_and_coroots():
    rs = RootSystem.from_type("B2")
    table = {r.coeffs: r.cocoeffs for r in rs.positive_roots}
    assert table == {
        (1, 0): (1, 0),
        (0, 1): (0, 1),
        (1, 1): (2, 1),
        (1, 2): (1, 1),
    }


def test_g2_positive_roots():
    rs = RootSystem.from_type("G2")
    assert {r.coeffs for r in rs.positive_roots} == {
        (1, 0),
        (0, 1),
        (1, 1),
        (2, 1),
        (3, 1),
        (3, 2),
    }


def test_pairing_is_kronecker_on_fundamental_weights():
    for type_string in ("A3", "B2", "G2"):
        rs = RootSystem.from_type(type_string)
        for i in rs.index_set:
            for j in rs.index_set:
                lam = tuple(int(k == i) for k in rs.index_set)
                assert pairing(lam, rs.simple_root(j)) == int(i == j)


def test_root_in_weight_coords_uses_cartan_rows():
    rs = RootSystem.from_type("B2")
    assert rs.root_in_weight_coords(rs.simple_root(1)) == (2, -2)
    assert rs.root_in_weight_coords(rs.simple_root(2)) == (-1, 2)


@given(
    st.sampled_from(["A2", "A3", "B2", "C2", "G2"]),
    st.data(),
)
def test_reflect_is_an_involution(type_string, data):
    rs = RootSystem.from_type(type_string)
    weight = tuple(
        data.draw(st.integers(min_value=-4, max_value=4)) for _ in rs.index_set
    )
    root = data.draw(st.sampled_from(rs.positive_roots))
    assert rs.reflect(root, rs.reflect(root, weight)) == weight


def test_reflection_contravariance():
    # pairing(s_i(w), alpha_j^vee) == pairing(w, s_i(alpha_j)^vee)
    for type_string in ("A3", "B2", "G2"):
        rs = RootSystem.from_type(type_string)
        weight = tuple(range(1, rs.rank + 1))
        for i in rs.index_set:
            si = rs.simple_reflection(i)
            reflected = si.apply_weight(weight)
            for j in rs.index_set:
                image = rs.root_from_coeffs(si.apply_root_coeffs(rs.simple_root(j).coeffs))
                assert pairing(reflected, rs.simple_root(j)) == pairing(weight, image)


def test_affine_reflect_examples():
    rs = RootSystem.from_type("A2")
    a1 = rs.root_from_coeffs((1, 0))
    a12 = rs.root_from_coeffs((1, 1))
    origin = (0, 0)
    assert rs.affine_reflect(a1, 1, origin) == (2, -1)
    assert rs.affine_reflect(a12, 1, origin) == (1, 1)
    # level 0 reduces to the linear reflection
    assert rs.affine_reflect(a1, 0, (1, 1)) == rs.reflect(a1, (1, 1))


def _bfs_lengths(rs):
    """Map every Weyl element (by its root-coordinate matrix) to its
    shortest-word length, by breadth-first search over simple reflections."""
    start = rs.identity_element()
    dist = {start.rmat: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in rs.index_set:
                v = w * rs.simple_reflection(i)
                if v.rmat not in dist:
                    dist[v.rmat] = dist[w.rmat] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@pytest.mark.parametrize(
    "type_string,order",
    [("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("D4", 192), ("F4", 1152)],
)
def test_length_matches_shortest_word(type_string, order):
    """Lengths, and the memoized action and reflection products, agree with
    the matrices on every element of W."""
    rs = RootSystem.from_type(type_string)
    dist = _bfs_lengths(rs)
    assert len(dist) == order
    start = rs.identity_element()
    seen = {start.rmat: start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in rs.index_set:
                v = w * rs.simple_reflection(i)
                if v.rmat not in seen:
                    seen[v.rmat] = v
                    nxt.append(v)
        frontier = nxt
    roots = [*rs.positive_roots, *(-r for r in rs.positive_roots)]
    for rmat, w in seen.items():
        action = rs.root_action(w)
        assert len(action) == len(roots)
        for r in roots:
            assert action[r.coeffs] == w.apply_root_coeffs(r.coeffs)
        assert rs.length(w) == dist[rmat]
        assert rs.length(w) == dist[rmat]  # now read from the memo
        for r in roots:
            assert rs.times_reflection(w, r) == w * rs.reflection(r)
    # the products landed on the elements already met, one object each
    assert len(rs._weyl) == order
    for w in seen.values():
        for r in roots:
            v = rs.times_reflection(w, r)
            assert v is rs._weyl[v.rmat].element


def test_is_cover_examples():
    rs = RootSystem.from_type("A2")
    a12 = rs.root_from_coeffs((1, 1))
    s1 = rs.simple_reflection(1)
    assert rs.is_cover(s1, a12)
    # the reflection of a non-simple root jumps length by more than one
    assert not rs.is_cover(rs.identity_element(), a12)


def test_infinite_root_system_aborts():
    rs = RootSystem.from_matrix([[2, -2], [-2, 2]])
    with pytest.raises(ValueError, match="infinite root system"):
        rs.positive_roots


@pytest.mark.parametrize("bad", ["H3", "E9", "B1", "F5", "G3", "A0", "A9", "foo"])
def test_unknown_type_strings_rejected(bad):
    with pytest.raises(ValueError):
        cartan_matrix(bad)


def test_named_matrices():
    assert cartan_matrix("B2") == ((2, -2), (-1, 2))
    assert cartan_matrix("C2") == ((2, -1), (-2, 2))
    assert cartan_matrix("G2") == ((2, -1), (-3, 2))
    assert cartan_matrix("F4") == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_root_string():
    rs = RootSystem.from_type("B2")
    assert root_string(rs.root_from_coeffs((1, 0))) == "α1"
    assert root_string(rs.root_from_coeffs((1, 2))) == "α1+2α2"
    assert root_string(-rs.root_from_coeffs((1, 1))) == "-α1-α2"
