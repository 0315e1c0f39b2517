"""Root system construction, reflections, and Weyl group lengths."""

from __future__ import annotations

from fractions import Fraction

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
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    raise AssertionError(family)


EVERY_TYPE = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{family}{n}" for family in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("type_string", EVERY_TYPE)
def test_positive_root_counts_match_family_formula(type_string):
    """The closure's root count, and the reflection table against
    gamma -> gamma - <gamma, beta^vee> beta from the Cartan matrix: each
    entry is an involution sending beta to -beta, and ``reflection`` reads
    it."""
    rs = RootSystem.from_type(type_string)
    family, n = type_string[0], int(type_string[1:])
    npos = len(rs.positive_roots)
    assert npos == expected_count(family, n)
    a = rs.cartan.matrix
    index = {r.coeffs: k for k, r in enumerate(rs.roots)}
    assert len(rs.reflections) == len(rs.roots) == 2 * npos
    for k, beta in enumerate(rs.roots):
        perm = rs.reflections[k]
        # <alpha_j, beta^vee> for each simple root alpha_j
        ad = [sum(a[j][m] * beta.cocoeffs[m] for m in range(n)) for j in range(n)]
        images = []
        for gamma in rs.roots:
            c = sum(g * x for g, x in zip(gamma.coeffs, ad))
            images.append(index[tuple(g - c * b for g, b in zip(gamma.coeffs, beta.coeffs))])
        assert perm == bytes(images) + bytes(range(2 * npos, 256)), (k, beta)
        assert perm.translate(perm) == bytes(range(256))
        assert perm[k] == index[(-beta).coeffs] == (k + npos) % (2 * npos)
        assert rs.reflection(beta).perm is perm


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


def cartan_weight_coords(rs, coeffs):
    """A^T c from the Cartan matrix: simple-root coordinates ``coeffs`` in the
    fundamental-weight basis, computed here, not through the library."""
    a = rs.cartan.matrix
    return tuple(sum(c * a[j][i] for j, c in enumerate(coeffs)) for i in range(rs.rank))


@pytest.mark.parametrize("type_string", EVERY_TYPE)
def test_root_weight_table_is_the_cartan_transpose(type_string):
    rs = RootSystem.from_type(type_string)
    assert len(rs.root_weights) == len(rs.roots)
    for k, root in enumerate(rs.roots):
        assert rs.root_weights[k] == cartan_weight_coords(rs, root.coeffs), root
        assert rs.root_in_weight_coords(root) == rs.root_weights[k]


def test_simple_index_refuses_what_is_not_an_index():
    rs = RootSystem.from_type("A3")
    for i in rs.index_set:
        assert rs.roots[rs.simple_index(i)] == rs.simple_root(i)
    # True hashes and compares as 1, so the check has to come before the lookup
    for bad in (0, rs.rank + 1, True, 1.0, "1"):
        with pytest.raises(ValueError, match="outside index set"):
            rs.simple_index(bad)


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


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _mat_mul(m1, m2):
    cols = tuple(zip(*m2))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in m1)


def _reference_reflection(rs, root):
    """The reflection through ``root`` as a pair of integer matrices, on
    simple-root coordinates (gamma -> gamma - <gamma, root^vee> root) and on
    fundamental-weight coordinates (lam -> lam - <lam, root^vee> root), built
    from the Cartan matrix alone."""
    a = rs.cartan.matrix
    n = rs.rank
    b, d = root.coeffs, root.cocoeffs
    ad = [sum(a[j][k] * d[k] for k in range(n)) for j in range(n)]
    atb = [sum(b[j] * a[j][i] for j in range(n)) for i in range(n)]
    rmat = tuple(tuple(int(k == j) - b[k] * ad[j] for j in range(n)) for k in range(n))
    wmat = tuple(tuple(int(k == j) - atb[k] * d[j] for j in range(n)) for k in range(n))
    return rmat, wmat


def _weyl_group(rs):
    """Every element of W as (element, root matrix, weight matrix, length of
    its shortest word), by breadth-first search over simple reflections,
    keyed by the root matrix; each step multiplies both the element and the
    reference matrices."""
    eye = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    simple = [
        (rs.simple_reflection(i), *_reference_reflection(rs, rs.simple_root(i)))
        for i in rs.index_set
    ]
    start = (rs.identity_element(), eye, eye, 0)
    found = {eye: start}
    frontier = [start]
    while frontier:
        nxt = []
        for w, rmat, wmat, dist in frontier:
            for s, s_rmat, s_wmat in simple:
                key = _mat_mul(rmat, s_rmat)
                if key not in found:
                    found[key] = (w * s, key, _mat_mul(wmat, s_wmat), dist + 1)
                    nxt.append(found[key])
        frontier = nxt
    return list(found.values())


@pytest.mark.parametrize(
    "type_string,order",
    [("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("D4", 192), ("F4", 1152)],
)
def test_length_matches_shortest_word(type_string, order):
    """The root permutations against the reference matrices on every element
    of W: the action on every root and on a generic weight, the product with
    every reflection, and the length against the shortest word."""
    rs = RootSystem.from_type(type_string)
    group = _weyl_group(rs)
    assert len(group) == order
    assert len({w for w, _, _, _ in group}) == order
    by_rmat = {rmat: w for w, rmat, _, _ in group}
    reflections = [(rs.reflection(r), _reference_reflection(rs, r)[0]) for r in rs.roots]
    weight = (3, 5, 7, 11)[: rs.rank]
    for w, rmat, wmat, dist in group:
        for r in rs.roots:
            assert w.apply_root_coeffs(r.coeffs) == _mat_vec(rmat, r.coeffs)
        assert w.apply_weight(weight) == _mat_vec(wmat, weight)
        assert rs.length(w) == dist
        for s, s_rmat in reflections:
            assert w * s == by_rmat[_mat_mul(rmat, s_rmat)]


def test_is_cover_examples():
    rs = RootSystem.from_type("A2")
    a12 = rs.root_from_coeffs((1, 1))
    s1 = rs.simple_reflection(1)
    assert rs.is_cover(s1, a12)
    # the reflection of a non-simple root jumps length by more than one
    assert not rs.is_cover(rs.identity_element(), a12)


def type_a_rows(n):
    """The Cartan matrix of type A_n, for ranks past the named types."""
    return [[2 if i == j else -int(abs(i - j) == 1) for j in range(n)] for i in range(n)]


def test_more_than_128_positive_roots_rejected():
    # A16 has 136 positive roots; a Weyl element permutes at most 256 roots
    rs = RootSystem.from_matrix(type_a_rows(16))
    with pytest.raises(ValueError, match="136 positive roots: at most 128"):
        rs.positive_roots


def test_128_roots_fit():
    rs = RootSystem.from_matrix(type_a_rows(15))
    assert len(rs.positive_roots) == 120 and len(rs.roots) == 240
    highest = rs.positive_roots[-1]
    assert highest.coeffs == (1,) * 15
    s = rs.reflection(highest)
    assert rs.length(s) == 2 * highest.height - 1
    assert s.apply_root_coeffs(highest.coeffs) == (-1,) * 15
    assert s * s == rs.identity_element()


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


def bourbaki_simple_roots(family: str, n: int) -> list:
    """Bourbaki's simple roots of a type in Euclidean coordinates
    e_1, ..., e_9 (*Lie Groups and Lie Algebras*, Ch. VI, Plates I-IX); E6
    and E7 are the first 6 and 7 roots of E8."""

    def vec(*terms):
        v = [Fraction(0)] * 9
        for k, c in terms:
            v[k - 1] += Fraction(c)
        return v

    half = Fraction(1, 2)
    path = [vec((i, 1), (i + 1, -1)) for i in range(1, n)]
    if family == "A":
        return path + [vec((n, 1), (n + 1, -1))]
    if family == "B":
        return path + [vec((n, 1))]
    if family == "C":
        return path + [vec((n, 2))]
    if family == "D":
        return path + [vec((n - 1, 1), (n, 1))]
    if family == "E":
        first = vec((1, half), (8, half), *((k, -half) for k in range(2, 8)))
        rest = [vec((i - 1, 1), (i - 2, -1)) for i in range(3, n + 1)]
        return [first, vec((1, 1), (2, 1)), *rest]
    if family == "F":
        last = vec((1, half), (2, -half), (3, -half), (4, -half))
        return [vec((2, 1), (3, -1)), vec((3, 1), (4, -1)), vec((4, 1)), last]
    if family == "G":
        return [vec((1, 1), (2, -1)), vec((1, -2), (2, 1), (3, 1))]
    raise AssertionError(family)


@pytest.mark.parametrize("type_string", EVERY_TYPE)
def test_cartan_matrix_matches_bourbaki_simple_roots(type_string):
    # a_ij = <alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j),
    # from the roots alone: an oracle that shares no code with rootsys
    roots = bourbaki_simple_roots(type_string[0], int(type_string[1:]))

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    expected = tuple(tuple(2 * dot(a, b) / dot(b, b) for b in roots) for a in roots)
    assert cartan_matrix(type_string) == expected


def test_root_string():
    rs = RootSystem.from_type("B2")
    assert root_string(rs.root_from_coeffs((1, 0))) == "α1"
    assert root_string(rs.root_from_coeffs((1, 2))) == "α1+2α2"
    assert root_string(-rs.root_from_coeffs((1, 1))) == "-α1-α2"
