"""Path operator tests, pinned against hand-worked rank-2 computations."""

from __future__ import annotations

from fractions import Fraction

import pytest

from alcovecrystals import littelmann as lp
from alcovecrystals.rootsys import RootSystem, pairing

A2 = RootSystem.from_type("A2")
B2 = RootSystem.from_type("B2")

Q = Fraction


def segs(path):
    return tuple((tuple(v), d) for v, d in path.segments)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_straight_path_shape():
    p = lp.straight_path(A2, (1, 0))
    assert segs(p) == (((1, 0), 1),)
    assert lp.weight(p) == (1, 0)


def test_zero_durations_and_merges_vanish():
    p = lp.PLPath(
        A2,
        "finite",
        (((1, 0), Q(1, 2)), ((1, 0), Q(0)), ((1, 0), Q(1, 2))),
    )
    assert segs(p) == (((1, 0), 1),)


def test_finite_paths_must_have_unit_duration():
    with pytest.raises(ValueError):
        lp.PLPath(A2, "finite", (((1, 0), Q(1, 2)),))


def test_ray_runs_are_absorbed():
    p = lp.PLPath(A2, "extended", (((0, 1), 1), ((1, 1), 3)))
    assert segs(p) == (((0, 1), 1),)
    q = lp.PLPath(A2, "co-extended", (((1, 1), 2), ((0, 1), 1)))
    assert segs(q) == (((0, 1), 1),)
    assert lp.pi_infinity(A2).segments == ()
    assert lp.xi_infinity(A2).segments == ()


def test_integer_form():
    r = lp.f_op(lp.f_op(lp.straight_path(A2, (1, 1)), 1), 2)
    assert (r.den, r.times, r.points) == (2, (0, 1, 2), ((0, 0), (1, -2), (0, 0)))
    assert (lp.epsilon(r, 2), lp.phi(r, 2)) == (1, 1)
    co = lp.e_op(lp.xi_infinity(A2), 1)
    assert (co.den, co.times, co.points) == (1, (-1, 0), ((-1, -1), (-2, 1)))
    with pytest.raises(AttributeError):
        r.den = 4


def test_from_vertices_canonicalizes_and_validates():
    # a zero-length piece, a split piece, a factor 3 and a rho piece at the ray
    p = lp.PLPath.from_vertices(
        A2, "extended", 6, (0, 3, 3, 6, 9), ((0, 0), (0, 3), (0, 3), (0, 6), (3, 9))
    )
    assert p == lp.PLPath(A2, "extended", (((0, 1), 1),))
    assert (p.den, p.times, p.points) == (1, (0, 1), ((0, 0), (0, 1)))
    for kind, den, times, points in [
        ("finite", 0, (0, 1), ((0, 0), (1, 0))),
        ("finite", 2, (0, 1), ((0, 0), (1, 0))),
        ("finite", 1, (0, 1), ((1, 0), (1, 0))),
        ("extended", 1, (0, 2, 1), ((0, 0), (1, 0), (1, 1))),
        ("co-extended", 1, (-1, 0), ((0, 0), (1, 0))),
        ("co-extended", 1, (-2, -1), ((-2, -2), (1, 0))),
        ("finite", 1, (0, 1), ((0, 0), (1, 0, 0))),
        ("straight", 1, (0, 1), ((0, 0), (1, 0))),
        ("finite", 1, (0, 1.0), ((0, 0), (1, 0))),
        ("finite", 2, (0, 2), ((0, 0), (Q(1, 2), 0))),
        # booleans are no integers here: each of these would be the path to (1, 0)
        ("finite", True, (0, True), ((0, 0), (True, False))),
        ("finite", 1, (0, 1), ((0, 0), (True, 0))),
        ("finite", 1, (False, 1), ((0, 0), (1, 0))),
        # nor are strings
        ("finite", 1, (0, 1), ((0, 0), ("1", 0))),
        ("finite", "1", (0, "1"), ((0, 0), (1, 0))),
    ]:
        with pytest.raises(ValueError):
            lp.PLPath.from_vertices(A2, kind, den, times, points)
    # one rule set: the same bad path is refused alike as segments and as vertices
    for kind, segments, den, times, points in [
        ("finite", (((1, 0), Q(1, 2)),), 2, (0, 1), ((0, 0), (1, 0))),
        ("extended", (((1, 0), -1),), 1, (0, -1), ((0, 0), (-1, 0))),
        ("straight", (((1, 0), 1),), 1, (0, 1), ((0, 0), (1, 0))),
    ]:
        with pytest.raises(ValueError) as as_segments:
            lp.PLPath(A2, kind, segments)
        with pytest.raises(ValueError) as as_vertices:
            lp.PLPath.from_vertices(A2, kind, den, times, points)
        assert str(as_segments.value) == str(as_vertices.value), kind


def test_floats_are_rejected():
    with pytest.raises(ValueError, match="float"):
        lp.PLPath(A2, "extended", (((1, 0), 0.1),))
    with pytest.raises(ValueError, match="float"):
        lp.PLPath(A2, "finite", (((1.5, 0), 1),))
    with pytest.raises(ValueError, match="float"):
        lp.PLPath(A2, "finite", (((1, 0), 1.0),))
    with pytest.raises(ValueError, match="float"):
        lp.straight_path(A2, (0.5, 0))
    p = lp.PLPath(A2, "extended", (((1, 0), Q(1, 10)),))
    assert (p.den, p.times, p.points) == (10, (0, 1), ((0, 0), (1, 0)))


def test_booleans_are_refused():
    # True and False would pass for 1 and 0, and "1" and "0" would be parsed
    # as them; chains refuse both too, and
    # test_from_vertices_canonicalizes_and_validates covers from_vertices
    with pytest.raises(ValueError, match="bool"):
        lp.PLPath(A2, "finite", (((True, False), True),))
    with pytest.raises(ValueError, match="bool"):
        lp.PLPath(A2, "finite", (((1, 0), True),))
    with pytest.raises(ValueError, match="bool"):
        lp.straight_path(A2, (True, False))
    with pytest.raises(ValueError, match="str"):
        lp.PLPath(A2, "finite", ((("1", "0"), "1"),))
    with pytest.raises(ValueError, match="str"):
        lp.PLPath(A2, "finite", (((1, 0), "1"),))
    with pytest.raises(ValueError, match="str"):
        lp.straight_path(A2, ("1", "0"))


# ---------------------------------------------------------------------------
# finite operators


def test_lowering_the_first_fundamental_a2():
    p = lp.straight_path(A2, (1, 0))
    down = lp.f_op(p, 1)
    assert segs(down) == (((-1, 1), 1),)
    assert (lp.epsilon(down, 1), lp.phi(down, 1)) == (1, 0)
    assert lp.e_op(p, 1) is None
    assert lp.e_op(p, 2) is None
    assert lp.f_op(p, 2) is None
    back = lp.e_op(down, 1)
    assert back == p


@pytest.mark.parametrize("bad", [0, 3, "1", True, 1.0], ids=repr)
def test_direction_index_is_checked(bad):
    # True and 1.0 compare equal to 1; neither may act as direction 1
    for p in (lp.straight_path(A2, (1, 1)), lp.pi_infinity(A2), lp.xi_infinity(A2)):
        for fn in (lp.f_op, lp.e_op, lp.epsilon, lp.phi):
            with pytest.raises(ValueError, match="outside index set"):
                fn(p, bad)


def test_first_fundamental_closure_has_three_paths():
    seen = {lp.straight_path(A2, (1, 0))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for i in (1, 2):
                q = lp.f_op(p, i)
                if q is not None and q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    assert len(seen) == 3
    assert {lp.weight(p) for p in seen} == {(1, 0), (-1, 1), (0, -1)}


def test_statistics_on_the_rho_closure():
    seen = {lp.straight_path(A2, (1, 1))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for i in (1, 2):
                q = lp.f_op(p, i)
                if q is not None and q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    assert len(seen) == 8
    for p in seen:
        for i in (1, 2):
            gap = lp.phi(p, i) - lp.epsilon(p, i)
            assert gap == pairing(lp.weight(p), A2.simple_root(i))
            down = lp.f_op(p, i)
            if down is not None:
                assert lp.e_op(down, i) == p
                assert lp.epsilon(down, i) == lp.epsilon(p, i) + 1


def test_operators_split_segments_exactly():
    p = lp.straight_path(A2, (1, 1))
    q = lp.f_op(p, 1)
    assert segs(q) == (((-1, 2), 1),)
    r = lp.f_op(q, 2)
    assert segs(r) == (((1, -2), Q(1, 2)), ((-1, 2), Q(1, 2)))
    assert lp.weight(r) == (0, 0)
    assert lp.e_op(lp.e_op(r, 2), 1) == p


def test_non_integral_profile_is_rejected():
    bad = lp.PLPath(A2, "finite", (((-1, 0), Q(1, 2)), ((1, 0), Q(1, 2))))
    with pytest.raises(ValueError):
        lp.e_op(bad, 1)


# ---------------------------------------------------------------------------
# extended operators


def test_lowering_the_plain_ray():
    p = lp.pi_infinity(A2)
    down = lp.f_op(p, 1)
    assert segs(down) == (((-1, 2), 1),)
    assert lp.weight(down) == (-2, 1)
    assert lp.e_op(p, 1) is None
    assert lp.e_op(down, 1) == p


def test_repeated_lowering_materializes_the_ray():
    p = lp.pi_infinity(A2)
    twice = lp.f_op(lp.f_op(p, 1), 1)
    assert segs(twice) == (((-1, 2), 2),)
    assert lp.weight(twice) == (-4, 2)
    mixed = lp.f_op(lp.f_op(p, 1), 2)
    assert segs(mixed) == (((1, -2), Q(1, 2)), ((-1, 2), Q(1, 2)))
    assert lp.weight(mixed) == (-1, -1)


def test_extended_statistics():
    p = lp.f_op(lp.pi_infinity(A2), 1)
    assert lp.epsilon(p, 1) == 1
    assert lp.phi(p, 1) == -1
    assert lp.epsilon(p, 2) == 0
    assert lp.phi(p, 2) == 1
    assert lp.weight(lp.pi_infinity(A2)) == (0, 0)


def test_extended_lowering_never_stops():
    p = lp.pi_infinity(B2)
    for i in (1, 2, 1, 1, 2, 2, 1):
        p = lp.f_op(p, i)
        assert p is not None
    back = p
    for i in (1, 2, 2, 1, 1, 2, 1):
        back = lp.e_op(back, i)
    assert back == lp.pi_infinity(B2)


# ---------------------------------------------------------------------------
# co-extended operators, obtained by transport


def test_coextended_boundary_values():
    xi = lp.xi_infinity(A2)
    assert lp.weight(xi) == (0, 0)
    assert lp.epsilon(xi, 1) == 0
    assert lp.f_op(xi, 1) is None
    up = lp.e_op(xi, 1)
    assert up is not None
    assert segs(up) == (((-1, 2), 1),)
    assert lp.weight(up) == (2, -1)
    assert lp.epsilon(up, 1) == -1
    assert lp.f_op(up, 1) == xi


def test_coextended_raising_is_total():
    xi = lp.xi_infinity(A2)
    for i in (1, 2, 1, 2, 2, 1):
        xi = lp.e_op(xi, i)
        assert xi is not None
    assert lp.weight(xi) == tuple(
        3 * a + 3 * b for a, b in zip(A2.root_in_weight_coords(A2.simple_root(1)),
                                      A2.root_in_weight_coords(A2.simple_root(2)))
    )


# ---------------------------------------------------------------------------
# dualize


def test_dualize_straight_paths():
    p = lp.straight_path(A2, (1, 1))
    d = lp.dualize(p)
    assert segs(d) == (((-1, -1), 1),)
    assert lp.dualize(d) == p


def test_dualize_swaps_the_unbounded_kinds():
    assert lp.dualize(lp.pi_infinity(A2)) == lp.xi_infinity(A2)
    assert lp.dualize(lp.xi_infinity(A2)) == lp.pi_infinity(A2)
    p = lp.f_op(lp.f_op(lp.pi_infinity(A2), 1), 2)
    assert lp.dualize(lp.dualize(p)) == p
    assert lp.weight(lp.dualize(p)) == tuple(-c for c in lp.weight(p))


def test_dualize_intertwines_the_operators():
    closure = {lp.straight_path(A2, (2, 1))}
    frontier = list(closure)
    for _ in range(3):
        nxt = []
        for p in frontier:
            for i in (1, 2):
                q = lp.f_op(p, i)
                if q is not None and q not in closure:
                    closure.add(q)
                    nxt.append(q)
        frontier = nxt
    for p in closure:
        for i in (1, 2):
            lhs = lp.f_op(lp.dualize(p), i)
            rhs = lp.e_op(p, i)
            if rhs is None:
                assert lhs is None
            else:
                assert lhs == lp.dualize(rhs)
            assert lp.epsilon(lp.dualize(p), i) == lp.phi(p, i)


# ---------------------------------------------------------------------------
# concatenation


def concat(first, second):
    """Join two paths end to start.

    Two finite paths are each compressed into half the unit interval; a finite
    prefix to an extended path (or a finite suffix after a co-extended one)
    attaches without compression.  Other combinations have no meaning here.
    """
    if first.rs != second.rs:
        raise ValueError("paths live over different root systems")
    if first.kind == "finite" and second.kind == "finite":
        segments = [(tuple(2 * c for c in v), d / 2) for v, d in first.segments + second.segments]
        return lp.PLPath(first.rs, "finite", tuple(segments))
    if first.kind == "finite" and second.kind == "extended":
        return lp.PLPath(first.rs, "extended", first.segments + second.segments)
    if first.kind == "co-extended" and second.kind == "finite":
        return lp.PLPath(first.rs, "co-extended", first.segments + second.segments)
    raise ValueError(f"cannot concatenate {first.kind} with {second.kind}")


def test_concat_compresses_two_finite_paths():
    a = lp.straight_path(A2, (1, 0))
    b = lp.straight_path(A2, (0, 1))
    joined = concat(a, b)
    assert segs(joined) == (((2, 0), Q(1, 2)), ((0, 2), Q(1, 2)))
    assert lp.weight(joined) == (1, 1)


def test_concat_with_the_unbounded_kinds():
    a = lp.straight_path(A2, (1, 0))
    ext = concat(a, lp.pi_infinity(A2))
    assert ext.kind == "extended"
    assert segs(ext) == (((1, 0), 1),)
    co = concat(lp.xi_infinity(A2), a)
    assert co.kind == "co-extended"
    assert segs(co) == (((1, 0), 1),)
    with pytest.raises(ValueError):
        concat(lp.pi_infinity(A2), a)
    with pytest.raises(ValueError):
        concat(a, lp.xi_infinity(A2))


def test_concat_requires_one_root_system():
    with pytest.raises(ValueError):
        concat(lp.straight_path(A2, (1, 0)), lp.straight_path(B2, (1, 0)))


# ---------------------------------------------------------------------------
# rendering and serialization


def test_render_and_json():
    p = lp.f_op(lp.pi_infinity(A2), 1)
    assert lp.render_path(p) == "extended: (-1, 2) for 1 then the rho ray"
    assert lp.render_path(lp.xi_infinity(A2)) == "co-extended: the rho ray then nothing"
    doc = lp.path_to_json(p)
    assert doc == {
        "kind": "extended",
        "segments": [{"velocity": ["-1", "2"], "duration": "1"}],
    }
    half = lp.f_op(lp.f_op(lp.straight_path(A2, (1, 1)), 1), 2)
    assert "1/2" in lp.render_path(half)
