"""Alcove-to-path transports and the dual isomorphism check."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from alcovecrystals import alcove as al
from alcovecrystals import crystalgraph as cg
from alcovecrystals import littelmann as lp
from alcovecrystals.chains import LambdaChain, _rho_multiple, dual_chain, lex_chain, window
from alcovecrystals.limits import varpi, varpi_dual, varpi_dual_infinity, varpi_infinity
from alcovecrystals.rootsys import RootSystem, pairing

from test_alcove import element_from_pairs

A2 = RootSystem.from_type("A2")
A3 = RootSystem.from_type("A3")
B2 = RootSystem.from_type("B2")


def crystal(chain, depth=None):
    """The crystal of a chain or window, enumerated from its empty element."""
    return cg.enumerate_crystal(cg.alcove_ops(chain), [al.element(chain, [])], depth=depth)


def window_truncation(rs, depth, dual=False):
    return crystal(window(rs, 1, dual=dual), depth)


def path_crystal(rs, lam):
    return cg.enumerate_crystal(cg.path_ops(rs), [lp.straight_path(rs, lam)])


def path_truncation(rs, depth, kind):
    seed = lp.pi_infinity(rs) if kind == "extended" else lp.xi_infinity(rs)
    return cg.enumerate_crystal(cg.path_ops(rs, kind), [seed], depth=depth)


# ---------------------------------------------------------------------------
# finite transport


def test_empty_element_maps_to_the_straight_path():
    chain = lex_chain(A2, (1, 1))
    path = varpi(al.element(chain, []))
    assert path.kind == "finite"
    assert path.segments == (((-1, -1), Fraction(1)),)


def test_single_zero_level_fold_reflects_the_whole_path():
    chain = lex_chain(A2, (1, 1))
    el = element_from_pairs(chain, [(((1, 0)), 0)])
    path = varpi(el)
    assert path.segments == (((1, -2), Fraction(1)),)


def test_weights_negate_across_the_transport():
    chain = lex_chain(A2, (1, 1))
    for el in crystal(chain).nodes:
        assert lp.weight(varpi(el)) == tuple(-c for c in al.weight(el))


def test_transport_breaks_times_at_distinct_crossings():
    chain = lex_chain(A3, (2, 0, 0))
    el = al.element(chain, [0, 4])
    path = varpi(el)
    assert sum(d for _, d in path.segments) == 1
    assert len(path.segments) >= 2


def reference_varpi(el) -> lp.PLPath:
    """The finite transport with each run direction computed as minus the
    running product of the crossed reflections applied to the chain weight,
    sharing nothing with the folded chain."""
    rs = el.rs
    lam = tuple(el.chain.lam)
    events = []
    for p in el.positions:
        entry = el.chain.entries[p]
        events.append((Fraction(entry.level, pairing(lam, entry.root)), entry.root))
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
            w = w * rs.reflection(events[j][1])
    return lp.PLPath.from_vertices(rs, "finite", den, times, points)


def same_path(a, b) -> bool:
    return (a.kind, a.den, a.times, a.points) == (b.kind, b.den, b.times, b.points)


VARPI_CRYSTALS = [
    (t, lam) for t in ("A2", "B2", "G2") for lam in product(range(3), repeat=2)
] + [("A3", (1, 1, 1))]


@pytest.mark.parametrize(
    "type_string, lam", VARPI_CRYSTALS, ids=[f"{t}-{lam}" for t, lam in VARPI_CRYSTALS]
)
def test_varpi_matches_the_reflection_product_reference(type_string, lam):
    """varpi and varpi_dual agree path for path with the reference on every
    element of Al(lam) and of its dual."""
    elements = crystal(lex_chain(RootSystem.from_type(type_string), lam)).nodes
    for el in elements:
        assert same_path(varpi(el), reference_varpi(el)), el
        dual = al.mirror(el)
        assert same_path(varpi_dual(dual), lp.dualize(reference_varpi(al.mirror(dual)))), dual
    assert len(elements) > 1 or lam == (0, 0)


def test_varpi_rejects_wrong_models():
    chain = lex_chain(A2, (1, 1))
    with pytest.raises(ValueError):
        varpi(al.element(window(A2, 1), []))
    with pytest.raises(ValueError):
        varpi(al.element(dual_chain(chain), []))


def test_varpi_rejects_out_of_order_chains():
    entries = (
        lex_chain(A2, (1, 1)).entries[3],
        lex_chain(A2, (1, 1)).entries[2],
    )
    scrambled = LambdaChain(A2, (1, 1), entries)
    with pytest.raises(ValueError):
        varpi(al.element(scrambled, [0, 1]))


def test_finite_transport_is_a_dual_isomorphism():
    report = cg.check_dual_iso(crystal(lex_chain(A2, (1, 1))), varpi, path_crystal(A2, (1, 1)))
    assert report.checked == 8
    assert report.ok, report.failures


def test_finite_transport_dual_iso_beyond_type_a():
    report = cg.check_dual_iso(crystal(lex_chain(B2, (1, 1))), varpi, path_crystal(B2, (1, 1)))
    assert report.checked == 16
    assert report.ok, report.failures


# ---------------------------------------------------------------------------
# finite dual transport


def test_dual_empty_element_maps_to_the_dominant_path():
    chain = dual_chain(lex_chain(A2, (1, 1)))
    path = varpi_dual(al.element(chain, []))
    assert path.segments == (((1, 1), Fraction(1)),)


def test_dual_transport_is_a_dual_isomorphism():
    source = crystal(dual_chain(lex_chain(A3, (1, 0, 0))))
    report = cg.check_dual_iso(source, varpi_dual, path_crystal(A3, (1, 0, 0)))
    assert report.checked == 4
    assert report.ok, report.failures


def test_dual_transport_rejects_primal_input():
    with pytest.raises(ValueError):
        varpi_dual(al.element(lex_chain(A2, (1, 1)), []))


# ---------------------------------------------------------------------------
# unbounded transport


def test_empty_window_element_maps_to_the_incoming_ray():
    path = varpi_infinity(al.element(window(A2, 1), []))
    assert path == lp.xi_infinity(A2)


def test_single_fold_window_image_matches_the_ray_raise():
    el = element_from_pairs(window(A2, 1), [((1, 0), -1)])
    path = varpi_infinity(el)
    assert path == lp.e_op(lp.xi_infinity(A2), 1)
    assert path.segments == (((-1, 2), Fraction(1)),)
    assert (path.den, path.times[-1], path.points[-1]) == (1, 0, (-2, 1))
    assert lp.weight(path) == (2, -1)


def reference_varpi_infinity(el, k) -> lp.PLPath:
    """The unbounded transport through a finite crystal: the element is
    projected onto the chain of k * rho and transported there by ``varpi``;
    slowed down by k and negated, that path ends at time 0 and starts where
    the incoming rho-ray is at time -k."""
    image = al.project_Spr(el, k)
    if image is None:
        raise ValueError(f"no projection onto {k} copies")
    finite = varpi(image)
    start = k * finite.den
    return lp.PLPath.from_vertices(
        el.rs,
        "co-extended",
        finite.den,
        [k * t - start for t in finite.times],
        [tuple(-start - c for c in p) for p in finite.points],
    )


def least_copies(el) -> int:
    """The fewest copies of rho a window element projects onto, at least one."""
    return max(1, el.chain.deepest_block(el.positions))


# window pools, as depths, on which the unbounded transports meet their references
REFERENCE_DEPTHS = {"A2": 4, "B2": 4, "G2": 4, "C3": 4, "D4": 3, "F4": 3}


def test_unbounded_transport_is_copy_independent():
    """The direct transport agrees with the projection route for every
    number of copies from the least one to two more."""
    for type_string, depth in REFERENCE_DEPTHS.items():
        for el in window_truncation(RootSystem.from_type(type_string), depth).nodes:
            base = varpi_infinity(el)
            k = least_copies(el)
            for copies in range(k, k + 3):
                assert reference_varpi_infinity(el, copies) == base, (el, copies)


def test_unbounded_transport_is_a_dual_isomorphism():
    report = cg.check_dual_iso(
        window_truncation(A2, 3), varpi_infinity, path_truncation(A2, 3, "co-extended")
    )
    assert report.checked == 13
    assert report.ok, report.failures


# ---------------------------------------------------------------------------
# unbounded dual transport


def test_empty_dual_window_element_maps_to_the_outgoing_ray():
    path = varpi_dual_infinity(al.element(window(A2, 1, dual=True), []))
    assert path == lp.pi_infinity(A2)


def test_dual_single_fold_image_is_a_lowered_ray():
    el = element_from_pairs(window(A2, 1, dual=True), [((1, 0), 1)])
    path = varpi_dual_infinity(el)
    assert path == lp.f_op(lp.pi_infinity(A2), 1)
    assert path.segments == (((-1, 2), Fraction(1)),)


def reference_varpi_dual_infinity(el, copies) -> lp.PLPath:
    """The unbounded dual transport read off the dual chain of copies * rho
    directly: the window entries agree verbatim with that dual chain, so the
    element restricts to a finite dual crystal, whose path image, slowed down
    by the number of copies, merges into the outgoing rho-ray."""
    rs = el.rs
    if copies < least_copies(el):
        raise ValueError(f"need at least {least_copies(el)} copies")
    # the dual chain of k * rho mirrors the k * rho chain
    chain = _rho_multiple(rs, copies)
    size = len(chain.entries)
    finite = lp.dualize(varpi(al.element(chain, [size - 1 - p for p in el.positions])))
    return lp.PLPath.from_vertices(
        rs, "extended", finite.den, [copies * t for t in finite.times], finite.points
    )


@pytest.mark.parametrize("type_string", list(REFERENCE_DEPTHS))
def test_dual_unbounded_matches_the_dual_chain_reference(type_string):
    """The dual transport, which walks the element's own fold, agrees path
    for path with the dual chain reference for every number of copies from
    the least one to two more."""
    rs = RootSystem.from_type(type_string)
    pool = window_truncation(rs, REFERENCE_DEPTHS[type_string], dual=True).nodes
    assert len(pool) > 20
    for el in pool:
        direct = varpi_dual_infinity(el)
        k = least_copies(el)
        for copies in range(k, k + 3):
            assert same_path(direct, reference_varpi_dual_infinity(el, copies)), (el, copies)


def test_dual_unbounded_transport_is_a_dual_isomorphism():
    report = cg.check_dual_iso(
        window_truncation(A2, 3, dual=True), varpi_dual_infinity, path_truncation(A2, 3, "extended")
    )
    assert report.checked == 13
    assert report.ok, report.failures


def test_dual_unbounded_is_copy_independent():
    """The dual transport agrees with the primal projection route applied to
    the element's mirror and dualized, for every number of copies from the
    least one to two more."""
    for type_string in ("A2", "B2", "G2"):
        for el in window_truncation(RootSystem.from_type(type_string), 4, dual=True).nodes:
            base = varpi_dual_infinity(el)
            mirrored = al.mirror(el)
            k = least_copies(el)
            for copies in range(k, k + 3):
                assert lp.dualize(reference_varpi_infinity(mirrored, copies)) == base, (el, copies)


# ---------------------------------------------------------------------------
# Kashiwara's direct limit


def twisted_paths(rs, k):
    """T_{-k rho} (x) B(k rho) on finite paths: the path operators and
    epsilon unchanged, weights shifted by -k rho and phi by -k, as
    <k rho, alpha_i^vee> = k."""
    shift = tuple(k * c for c in rs.rho)

    def strings(p):
        eps, phi = lp.strings(p)
        return eps, tuple(c - k for c in phi)

    return replace(
        cg.path_ops(rs),
        weight=lambda p: tuple(a - b for a, b in zip(lp.weight(p), shift)),
        strings=strings,
    )


def twisted_truncation(rs, k, depth):
    top = lp.straight_path(rs, tuple(k * c for c in rs.rho))
    return cg.enumerate_crystal(twisted_paths(rs, k), [top], depth=depth)


@pytest.mark.parametrize(
    "type_string, depth",
    [
        ("A2", 6), ("B2", 6), ("G2", 6), ("A3", 5), ("C3", 4), ("D4", 4), ("F4", 3), ("E6", 3),
        ("E7", 3), ("E8", 2), ("E8", 3),
    ],
)
def test_twisted_path_crystals_give_the_window_models(type_string, depth):
    """B(infinity) is the direct limit of T_{-lambda} (x) B(lambda) over the
    k rho (Kashiwara, Duke Math. J. 71 (1993), section 8).  With k = depth
    the twisted path crystal of k rho, truncated at that depth, must be
    the primal window truncation and the dualized dual one, weights and
    statistics included.  The path side shares no code with the alcove
    model."""
    rs = RootSystem.from_type(type_string)
    limit = twisted_truncation(rs, depth, depth)
    assert cg.is_isomorphic(limit, window_truncation(rs, depth))
    assert cg.is_isomorphic(limit, cg.dualize_graph(window_truncation(rs, depth, dual=True)))


def test_twisted_path_crystals_of_too_small_k_differ():
    primal = window_truncation(A2, 6)
    for k in (1, 2, 3):
        assert not cg.is_isomorphic(twisted_truncation(A2, k, 6), primal), k


# ---------------------------------------------------------------------------
# the dual isomorphism check itself


def test_identity_map_fails_weight_negation():
    graph = crystal(lex_chain(A2, (1, 1)))
    report = cg.check_dual_iso(graph, lambda b: b, graph)
    assert not report.ok
    assert any(f.endswith(": weight negation") for f in report.failures)


def test_identity_map_passes_on_the_trivial_crystal():
    graph = crystal(lex_chain(A2, (0, 0)))
    report = cg.check_dual_iso(graph, lambda b: b, graph)
    assert report.checked == 1
    assert report.ok, report.failures


def test_mismatched_root_systems_are_rejected():
    with pytest.raises(ValueError):
        cg.check_dual_iso(crystal(lex_chain(A2, (1, 1))), varpi, path_crystal(A3, (1, 1, 0)))


def test_a_map_onto_one_path_is_not_one_to_one():
    source, target = crystal(lex_chain(A2, (1, 1))), path_crystal(A2, (1, 1))
    top = lp.straight_path(A2, (1, 1))
    report = cg.check_dual_iso(source, lambda b: top, target)
    assert report.checked == 8
    empty = source.generators[0]
    assert f"{empty!r}: weight negation" in report.failures
    others = [b for b in source.nodes if b != empty]
    assert all(f"{b!r}: same image as {empty!r}" in report.failures for b in others)
    assert all(f"{p!r}: target node is not an image" in report.failures for p in target.nodes if p != top)


def test_a_target_without_one_node_fails_there():
    source, target = crystal(lex_chain(A2, (1, 1))), path_crystal(A2, (1, 1))
    el = list(source.nodes)[3]
    gone = varpi(el)
    smaller = replace(target, nodes={p: data for p, data in target.nodes.items() if p != gone})
    report = cg.check_dual_iso(source, varpi, smaller)
    # the target's edges at the dropped node leave its nodes, and the source
    # edges at el have no image among the target's edges
    assert report.failures == [
        f"{el!r}: image is not a target node",
        *(f"{s!r}: the edge -{i}-> {d!r} leaves the nodes" for s, i, d in target.edges if gone in (s, d)),
        *(f"{x!r}: lowering transport at {i}" for x, i, y in source.edges if el in (x, y)),
    ]


def test_a_missing_edge_fails_on_either_side():
    source, target = crystal(lex_chain(A2, (1, 1))), path_crystal(A2, (1, 1))
    x, i, y = source.edges[2]
    cut = (varpi(y), i, varpi(x))
    report = cg.check_dual_iso(source, varpi, replace(target, edges=[e for e in target.edges if e != cut]))
    assert report.failures == [f"{x!r}: lowering transport at {i}"]
    report = cg.check_dual_iso(replace(source, edges=[e for e in source.edges if e != (x, i, y)]), varpi, target)
    assert report.failures == [f"{varpi(y)!r}: target edge along {i} is not a reversed source edge"]


def test_swapped_statistics_must_match_the_target_nodes():
    source, target = crystal(lex_chain(A2, (1, 1))), path_crystal(A2, (1, 1))
    el = list(source.nodes)[1]
    data = target.nodes[varpi(el)]
    nodes = {**target.nodes, varpi(el): replace(data, eps=data.phi, phi=data.eps)}
    report = cg.check_dual_iso(source, varpi, replace(target, nodes=nodes))
    assert report.failures == [f"{el!r}: eps/phi swap"]


def test_an_operator_wrong_only_in_the_skipped_direction_fails():
    # Al(lam) is enumerated by lowering from its top, so no edge of it was
    # found by raising; only the inverse check applies e_i
    source, target = crystal(lex_chain(A2, (1, 1))), path_crystal(A2, (1, 1))
    assert not source.raised
    broken = replace(source, ops=replace(source.ops, e=lambda b, i: None))
    report = cg.check_dual_iso(broken, varpi, target)
    x, i, y = source.edges[0]
    assert f"{y!r}: operators not inverse in direction {i}" in report.failures
    assert all(": operators not inverse in direction " in f for f in report.failures)
