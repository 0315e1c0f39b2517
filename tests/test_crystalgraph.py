"""Graph-level structure tests: enumeration, audits, duals."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import replace

import pytest

from alcovecrystals import alcove as al
from alcovecrystals import crystalgraph as cg
from alcovecrystals import limits
from alcovecrystals import littelmann as lp
from alcovecrystals import verify
from alcovecrystals.chains import dual_chain, lex_chain, window
from alcovecrystals.cli import run
from alcovecrystals.rootsys import RootSystem

A2 = RootSystem.from_type("A2")
A3 = RootSystem.from_type("A3")
B2 = RootSystem.from_type("B2")
G2 = RootSystem.from_type("G2")


def alcove_graph(rs, lam, dual=False, depth=None):
    chain = lex_chain(rs, lam)
    if dual:
        chain = dual_chain(chain)
    ops = cg.alcove_ops(chain)
    gen = al.element(chain, [])
    return cg.enumerate_crystal(ops, [gen], depth=depth)


def window_graph(rs, depth, dual=False):
    ops = cg.alcove_ops(window(rs, 1, dual=dual))
    gen = al.element(window(rs, 1, dual=dual), [])
    return cg.enumerate_crystal(ops, [gen], depth=depth)


# ---------------------------------------------------------------------------
# enumeration


def test_rho_crystal_has_eight_nodes():
    g = alcove_graph(A2, (1, 1))
    assert len(g.nodes) == 8
    assert len(g.edges) == 8
    assert g.complete
    assert cg.highest_weight_keys(g) == [al.element(lex_chain(A2, (1, 1)), [])]


def test_truncated_window_layers():
    g = window_graph(A2, 2)
    labels = {repr(el) for el in g.nodes}
    assert len(g.nodes) == 7
    assert "((α1, -2))" in labels
    assert "((α1, -1), (α1+α2, -1))" in labels
    assert not g.complete
    assert g.boundary


def test_graphs_keep_their_elements():
    for g in (alcove_graph(A2, (2, 1)), window_graph(A2, 3)):
        assert all(type(el) is al.AlcoveElement for el in g.nodes)
        assert all(repr(el) == al.render_element(el) for el in g.nodes)
        assert list(cg.dualize_graph(g).nodes) == list(g.nodes)


def test_a_generator_on_a_wider_window_gives_the_same_graph():
    """A window generator is moved to its canonical window first, so it is
    the node the operators return when they come back to it."""
    g = window_graph(A2, 3)
    seed = al.AlcoveElement(window(A2, 3), ())
    wide = cg.enumerate_crystal(cg.alcove_ops(window(A2, 1)), [seed], depth=3)
    assert (list(wide.nodes), wide.edges) == (list(g.nodes), g.edges)
    assert cg.check_axioms(wide).ok


def test_unbounded_enumeration_of_infinite_model_fails():
    ops = cg.alcove_ops(window(A2, 1))
    gen = al.element(window(A2, 1), [])
    with pytest.raises(ValueError):
        cg.enumerate_crystal(ops, [gen])


@pytest.mark.parametrize(
    "ops, seed",
    [
        (cg.path_ops(A2), lp.pi_infinity(A2)),
        (cg.path_ops(A2, "co-extended"), lp.straight_path(A2, (1, 1))),
        (cg.alcove_ops(lex_chain(A2, (1, 1))), al.element(window(A2, 1), [])),
        (cg.alcove_ops(window(A2, 1)), al.element(lex_chain(A2, (1, 1)), [])),
        (cg.path_ops(A2), al.element(lex_chain(A2, (1, 1)), [])),
        (cg.alcove_ops(lex_chain(A2, (1, 1))), lp.straight_path(A2, (1, 1))),
    ],
    ids=["finite-ops-infinite-path", "co-extended-ops-finite-path",
         "finite-ops-window", "window-ops-finite-chain",
         "path-ops-alcove-element", "alcove-ops-path"],
)
def test_ops_reject_elements_of_another_kind(ops, seed):
    # finite ops on an element of an infinite crystal would walk it forever
    # without a depth; the depth only keeps this test finite if the kind
    # check passes
    with pytest.raises(ValueError):
        cg.enumerate_crystal(ops, [seed], depth=2)


@pytest.mark.parametrize("depth", [-1, True, 1.5, "2"])
def test_depth_must_be_a_non_negative_integer(depth):
    win = window(A2, 1)
    with pytest.raises(ValueError, match="depth"):
        cg.enumerate_crystal(cg.alcove_ops(win), [al.element(win, [])], depth=depth)
    with pytest.raises(ValueError, match="depth"):
        cg.infinity_size(A2, depth)


def test_enumeration_is_deterministic():
    g1 = alcove_graph(A3, (1, 0, 1))
    g2 = alcove_graph(A3, (1, 0, 1))
    assert list(g1.nodes) == list(g2.nodes)
    assert g1.edges == g2.edges


def test_path_closure_sizes_match_dimensions():
    for lam in ((1, 0), (1, 1), (2, 1)):
        ops = cg.path_ops(A2)
        g = cg.enumerate_crystal(ops, [lp.straight_path(A2, lam)])
        assert len(g.nodes) == cg.weyl_dimension(A2, lam)


def reference_closure(ops, generators, depth=None):
    """Breadth-first closure computing every edge from both ends, deduplicated:
    the enumeration loop before each edge was found once."""
    nodes, edge_set, edges, boundary = {}, set(), [], set()
    queue = deque()

    def admit(x, d):
        if x not in nodes:
            nodes[x] = x
            queue.append((x, d))

    for g in generators:
        admit(g, 0)
    while queue:
        x, d = queue.popleft()
        for i in ops.rs.index_set:
            for other, forward in ((ops.f(x, i), True), (ops.e(x, i), False)):
                if other is None:
                    continue
                if other not in nodes:
                    if depth is not None and d >= depth:
                        boundary.add(x)
                        continue
                    admit(other, d + 1)
                edge = (x, i, other) if forward else (other, i, x)
                if edge not in edge_set:
                    edge_set.add(edge)
                    edges.append(edge)
    order = {k: n for n, k in enumerate(nodes)}
    edges.sort(key=lambda t: (order[t[0]], t[1], order[t[2]]))
    return list(nodes), edges, frozenset(boundary)


# the nine crystals of the finite-alcove benchmark: (root system, weight, dual)
FINITE_ALCOVE = (
    (G2, (2, 1), False),
    (G2, (1, 1), True),
    (A3, (1, 1, 1), True),
    (A3, (2, 1, 0), False),
    (A3, (1, 0, 2), True),
    (B2, (2, 1), True),
    (B2, (1, 2), False),
    (A2, (3, 1), False),
    (A2, (2, 2), True),
)


def _closure_cases():
    for rs, lam, dual in FINITE_ALCOVE:
        chain = lex_chain(rs, lam)
        if dual:
            chain = dual_chain(chain)
        yield cg.alcove_ops(chain), [al.element(chain, [])], None
    yield cg.path_ops(B2), [lp.straight_path(B2, (1, 2))], None
    for rs, depth in ((A2, 4), (G2, 3)):
        for dual in (False, True):
            win = window(rs, 1, dual=dual)
            yield cg.alcove_ops(win), [al.element(win, [])], depth
    yield cg.path_ops(A2, "extended"), [lp.pi_infinity(A2)], 3
    # a generator listed twice is one node, and the graph keeps both entries
    yield cg.path_ops(A2, "co-extended"), [lp.xi_infinity(A2)] * 2, 3


def test_enumeration_matches_the_two_sided_reference():
    """Nodes, edges and boundary as the closure that computes every edge
    from both ends finds them, each node's statistics as the public
    per-direction functions of its model give them, and the generators as
    listed."""
    cases = list(_closure_cases())
    assert sum(depth is not None for _, _, depth in cases) == 6
    for ops, gens, depth in cases:
        g = cg.enumerate_crystal(ops, gens, depth=depth)
        nodes, edges, boundary = reference_closure(ops, gens, depth=depth)
        assert list(g.nodes) == nodes
        assert g.edges == edges
        assert g.boundary == boundary
        assert (depth is None) == g.complete
        assert g.generators == gens
        model = al if ops.kind in ("chain", "window") else lp
        for x, data in g.nodes.items():
            want = cg.NodeData(
                weight=tuple(model.weight(x)),
                eps=tuple(model.epsilon(x, i) for i in ops.rs.index_set),
                phi=tuple(model.phi(x, i) for i in ops.rs.index_set),
            )
            assert data == want, x


def counted(ops):
    """The ops with f and e counting their calls in ``calls``."""
    calls = [0]

    def count(op):
        def wrapped(x, i):
            calls[0] += 1
            return op(x, i)

        return wrapped

    return replace(ops, f=count(ops.f), e=count(ops.e)), calls


@pytest.mark.parametrize(
    "rs, lam, dual, calls, edges",
    [
        (G2, (2, 2), False, 1818, 1098),
        (A3, (2, 2, 2), False, 2862, 1512),
        (G2, (1, 1), True, None, None),
    ],
    ids=["g2-22", "a3-222", "g2-11-dual"],
)
def test_enumeration_computes_each_edge_once(rs, lam, dual, calls, edges):
    chain = lex_chain(rs, lam)
    if dual:
        chain = dual_chain(chain)
    ops, counter = counted(cg.alcove_ops(chain))
    g = cg.enumerate_crystal(ops, [al.element(chain, [])])
    assert len(g.nodes) == cg.weyl_dimension(rs, lam)
    # every node tries both operators in every direction, less one call per edge
    assert counter[0] == 2 * len(g.nodes) * rs.rank - len(g.edges)
    if calls is not None:
        assert (counter[0], len(g.edges)) == (calls, edges)
    if dual:
        # the dual model's generator is its lowest element: edges are raised into
        assert g.raised
    assert g.raised <= set(g.edges)
    # the audit applies the other operator to each edge once
    before = counter[0]
    assert cg.check_axioms(g, seminormal=True).ok
    assert counter[0] - before == len(g.edges)


# ---------------------------------------------------------------------------
# dimension formula


def test_weyl_dimension_values():
    assert cg.weyl_dimension(A2, (1, 1)) == 8
    assert cg.weyl_dimension(A3, (2, 0, 0)) == 10
    assert cg.weyl_dimension(A3, (0, 1, 0)) == 6
    assert cg.weyl_dimension(A2, (0, 0)) == 1
    assert cg.weyl_dimension(A2, (2, 1)) == 15
    assert cg.weyl_dimension(B2, (1, 0)) == 5


@pytest.mark.parametrize("rs", [A2, B2, G2, A3], ids=["A2", "B2", "G2", "A3"])
def test_infinity_size_counts_every_truncation(rs):
    # Al(infinity), its dual and both unbounded path models, enumerated at
    # each depth, against the partition count
    models = [
        (cg.alcove_ops(window(rs, 1, dual)), al.element(window(rs, 1, dual), []))
        for dual in (False, True)
    ]
    models += [(cg.path_ops(rs, "extended"), lp.pi_infinity(rs))]
    models += [(cg.path_ops(rs, "co-extended"), lp.xi_infinity(rs))]
    for depth in range(7):
        size = cg.infinity_size(rs, depth)
        for ops, seed in models:
            assert len(cg.enumerate_crystal(ops, [seed], depth=depth).nodes) == size, (ops.kind, depth)
        assert size <= cg.infinity_size(rs, depth + 1)
        for lam in ((1,) * rs.rank, (2,) * rs.rank):
            for dual in (False, True):
                bound = min(size, cg.weyl_dimension(rs, lam))
                assert len(alcove_graph(rs, lam, dual, depth).nodes) <= bound


def test_infinity_size_values():
    # A2's series is 1 / ((1 - x)^2 (1 - x^2)); the larger values are pinned
    # where the command line's node limit meets them
    assert [cg.infinity_size(A2, d) for d in range(7)] == [1, 3, 7, 13, 22, 34, 50]
    E8 = RootSystem.from_type("E8")
    assert [cg.infinity_size(E8, d) for d in (8, 9, 10)] == [80_468, 212_376, 537_140]
    assert cg.infinity_size(A3, 30) == 226_860


@pytest.mark.parametrize(
    "lam",
    [(-3, 0), (2, -1), (1,), (1, 1, 1), (True, 0), (1.0, 0), ("1", 0)],
    ids=["negative", "negative-second", "short", "long", "boolean", "float", "string"],
)
@pytest.mark.parametrize("build", [cg.weyl_dimension, lex_chain], ids=["dimension", "chain"])
def test_weights_that_are_not_dominant_integral_are_refused(build, lam):
    with pytest.raises(ValueError, match="not dominant integral"):
        build(A2, lam)


# ---------------------------------------------------------------------------
# axioms


def test_axioms_clean_on_finite_crystals():
    for rs, lam in ((A2, (1, 1)), (A2, (2, 0)), (B2, (1, 1)), (A3, (1, 0, 1))):
        report = cg.check_axioms(alcove_graph(rs, lam), seminormal=True)
        assert report.ok, report.failures
        assert report.checked == cg.weyl_dimension(rs, lam)


def test_axioms_clean_on_truncations():
    for dual in (False, True):
        report = cg.check_axioms(window_graph(A2, 3, dual=dual))
        assert report.ok, report.failures


def test_axioms_catch_a_missing_edge():
    g = alcove_graph(A2, (1, 1))
    for k in range(len(g.edges)):
        broken = cg.CrystalGraph(
            rs=g.rs,
            nodes=g.nodes,
            edges=g.edges[:k] + g.edges[k + 1 :],
            generators=g.generators,
            boundary=frozenset(),
        )
        assert not cg.check_axioms(broken, seminormal=True).ok


def test_axioms_report_an_edge_to_a_dropped_node():
    # every edge into or out of the dropped node is named by its source, by
    # check_axioms, check_dual_iso and check_stembridge alike, and
    # is_isomorphic refuses the graph naming one, instead of failing on a
    # missing key or passing the graph
    g = alcove_graph(A2, (1, 1))
    target = cg.dualize_graph(g)
    for gone in g.nodes:
        nodes = {k: v for k, v in g.nodes.items() if k != gone}
        h = replace(g, nodes=nodes)
        report = cg.check_axioms(h)
        dangling = [
            f"{s!r}: the edge -{i}-> {d!r} leaves the nodes"
            for s, i, d in g.edges
            if gone in (s, d)
        ]
        assert dangling and set(dangling) <= set(report.failures), gone
        assert set(dangling) <= set(cg.check_dual_iso(h, al.mirror, target).failures), gone
        assert set(dangling) <= set(cg.check_stembridge(h).failures), gone
        for a, b in ((h, g), (g, h)):
            with pytest.raises(ValueError) as exc:
                cg.is_isomorphic(a, b)
            assert str(exc.value) in dangling, gone


@pytest.mark.parametrize("transform", [cg.dualize_graph, cg.graph_to_json], ids=lambda f: f.__name__)
def test_a_transform_names_an_edge_to_a_dropped_node(transform):
    # a ValueError naming the edge as links does, not a bare KeyError
    g = alcove_graph(A2, (1, 1))
    for gone in g.nodes:
        h = replace(g, nodes={k: v for k, v in g.nodes.items() if k != gone})
        with pytest.raises(ValueError) as exc:
            transform(h)
        assert str(exc.value) in h.links.failures and "leaves the nodes" in str(exc.value), gone


def test_dual_iso_reads_a_hand_built_target_off_its_nodes():
    # a target built by hand has no ops: the images' weights are the ones it
    # stores, so the check runs, and a wrong stored weight or an image
    # outside it fails there
    g = alcove_graph(A2, (1, 1))
    t = cg.dualize_graph(g)
    hand = cg.CrystalGraph(rs=t.rs, nodes=t.nodes, edges=t.edges, generators=t.generators)
    check = cg.check_dual_iso(g, lambda b: b, hand)
    assert isinstance(check, cg.Check) and check.ok and check.checked == len(g.nodes)
    x = list(g.nodes)[2]
    data = hand.nodes[x]
    nodes = {**hand.nodes, x: replace(data, weight=tuple(-c for c in data.weight))}
    wrong = cg.check_dual_iso(g, lambda b: b, replace(hand, nodes=nodes))
    assert wrong.failures == [f"{x!r}: weight negation"]
    top = g.generators[0]
    moved = cg.check_dual_iso(g, lambda b: b if b != top else al.mirror(b), hand)
    assert f"{top!r}: image is not a target node" in moved.failures
    assert f"{top!r}: weight negation" not in moved.failures


def test_a_repeated_direction_fails_every_checker():
    # a second i-edge out of x, a copy of its edge to y or an edge to another
    # node: every checker names it, and is_isomorphic refuses the graph
    # naming it, instead of keeping the last edge and passing the graph
    g = alcove_graph(A2, (1, 1))
    target = cg.dualize_graph(g)
    x, i, y = g.edges[0]
    other = next(k for k in g.nodes if k not in (x, y))
    for extra in ((x, i, y), (x, i, other)):
        h = cg.CrystalGraph(rs=g.rs, nodes=g.nodes, edges=[*g.edges, extra], generators=g.generators)
        repeated = f"{x!r}: two lowering edges in direction {i}"
        assert h.links.failures[0] == repeated
        assert repeated in cg.check_axioms(h).failures
        assert repeated in cg.check_stembridge(h).failures
        assert repeated in cg.check_dual_iso(h, al.mirror, target).failures
        for a, b in ((h, g), (g, h)):
            with pytest.raises(ValueError, match="two lowering edges"):
                cg.is_isomorphic(a, b)
    # the dual graph is the image of g under the identity; a target that
    # lists one of its edges twice fails on its own links
    assert cg.check_dual_iso(g, lambda b: b, target).ok
    y, i, x = target.edges[0]
    twice = replace(target, edges=[*target.edges, target.edges[0]])
    failures = cg.check_dual_iso(g, lambda b: b, twice).failures
    assert f"{y!r}: two lowering edges in direction {i}" in failures
    assert f"{x!r}: two raising edges in direction {i}" in failures


@pytest.mark.parametrize("direction", [0, 3, True], ids=["0", "3", "True"])
def test_an_edge_outside_the_index_set_fails_every_checker(direction):
    # an edge in no direction of A2's index set {1, 2} (a boolean is none)
    # is one links failure, kept out of the id slots and so out of the
    # inverse check's operator calls: every checker names it, on either side
    # of check_dual_iso, and is_isomorphic refuses it
    g = alcove_graph(A2, (1, 1))
    target = cg.dualize_graph(g)
    x, _, y = g.edges[0]
    h = replace(g, edges=[*g.edges, (x, direction, y)])
    outside = f"{x!r}: the edge -{direction}-> {y!r} has no direction of the index set"
    assert h.links.failures == (outside,)
    assert h.links.below == g.links.below and h.links.above == g.links.above
    assert outside in cg.check_axioms(h).failures
    assert outside in cg.check_axioms(h, seminormal=True).failures
    assert outside in cg.check_stembridge(h).failures
    assert outside in cg.check_dual_iso(h, lambda b: b, target).failures
    reversed_outside = f"{y!r}: the edge -{direction}-> {x!r} has no direction of the index set"
    assert reversed_outside in cg.check_dual_iso(g, lambda b: b, cg.dualize_graph(h)).failures
    for a, b in ((h, g), (g, h)):
        with pytest.raises(ValueError) as exc:
            cg.is_isomorphic(a, b)
        assert str(exc.value) == outside


def test_a_replaced_graph_gets_its_own_links():
    # links are kept per graph object: a graph with one edge fewer, made with
    # dataclasses.replace after the checks read the original's, reads its own
    g = alcove_graph(A2, (1, 1))
    assert cg.check_axioms(g, seminormal=True).ok and cg.check_stembridge(g).ok
    assert cg.is_isomorphic(g, g)
    x, i, y = g.edges[-1]
    h = replace(g, edges=g.edges[:-1])
    order, rank = g.links.order, g.rs.rank
    out, into = order[x] * rank + i - 1, order[y] * rank + i - 1
    assert g.links.below[out] == order[y] and h.links.below[out] is None
    assert g.links.above[into] == order[x] and h.links.above[into] is None
    assert not cg.check_axioms(h, seminormal=True).ok
    assert not cg.is_isomorphic(h, g)


@pytest.mark.parametrize("depth", [None, 3], ids=["A2 (2,2)", "A2 window depth 3"])
def test_links_hash_each_node_once_and_each_edge_end_once(monkeypatch, depth):
    # after links numbers the nodes, the checkers read lists by id and hash
    # no element; the inverse check hashes the ends of the edges found by
    # raising, and these graphs were all found by lowering
    if depth is None:
        g = alcove_graph(A2, (2, 2))
    else:
        g = window_graph(A2, depth)
    calls = []
    plain = al.AlcoveElement.__hash__

    def counted(el):
        calls.append(el)
        return plain(el)

    monkeypatch.setattr(al.AlcoveElement, "__hash__", counted)
    g.links
    assert len(calls) == len(g.nodes) + 2 * len(g.edges)
    calls.clear()
    assert cg.check_stembridge(g).ok and cg.is_isomorphic(g, g)
    assert calls == []
    assert not g.raised and cg.check_axioms(g, seminormal=depth is None).ok
    assert calls == []
    assert (len(g.nodes), len(g.edges)) == ((27, 36) if depth is None else (13, 14))


def _tampered(chain, i, bad):
    """Enumerate the alcove crystal of ``chain`` with e_i replaced by ``bad``
    at the target of the first edge found by f_i; ``bad`` gets that target
    and the edge's source and returns e_i's tampered value.  Also returns
    the target."""
    ops = cg.alcove_ops(chain)
    g = cg.enumerate_crystal(ops, [al.element(chain, [])])
    src, _, dst = next(
        edge for edge in g.edges if edge[1] == i and edge not in g.raised
    )

    def e(x, j):
        if j == i and x == dst:
            return bad(dst, src)
        return al.e_op(x, j)

    return cg.enumerate_crystal(replace(ops, e=e), [al.element(chain, [])]), dst


@pytest.mark.parametrize(
    "i, bad",
    [(1, lambda y, x: None), (2, lambda y, x: y)],
    ids=["raising-undefined", "raising-elsewhere"],
)
def test_axioms_catch_operators_that_are_not_inverse(i, bad):
    g, dst = _tampered(lex_chain(A2, (1, 1)), i, bad)
    # the tampered raising is never applied while enumerating: the graph is
    # the clean one, and edge uniqueness alone finds nothing
    clean = alcove_graph(A2, (1, 1))
    assert (list(g.nodes), g.edges) == (list(clean.nodes), clean.edges)
    assert cg.check_axioms(replace(g, ops=None), seminormal=True).ok
    report = cg.check_axioms(g, seminormal=True)
    label = repr(dst)
    assert report.failures == [f"{label}: operators not inverse in direction {i}"]
    # the dual graph carries the swapped ops and still applies the tampered
    # operator, now as its lowering
    dual_report = cg.check_axioms(cg.dualize_graph(g))
    assert dual_report.failures == [f"{label}: operators not inverse in direction {i}"]


def test_dualized_graphs_check_inverses():
    for g in (alcove_graph(A2, (2, 1)), alcove_graph(B2, (1, 1), dual=True), window_graph(A2, 3)):
        d = cg.dualize_graph(g)
        ops, counter = counted(d.ops)
        report = cg.check_axioms(replace(d, ops=ops))
        assert report.ok, report.failures
        assert counter[0] == len(d.edges)
        # an edge found by lowering becomes one found by raising
        assert len(d.raised) == len(g.edges) - len(g.raised)
        assert cg.dualize_graph(d).raised == g.raised


def test_the_inverse_check_runs_once_per_graph():
    """``check_axioms`` and ``check_dual_iso`` share each graph's inverse
    check: every edge's other direction is computed once per graph, however
    often the graph is checked, and a graph with other ops (``replace``)
    checks them afresh."""
    source = alcove_graph(A2, (1, 1))
    target = cg.enumerate_crystal(cg.path_ops(A2), [lp.straight_path(A2, (1, 1))])
    ops, calls = counted(source.ops)
    source = replace(source, ops=ops)
    for _ in range(2):
        assert cg.check_axioms(source, seminormal=True).ok
        assert cg.check_dual_iso(source, limits.varpi, target).ok
    assert calls[0] == len(source.edges) > 0
    assert cg.check_axioms(replace(source, ops=ops)).ok
    assert calls[0] == 2 * len(source.edges)


def test_axioms_catch_corrupt_statistics():
    g = alcove_graph(A2, (1, 1))
    key = next(iter(g.nodes))
    data = g.nodes[key]
    g.nodes[key] = cg.NodeData(weight=data.weight, eps=tuple(v + 1 for v in data.eps), phi=data.phi)
    assert not cg.check_axioms(g).ok


# ---------------------------------------------------------------------------
# local (simply laced) checks


def test_stembridge_clean_and_non_vacuous():
    report = cg.check_stembridge(alcove_graph(A2, (1, 1)))
    assert report.ok, report.failures
    assert report.checked > 0
    bigger = cg.check_stembridge(alcove_graph(A3, (1, 1, 0)))
    assert bigger.ok, bigger.failures
    assert bigger.checked > 0


def test_stembridge_rejects_multiply_laced_input():
    with pytest.raises(ValueError):
        cg.check_stembridge(alcove_graph(B2, (1, 0)))


def test_stembridge_edge_deletion_control():
    # deleting one edge must trip the braid walk on A2 and the commuting
    # square on A3, so neither branch of the check is vacuous
    for rs, lam, walk in ((A2, (1, 1), "braid"), (A3, (1, 1, 0), "commuting")):
        g = alcove_graph(rs, lam)
        failures = []
        for k in range(len(g.edges)):
            broken = cg.CrystalGraph(
                rs=g.rs,
                nodes=g.nodes,
                edges=g.edges[:k] + g.edges[k + 1 :],
                generators=g.generators,
                boundary=frozenset(),
            )
            failures += cg.check_stembridge(broken).failures
        assert any(walk in f for f in failures), (lam, failures[:5])


def test_checkers_share_one_record():
    g = alcove_graph(A2, (1, 1))
    paths = cg.enumerate_crystal(cg.path_ops(A2), [lp.straight_path(A2, (1, 1))])
    for check in (
        cg.check_axioms(g),
        cg.check_stembridge(g),
        cg.check_dual_iso(g, limits.varpi, paths),
    ):
        assert type(check) is cg.Check
        assert check.ok and check.checked > 0
    assert verify.Check is cg.Check


# ---------------------------------------------------------------------------
# isomorphism and dualization


def test_distinct_shapes_are_not_isomorphic():
    g1 = alcove_graph(A3, (2, 0, 0))
    g2 = alcove_graph(A3, (0, 1, 0))
    assert len(g1.nodes) == 10 and len(g2.nodes) == 6
    assert not cg.is_isomorphic(g1, g2)
    assert cg.is_isomorphic(g1, alcove_graph(A3, (2, 0, 0)))


def test_multiple_highest_nodes_raise():
    gens = [lp.straight_path(A2, (1, 0)), lp.straight_path(A2, (0, 1))]
    g = cg.enumerate_crystal(cg.path_ops(A2), gens)
    assert len(cg.highest_weight_keys(g)) == 2
    with pytest.raises(ValueError):
        cg.is_isomorphic(g, g)


def test_dualized_graph_matches_the_dual_model():
    for rs, lam in ((A2, (1, 1)), (A3, (1, 0, 0)), (A3, (2, 0, 0))):
        primal = alcove_graph(rs, lam)
        dual = alcove_graph(rs, lam, dual=True)
        assert cg.is_isomorphic(cg.dualize_graph(primal), dual)


def test_dualize_swaps_statistics():
    g = alcove_graph(A2, (1, 1))
    d = cg.dualize_graph(g)
    for k, data in g.nodes.items():
        assert d.nodes[k].eps == data.phi
        assert d.nodes[k].phi == data.eps
        assert d.nodes[k].weight == tuple(-c for c in data.weight)
    assert len(d.edges) == len(g.edges)


# ---------------------------------------------------------------------------
# exports


def test_json_export_roundtrips_and_is_deterministic():
    g = alcove_graph(A2, (1, 0))
    doc = cg.graph_to_json(g)
    assert json.dumps(doc) == json.dumps(cg.graph_to_json(alcove_graph(A2, (1, 0))))
    assert [n["id"] for n in doc["nodes"]] == ["n0", "n1", "n2"]
    assert doc["edges"][0] == {"src": "n0", "i": 1, "dst": "n1"}
    assert doc["nodes"][0]["wt"] == [1, 0]


def test_path_graph_exports_label_nodes_by_their_text():
    g = cg.enumerate_crystal(cg.path_ops(A2), [lp.straight_path(A2, (1, 1))])
    labels = [lp.render_path(path) for path in g.nodes]
    assert [n["label"] for n in cg.graph_to_json(g)["nodes"]] == labels
    dot = cg.graph_to_dot(g)
    assert all(f'  n{n} [label="{label}"];' in dot for n, label in enumerate(labels))


def test_nothing_is_rendered_while_every_check_passes(monkeypatch):
    """Elements print themselves, and only a failure or an export line asks
    them to: enumeration, the checkers, the dual isomorphism check and the
    limits suite make no text on correct crystals."""

    def refuse(x):
        raise RuntimeError("rendered")

    monkeypatch.setattr(al, "render_element", refuse)
    monkeypatch.setattr(lp, "render_path", refuse)
    primal = alcove_graph(A2, (1, 1))
    paths = cg.enumerate_crystal(cg.path_ops(A2), [lp.straight_path(A2, (1, 1))])
    for g in (primal, alcove_graph(A2, (1, 1), dual=True), paths):
        assert len(g.nodes) == 8
        assert cg.check_axioms(g, seminormal=True).ok
        assert cg.check_stembridge(g).ok
    check = cg.check_dual_iso(primal, limits.varpi, paths)
    assert check.ok and check.checked == 8
    assert run(["verify", "--type", "A2", "--suite", "limits"]) == 0


def test_dot_export_shape():
    g = alcove_graph(A2, (1, 0))
    dot = cg.graph_to_dot(g)
    assert dot.startswith("digraph crystal {")
    assert dot.count(" -> ") == len(g.edges)
    assert 'label="1"' in dot and 'label="2"' in dot
