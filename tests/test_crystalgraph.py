"""Graph-level structure tests: enumeration, audits, tensors, duals."""

from __future__ import annotations

import json

import pytest

from alcovecrystals import alcove as al
from alcovecrystals import crystalgraph as cg
from alcovecrystals import limits
from alcovecrystals import littelmann as lp
from alcovecrystals import verify
from alcovecrystals.chains import dual_chain, lex_chain, window
from alcovecrystals.rootsys import RootSystem

A2 = RootSystem.from_type("A2")
A3 = RootSystem.from_type("A3")
B2 = RootSystem.from_type("B2")


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
    assert cg.highest_weight_keys(g) == [()]


def test_truncated_window_layers():
    g = window_graph(A2, 2)
    labels = {data.label for data in g.nodes.values()}
    assert len(g.nodes) == 7
    assert "((α1, -2))" in labels
    assert "((α1, -1), (α1+α2, -1))" in labels
    assert not g.complete
    assert g.boundary


def test_graphs_keep_their_elements():
    for ops, g in (
        (cg.alcove_ops(lex_chain(A2, (2, 1))), alcove_graph(A2, (2, 1))),
        (cg.alcove_ops(window(A2, 1)), window_graph(A2, 3)),
    ):
        assert set(g.elements) == set(g.nodes)
        assert all(ops.key(el) == k for k, el in g.elements.items())
        assert cg.dualize_graph(g).elements == g.elements


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
    ],
    ids=["finite-ops-infinite-path", "co-extended-ops-finite-path",
         "finite-ops-window", "window-ops-finite-chain"],
)
def test_ops_reject_elements_of_another_kind(ops, seed):
    # finite ops on an element of an infinite crystal would walk it forever
    # without a depth; the depth only keeps this test finite if keys pass
    with pytest.raises(ValueError):
        cg.enumerate_crystal(ops, [seed], depth=2)
    with pytest.raises(ValueError):
        ops.key(seed)


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


# ---------------------------------------------------------------------------
# dimension formula


def test_weyl_dimension_values():
    assert cg.weyl_dimension(A2, (1, 1)) == 8
    assert cg.weyl_dimension(A3, (2, 0, 0)) == 10
    assert cg.weyl_dimension(A3, (0, 1, 0)) == 6
    assert cg.weyl_dimension(A2, (0, 0)) == 1
    assert cg.weyl_dimension(A2, (2, 1)) == 15
    assert cg.weyl_dimension(B2, (1, 0)) == 5


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


def test_axioms_catch_corrupt_statistics():
    g = alcove_graph(A2, (1, 1))
    key = next(iter(g.nodes))
    data = g.nodes[key]
    g.nodes[key] = cg.NodeData(
        weight=data.weight,
        eps=tuple(v + 1 for v in data.eps),
        phi=data.phi,
        label=data.label,
    )
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
    ops = cg.alcove_ops(lex_chain(A2, (1, 1)))
    elements = list(g.elements.values())
    for check in (
        cg.check_axioms(g),
        cg.check_stembridge(g),
        limits.verify_dual_iso(elements, limits.varpi, ops, cg.path_ops(A2)),
    ):
        assert type(check) is cg.Check
        assert check.ok and check.checked > 0
    assert verify.Check is cg.Check


# ---------------------------------------------------------------------------
# tensor products


def test_weight_twist_shifts_the_rho_crystal():
    chain = lex_chain(A2, (1, 1))
    plain = alcove_graph(A2, (1, 1))
    t_ops = cg.t_weight_ops(A2, (-1, -1))
    ops = cg.tensor_ops(t_ops, cg.alcove_ops(chain))
    g = cg.enumerate_crystal(ops, [cg.TensorElement((-1, -1), al.element(chain, []))])
    assert len(g.nodes) == 8
    assert cg.is_isomorphic(g, plain, weights=False)
    assert not cg.is_isomorphic(g, plain, weights=True)
    shifted = sorted(d.weight for d in g.nodes.values())
    reference = sorted(
        tuple(c - 1 for c in d.weight) for d in plain.nodes.values()
    )
    assert shifted == reference


def test_tensor_statistics_with_a_weight_factor_are_exact():
    chain = lex_chain(A2, (1, 1))
    t_ops, b_ops = cg.t_weight_ops(A2, (-1, 2)), cg.alcove_ops(chain)
    top = al.element(chain, [])
    cases = [
        (cg.tensor_ops(t_ops, b_ops), cg.TensorElement((-1, 2), top)),
        (cg.tensor_ops(b_ops, t_ops), cg.TensorElement(top, (-1, 2))),
        (cg.tensor_ops(t_ops, t_ops), cg.TensorElement((-1, 2), (0, 1))),
    ]
    for ops, gen in cases:
        g = cg.enumerate_crystal(ops, [gen])
        report = cg.check_axioms(g)
        assert report.ok, report.failures
        for data in g.nodes.values():
            for value in data.eps + data.phi:
                assert not isinstance(value, float)
                assert value is cg.MINUS_INF or type(value) is int
    # the last case, T ⊗ T, is moved by no operator
    assert g.nodes[ops.key(gen)].eps == (cg.MINUS_INF, cg.MINUS_INF)
    assert cg.MINUS_INF < -(10**30) and max(cg.MINUS_INF, -3) == -3
    assert cg.MINUS_INF + 1 is cg.MINUS_INF and 1 + cg.MINUS_INF - 2 is cg.MINUS_INF


def test_two_fundamental_path_factors_split_into_two_components():
    ops = cg.tensor_ops(cg.path_ops(A2), cg.path_ops(A2))
    fact_ops = cg.path_ops(A2)
    frontier = [lp.straight_path(A2, (1, 0))]
    seen = {fact_ops.key(frontier[0])}
    paths = [frontier[0]]
    while frontier:
        nxt = []
        for p in frontier:
            for i in (1, 2):
                q = lp.f_op(p, i)
                if q is not None and fact_ops.key(q) not in seen:
                    seen.add(fact_ops.key(q))
                    paths.append(q)
                    nxt.append(q)
        frontier = nxt
    generators = [cg.TensorElement(a, b) for a in paths for b in paths]
    g = cg.enumerate_crystal(ops, generators)
    assert len(g.nodes) == 9
    tops = cg.highest_weight_keys(g)
    top_weights = sorted(g.nodes[k].weight for k in tops)
    assert top_weights == [(0, 1), (2, 0)]
    report = cg.check_axioms(g)
    assert report.ok, report.failures


def test_tensor_is_associative_up_to_isomorphism():
    chain = lex_chain(A2, (1, 0))
    ops = cg.alcove_ops(chain)
    top = al.element(chain, [])
    left = cg.tensor_ops(cg.tensor_ops(ops, ops), ops)
    right = cg.tensor_ops(ops, cg.tensor_ops(ops, ops))
    gl = cg.enumerate_crystal(
        left,
        [
            cg.TensorElement(cg.TensorElement(a, b), c)
            for a in crystal(chain)
            for b in crystal(chain)
            for c in crystal(chain)
        ],
    )
    gr = cg.enumerate_crystal(
        right,
        [
            cg.TensorElement(a, cg.TensorElement(b, c))
            for a in crystal(chain)
            for b in crystal(chain)
            for c in crystal(chain)
        ],
    )
    comp_l = sorted(d.weight for d in gl.nodes.values())
    comp_r = sorted(d.weight for d in gr.nodes.values())
    assert comp_l == comp_r
    assert len(gl.edges) == len(gr.edges)


def crystal(chain):
    out = [al.element(chain, [])]
    seen = {out[0].positions}
    frontier = list(out)
    while frontier:
        nxt = []
        for b in frontier:
            for i in chain.rs.index_set:
                c = al.f_op(b, i)
                if c is not None and c.positions not in seen:
                    seen.add(c.positions)
                    out.append(c)
                    nxt.append(c)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# isomorphism and dualization


def test_distinct_shapes_are_not_isomorphic():
    g1 = alcove_graph(A3, (2, 0, 0))
    g2 = alcove_graph(A3, (0, 1, 0))
    assert len(g1.nodes) == 10 and len(g2.nodes) == 6
    assert not cg.is_isomorphic(g1, g2)
    assert cg.is_isomorphic(g1, alcove_graph(A3, (2, 0, 0)))


def test_multiple_highest_nodes_raise():
    ops = cg.tensor_ops(cg.path_ops(A2), cg.path_ops(A2))
    a = lp.straight_path(A2, (1, 0))
    g = cg.enumerate_crystal(
        ops,
        [
            cg.TensorElement(a, a),
            cg.TensorElement(lp.f_op(a, 1), a),
        ],
    )
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


def test_minus_infinity_serializes_as_text():
    ops = cg.t_weight_ops(A2, (0, 0))
    g = cg.enumerate_crystal(ops, [(0, 0)])
    doc = cg.graph_to_json(g)
    assert doc["nodes"][0]["eps"] == ["-inf", "-inf"]


def test_dot_export_shape():
    g = alcove_graph(A2, (1, 0))
    dot = cg.graph_to_dot(g)
    assert dot.startswith("digraph crystal {")
    assert dot.count(" -> ") == len(g.edges)
    assert 'label="1"' in dot and 'label="2"' in dot
