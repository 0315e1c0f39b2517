"""End-to-end acceptance checks, one test per numbered criterion.

Everything here is exact: frozen walks, frozen vertex lists, frozen level
shifts, and counting identities. Several criteria sweep the same family of
small crystals, so enumerations are cached at module level.
"""

from __future__ import annotations

import itertools

import pytest

from alcovecrystals import alcove as al
from alcovecrystals import crystalgraph as cg
from alcovecrystals import littelmann as lp
from alcovecrystals.chains import dual_chain, lex_chain, window
from alcovecrystals.limits import (
    varpi,
    varpi_dual_infinity,
    varpi_infinity,
    verify_dual_iso,
)
from alcovecrystals.rootsys import RootSystem

SWEEP_TYPES = ("A2", "A3", "B2", "G2")

_RS: dict = {}
_FINITE: dict = {}
_PATH_CLOSURE: dict = {}
_TRUNCATION: dict = {}


def rootsys(name):
    if name not in _RS:
        _RS[name] = RootSystem.from_type(name)
    return _RS[name]


def dominant_weights(rs):
    """All dominant weights with fundamental coefficients at most 2."""
    return list(itertools.product(range(3), repeat=rs.rank))


def finite_crystal(name, lam):
    if (name, lam) not in _FINITE:
        rs = rootsys(name)
        chain = lex_chain(rs, lam)
        graph = cg.enumerate_crystal(cg.alcove_ops(chain), [al.element(chain, [])])
        _FINITE[(name, lam)] = (chain, graph)
    return _FINITE[(name, lam)]


def path_closure(name, lam):
    if (name, lam) not in _PATH_CLOSURE:
        rs = rootsys(name)
        graph = cg.enumerate_crystal(cg.path_ops(rs), [lp.straight_path(rs, lam)])
        _PATH_CLOSURE[(name, lam)] = graph
    return _PATH_CLOSURE[(name, lam)]


def elements_of(name, lam):
    """The chain and the full element list of a cached finite crystal."""
    chain, graph = finite_crystal(name, lam)
    index = {(e.root.coeffs, e.level): i for i, e in enumerate(chain.entries)}
    pool = [al.element(chain, [index[p] for p in key]) for key in graph.nodes]
    return chain, pool


def window_truncation(name, depth, dual=False):
    key = (name, depth, dual)
    if key not in _TRUNCATION:
        rs = rootsys(name)
        win = window(rs, 1, dual=dual)
        graph = cg.enumerate_crystal(
            cg.alcove_ops(win), [al.element(win, [])], depth=depth
        )
        _TRUNCATION[key] = graph
    return _TRUNCATION[key]


def window_pool(name, depth, dual=False):
    rs = rootsys(name)
    big = window(rs, max(depth, 1), dual=dual)
    graph = window_truncation(name, depth, dual)
    return [al.element_from_pairs(big, key) for key in graph.nodes]


def pair_list(el):
    return [(r.coeffs, lvl) for r, lvl in el.pairs()]


def test_criterion_01_golden_lowering_walk_in_type_a3():
    """A pinned eight step walk down from the empty element and back."""
    rs = rootsys("A3")
    el = al.element(window(rs, 1), [])
    for i in (2, 1, 3, 2, 2, 1, 3, 2):
        el = al.f_op(el, i)
        assert el is not None

    a2, a23, a12, a123 = (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)
    assert pair_list(el) == [(a2, -2), (a23, -2), (a12, -2), (a123, -2)]

    k, image = al.minimal_projection(el)
    assert k == 2
    assert image.chain.lam == (2, 2, 2)
    assert pair_list(image) == [(a2, 0), (a23, 2), (a12, 2), (a123, 4)]

    word = []
    cur = el
    while True:
        for i in rs.index_set:
            up = al.e_op(cur, i)
            if up is not None:
                word.append(i)
                cur = up
                break
        else:
            break
    assert word == [2, 1, 2, 1, 3, 2, 3, 2]
    assert cur.pairs() == ()

    three = al.project_Spr(el, 3)
    four = al.project_Spr(el, 4)
    assert three is not None and three.chain.lam == (3, 3, 3)
    assert four is not None and four.chain.lam == (4, 4, 4)
    assert pair_list(three) == [(a2, 1), (a23, 4), (a12, 4), (a123, 7)]
    assert pair_list(four) == [(a2, 2), (a23, 6), (a12, 6), (a123, 10)]

    # the weight is minus (2 a1 + 4 a2 + 2 a3), written in the weight basis
    acc = (0, 0, 0)
    for i, mult in ((1, 2), (2, 4), (3, 2)):
        step = rs.root_in_weight_coords(rs.simple_root(i))
        acc = tuple(a - mult * b for a, b in zip(acc, step))
    assert al.weight(el) == acc == (0, -4, 0)


def test_criterion_02_vertex_lists_for_small_a3_weights():
    chain, graph = finite_crystal("A3", (2, 0, 0))
    index = {(e.root.coeffs, e.level): i for i, e in enumerate(chain.entries)}
    found = sorted(
        (sorted(index[p] for p in key) for key in graph.nodes),
        key=lambda s: (len(s), s),
    )
    assert found == [
        [],
        [0],
        [3],
        [0, 1],
        [0, 4],
        [3, 4],
        [0, 1, 2],
        [0, 1, 5],
        [0, 4, 5],
        [3, 4, 5],
    ]

    chain1, graph1 = finite_crystal("A3", (1, 0, 0))
    index1 = {(e.root.coeffs, e.level): i for i, e in enumerate(chain1.entries)}
    found1 = sorted(
        (sorted(index1[p] for p in key) for key in graph1.nodes),
        key=lambda s: (len(s), s),
    )
    assert found1 == [[], [0], [0, 1], [0, 1, 2]]

    assert not al.is_admissible(al.AlcoveElement(chain1, (1, 2)))
    with pytest.raises(ValueError):
        al.element(chain1, [1, 2])


R1, R2, R12 = (1, 0), (0, 1), (1, 1)

DEPTH4_NODES = (
    (),
    ((R1, -1),),
    ((R2, -1),),
    ((R1, -2),),
    ((R1, -1), (R12, -1)),
    ((R2, -1), (R12, -1)),
    ((R2, -2),),
    ((R1, -3),),
    ((R1, -2), (R12, -1)),
    ((R2, -1), (R1, -1)),
    ((R2, -1), (R12, -2)),
    ((R2, -2), (R12, -1)),
    ((R2, -3),),
    ((R1, -4),),
    ((R1, -3), (R12, -1)),
    ((R1, -2), (R12, -2)),
    ((R2, -2), (R1, -1)),
    ((R2, -1), (R12, -2), (R1, -1)),
    ((R1, -2), (R2, -1)),
    ((R2, -2), (R12, -2)),
    ((R2, -3), (R12, -1)),
    ((R2, -4),),
)

DEPTH4_EDGES = (
    ((), 1, ((R1, -1),)),
    ((), 2, ((R2, -1),)),
    (((R1, -1),), 1, ((R1, -2),)),
    (((R1, -1),), 2, ((R1, -1), (R12, -1))),
    (((R2, -1),), 1, ((R2, -1), (R12, -1))),
    (((R2, -1),), 2, ((R2, -2),)),
    (((R1, -2),), 1, ((R1, -3),)),
    (((R1, -2),), 2, ((R1, -2), (R12, -1))),
    (((R1, -1), (R12, -1)), 1, ((R1, -2), (R12, -1))),
    (((R1, -1), (R12, -1)), 2, ((R2, -1), (R1, -1))),
    (((R2, -1), (R12, -1)), 1, ((R2, -1), (R12, -2))),
    (((R2, -1), (R12, -1)), 2, ((R2, -2), (R12, -1))),
    (((R2, -2),), 1, ((R2, -2), (R12, -1))),
    (((R2, -2),), 2, ((R2, -3),)),
    (((R1, -3),), 1, ((R1, -4),)),
    (((R1, -3),), 2, ((R1, -3), (R12, -1))),
    (((R1, -2), (R12, -1)), 1, ((R1, -3), (R12, -1))),
    (((R1, -2), (R12, -1)), 2, ((R1, -2), (R12, -2))),
    (((R2, -1), (R1, -1)), 1, ((R2, -1), (R12, -2), (R1, -1))),
    (((R2, -1), (R1, -1)), 2, ((R2, -2), (R1, -1))),
    (((R2, -1), (R12, -2)), 1, ((R1, -2), (R2, -1))),
    (((R2, -1), (R12, -2)), 2, ((R2, -1), (R12, -2), (R1, -1))),
    (((R2, -2), (R12, -1)), 1, ((R2, -2), (R12, -2))),
    (((R2, -2), (R12, -1)), 2, ((R2, -3), (R12, -1))),
    (((R2, -3),), 1, ((R2, -3), (R12, -1))),
    (((R2, -3),), 2, ((R2, -4),)),
)


def test_criterion_03_depth_four_window_figure_in_a2():
    """The depth 4 slice of the unbounded A2 crystal, node by node."""
    graph = window_truncation("A2", 4)
    assert len(DEPTH4_NODES) == len(set(DEPTH4_NODES)) == 22
    assert set(graph.nodes) == set(DEPTH4_NODES)
    assert len(graph.edges) == len(DEPTH4_EDGES) == 26
    assert set(graph.edges) == set(DEPTH4_EDGES)

    # sliding each element into Al(4 rho) shifts simple-root levels by 4
    # and height two levels by 8
    rs = rootsys("A2")
    big = window(rs, 5)
    for key in DEPTH4_NODES:
        el = al.element_from_pairs(big, key)
        image = al.project_Spr(el, 4)
        assert image is not None
        assert image.chain.lam == (4, 4)
        assert pair_list(image) == [(c, lvl + 4 * sum(c)) for c, lvl in key]


def test_criterion_04_enumeration_matches_weyl_dimension():
    for name in SWEEP_TYPES:
        rs = rootsys(name)
        for lam in dominant_weights(rs):
            dim = cg.weyl_dimension(rs, lam)
            _, graph = finite_crystal(name, lam)
            assert len(graph.nodes) == dim, (name, lam)
            assert len(path_closure(name, lam).nodes) == dim, (name, lam)


def test_criterion_05_axiom_and_local_structure_suites():
    for name in SWEEP_TYPES:
        for lam in dominant_weights(rootsys(name)):
            _, graph = finite_crystal(name, lam)
            report = cg.check_axioms(graph, seminormal=True)
            assert report.ok, (name, lam, report.failures[:3])
            report = cg.check_axioms(path_closure(name, lam), seminormal=True)
            assert report.ok, (name, lam, report.failures[:3])

    for name in ("A2", "A3"):
        rs = rootsys(name)
        for dual in (False, True):
            report = cg.check_axioms(window_truncation(name, 5, dual))
            assert report.ok, (name, dual, report.failures[:3])
        for kind, seed in (
            ("extended", lp.pi_infinity(rs)),
            ("co-extended", lp.xi_infinity(rs)),
        ):
            graph = cg.enumerate_crystal(cg.path_ops(rs, kind), [seed], depth=5)
            report = cg.check_axioms(graph)
            assert report.ok, (name, kind, report.failures[:3])

    pairs_seen = 0
    for name in ("A2", "A3"):
        for lam in dominant_weights(rootsys(name)):
            for graph in (finite_crystal(name, lam)[1], path_closure(name, lam)):
                report = cg.check_stembridge(graph)
                assert report.ok, (name, lam, report.failures[:3])
                pairs_seen += report.checked_pairs
        for dual in (False, True):
            report = cg.check_stembridge(window_truncation(name, 5, dual))
            assert report.ok, (name, dual, report.failures[:3])
            pairs_seen += report.checked_pairs
    assert pairs_seen > 0


def test_criterion_06_finite_dual_isomorphism_sweep():
    total = 0
    for name in SWEEP_TYPES:
        rs = rootsys(name)
        for lam in dominant_weights(rs):
            chain, pool = elements_of(name, lam)
            report = verify_dual_iso(
                pool, varpi, cg.alcove_ops(chain), cg.path_ops(rs)
            )
            assert report.failures == [], (name, lam, report.failures[:3])
            assert report.checked == cg.weyl_dimension(rs, lam)
            total += report.checked
    assert total > 100


def test_criterion_07_direct_limit_coherence():
    checks = 0
    for name in ("A2", "A3"):
        rs = rootsys(name)
        for el in window_pool(name, 5):
            k0, _ = al.minimal_projection(el)
            start = max(k0, 1)
            for k in range(start, start + 3):
                image = al.project_Spr(el, k)
                if image is None:
                    continue
                assert al.include_Sin(image, k).pairs() == el.pairs(), (name, k)
                for i in rs.index_set:
                    for op in (al.f_op, al.e_op):
                        big = op(el, i)
                        small = op(image, i)
                        if big is None or small is None:
                            continue
                        proj = al.project_Spr(big, k)
                        if proj is not None:
                            assert proj.pairs() == small.pairs(), (name, k, i)
                        checks += 1
            wider = al.element_from_pairs(
                window(rs, el.chain.copies + 1), pair_list(el)
            )
            for i in rs.index_set:
                for op in (al.f_op, al.e_op):
                    a, b = op(el, i), op(wider, i)
                    assert (a is None) == (b is None), (name, i)
                    if a is not None:
                        assert a.pairs() == b.pairs(), (name, i)
                    checks += 1
    assert checks > 500


def test_criterion_08_unbounded_dual_isomorphisms_in_a2():
    rs = rootsys("A2")
    primal = window_pool("A2", 4)
    dual = window_pool("A2", 4, dual=True)
    assert len(primal) == len(dual) == 22

    report = verify_dual_iso(
        primal,
        varpi_infinity,
        cg.alcove_ops(window(rs, 1)),
        cg.path_ops(rs, "co-extended"),
    )
    assert report.failures == [] and report.checked == 22

    report = verify_dual_iso(
        dual,
        varpi_dual_infinity,
        cg.alcove_ops(window(rs, 1, dual=True)),
        cg.path_ops(rs, "extended"),
    )
    assert report.failures == [] and report.checked == 22

    # the image path does not depend on which window size computes it
    for el in primal:
        base = varpi_infinity(el)
        k0, _ = al.minimal_projection(el)
        for k in range(max(k0, 1), max(k0, 1) + 3):
            assert varpi_infinity(el, copies=k) == base
    for el in dual:
        base = varpi_dual_infinity(el)
        hits = 0
        for k in range(1, 7):
            try:
                image = varpi_dual_infinity(el, copies=k)
            except ValueError:
                continue
            assert image == base
            hits += 1
        assert hits >= 2


def test_criterion_09_profile_operators_match_signature_operators():
    pools = []
    for name in SWEEP_TYPES:
        for lam in dominant_weights(rootsys(name)):
            pools.append((rootsys(name), elements_of(name, lam)[1]))
    for name in ("A2", "A3"):
        for dual in (False, True):
            pools.append((rootsys(name), window_pool(name, 5, dual=dual)))

    checks = 0
    for rs, pool in pools:
        for el in pool:
            for i in rs.index_set:
                for sig, prof in (
                    (al.f_op(el, i), al.profile_f(el, i)),
                    (al.e_op(el, i), al.profile_e(el, i)),
                ):
                    assert (sig is None) == (prof is None), al.render_element(el)
                    if sig is not None:
                        assert sig.pairs() == prof.pairs(), al.render_element(el)
                    checks += 1
    assert checks > 1000


def test_criterion_10_duality_of_models_and_paths():
    for name, lam in (("A2", (1, 1)), ("A3", (1, 0, 0)), ("A3", (2, 0, 0))):
        rs = rootsys(name)
        chain = lex_chain(rs, lam)
        flipped = dual_chain(chain)
        primal = cg.enumerate_crystal(cg.alcove_ops(chain), [al.element(chain, [])])
        mirror_model = cg.enumerate_crystal(
            cg.alcove_ops(flipped), [al.element(flipped, [])]
        )
        assert cg.is_isomorphic(cg.dualize_graph(primal), mirror_model)
        assert cg.is_isomorphic(cg.dualize_graph(mirror_model), primal)

    rs = rootsys("A2")
    samples = [
        lp.PLPath(rs, kind, segments)
        for kind, segments in path_closure("A2", (1, 1)).nodes
    ]
    samples.append(lp.xi_infinity(rs))
    samples.append(lp.pi_infinity(rs))
    samples.append(lp.e_op(lp.xi_infinity(rs), 1))
    samples.append(lp.f_op(lp.pi_infinity(rs), 2))
    samples.append(varpi_infinity(window_pool("A2", 3)[5]))
    for p in samples:
        assert lp.dualize(lp.dualize(p)) == p
