"""End-to-end acceptance checks, one test per numbered criterion.

Everything here is exact: frozen walks, frozen vertex lists, frozen level
shifts, and counting identities. Criteria 05, 06, 07 and 09 run the
verification suites that the command line runs. Several criteria sweep the
same family of small crystals, so each type keeps one sweep at module level.
"""

from __future__ import annotations

import functools

import pytest

from alcovecrystals import alcove as al
from alcovecrystals import crystalgraph as cg
from alcovecrystals import littelmann as lp
from alcovecrystals.chains import lex_chain, window
from alcovecrystals.limits import varpi_dual_infinity, varpi_infinity
from alcovecrystals.rootsys import RootSystem
from alcovecrystals.verify import SUITES, Sweep

from test_alcove import element_from_pairs
from test_limits import least_copies, reference_varpi_dual_infinity, reference_varpi_infinity

SWEEP_TYPES = ("A2", "A3", "B2", "C2", "G2")


@functools.cache
def sweep(name):
    """The crystals of one type, with unbounded crystals to depth 5."""
    return Sweep(RootSystem.from_type(name), 5)


def passing(suite, name):
    """Run a suite on the sweep of one type; every check must pass."""
    checks = SUITES[suite](sweep(name))
    for check in checks:
        assert check.ok, (name, check.name, check.failures[:3])
    return checks


def pair_list(el):
    return [(r.coeffs, lvl) for r, lvl in el.pairs()]


def pair_key(el):
    """The foldings of ``el`` as (root coefficients, level) pairs."""
    return tuple(pair_list(el))


def test_criterion_01_golden_lowering_walk_in_type_a3():
    """A pinned eight step walk down from the empty element and back."""
    rs = sweep("A3").rs
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
    graph = sweep("A3").finite((2, 0, 0))
    found = sorted((list(el.positions) for el in graph.nodes), key=lambda s: (len(s), s))
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

    chain1, graph1 = lex_chain(sweep("A3").rs, (1, 0, 0)), sweep("A3").finite((1, 0, 0))
    found1 = sorted((list(el.positions) for el in graph1.nodes), key=lambda s: (len(s), s))
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
    graph = Sweep(sweep("A2").rs, 4).truncation()
    assert len(DEPTH4_NODES) == len(set(DEPTH4_NODES)) == 22
    assert {pair_key(el) for el in graph.nodes} == set(DEPTH4_NODES)
    assert len(graph.edges) == len(DEPTH4_EDGES) == 26
    assert {(pair_key(a), i, pair_key(b)) for a, i, b in graph.edges} == set(DEPTH4_EDGES)

    # sliding each element into Al(4 rho) shifts simple-root levels by 4
    # and height two levels by 8
    rs = sweep("A2").rs
    big = window(rs, 5)
    for key in DEPTH4_NODES:
        el = element_from_pairs(big, key)
        image = al.project_Spr(el, 4)
        assert image is not None
        assert image.chain.lam == (4, 4)
        assert pair_list(image) == [(c, lvl + 4 * sum(c)) for c, lvl in key]


def test_criterion_04_enumeration_matches_weyl_dimension():
    for name in SWEEP_TYPES:
        s = sweep(name)
        for lam in s.weights:
            dim = cg.weyl_dimension(s.rs, lam)
            assert len(s.finite(lam).nodes) == dim, (name, lam)
            assert len(s.paths(lam).nodes) == dim, (name, lam)


def test_criterion_05_axiom_and_local_structure_suites():
    # the axioms suite also checks that each Al(lam) is isomorphic to its
    # path crystal, so the local structure of the path closures follows from
    # that of the alcove crystals
    for name in SWEEP_TYPES:
        passing("axioms", name)

    pairs_seen = 0
    for name in ("A2", "A3"):
        checks = passing("stembridge", name)
        assert len(checks) == len(sweep(name).weights) + 2
        pairs_seen += sum(check.checked for check in checks)
    assert pairs_seen > 0


def test_criterion_06_finite_dual_isomorphism_sweep():
    total = 0
    for name in SWEEP_TYPES:
        s = sweep(name)
        checks = passing("dual-iso", name)
        for lam, check in zip(s.weights, checks):
            assert check.name.startswith(f"dual-iso Al{lam} -> paths"), check.name
            assert check.checked == cg.weyl_dimension(s.rs, lam)
            total += check.checked
        assert len(checks) == len(s.weights) + 2
        if name == "A2":
            # the unbounded isomorphisms at the sweep's depth, 5
            assert [check.name for check in checks[-2:]] == [
                "dual-iso Al(inf) depth 5 -> co-extended paths checked 34",
                "dual-iso Al-dual(inf) depth 5 -> extended paths checked 34",
            ]
    assert total > 100


def test_criterion_07_direct_limit_coherence():
    checks = sum(check.checked for name in ("A2", "A3") for check in passing("limits", name))
    assert checks > 500


def test_criterion_08_unbounded_dual_isomorphisms_in_a2():
    depth4 = Sweep(sweep("A2").rs, 4)
    primal = depth4.truncation().nodes
    dual = depth4.truncation(dual=True).nodes
    assert len(primal) == len(dual) == 22

    # the suite's last two checks transport these two truncations
    checks = SUITES["dual-iso"](depth4)
    assert all(check.ok for check in checks), [check.failures[:3] for check in checks]
    unbounded = checks[-2:]
    assert [check.name for check in unbounded] == [
        "dual-iso Al(inf) depth 4 -> co-extended paths checked 22",
        "dual-iso Al-dual(inf) depth 4 -> extended paths checked 22",
    ]
    assert [check.checked for check in unbounded] == [22, 22]

    # the image path is what every finite crystal of k rho that holds the
    # element gives, whichever k computes it
    for el in primal:
        base = varpi_infinity(el)
        k0 = least_copies(el)
        for k in range(k0, k0 + 3):
            assert reference_varpi_infinity(el, k) == base
    for el in dual:
        base = varpi_dual_infinity(el)
        hits = 0
        for k in range(1, 7):
            try:
                image = reference_varpi_dual_infinity(el, k)
            except ValueError:
                continue
            assert image == base
            hits += 1
        assert hits >= 2


def test_criterion_09_profile_operators_match_signature_operators():
    checks = sum(check.checked for name in SWEEP_TYPES for check in passing("profile", name))
    assert checks > 1000


def test_criterion_10_duality_of_models_and_paths():
    for name, lam in (("A2", (1, 1)), ("A3", (1, 0, 0)), ("A3", (2, 0, 0))):
        primal = sweep(name).finite(lam)
        mirror_model = sweep(name).finite(lam, dual=True)
        assert cg.is_isomorphic(cg.dualize_graph(primal), mirror_model)
        assert cg.is_isomorphic(cg.dualize_graph(mirror_model), primal)

    rs = sweep("A2").rs
    samples = list(sweep("A2").paths((1, 1)).nodes)
    samples.append(lp.xi_infinity(rs))
    samples.append(lp.pi_infinity(rs))
    samples.append(lp.e_op(lp.xi_infinity(rs), 1))
    samples.append(lp.f_op(lp.pi_infinity(rs), 2))
    samples.append(varpi_infinity(list(Sweep(rs, 3).truncation().nodes)[5]))
    for p in samples:
        assert lp.dualize(lp.dualize(p)) == p
