"""The verification suites: the paper's identities replayed on enumerated crystals.

``SUITES`` maps each suite name to a function ``suite(sweep) -> list[Check]``;
the command line (``alcovecrystals verify``) and the acceptance tests run the
same suites.  A :class:`Sweep` keeps every crystal it builds, so suites run
on one sweep enumerate each crystal once.  Library functions are reached
through their modules (``cg.enumerate_crystal``, not an imported name), so
replacing a module attribute, as a test or a profiler does, reaches the
suites too.  Elements key graphs and are compared with ``==``; once a
graph's ``links`` number its nodes, suites read its edges by node id.
Every suite reports through :class:`crystalgraph.Check`, the record the
checkers return, relabeled for the crystal it ran on.  Suites read what the
sweep already holds: the profile suite takes the signature operators'
results from each graph's ``links.below`` and ``links.above``, computing
them only on a truncation's boundary, and runs ``check_axioms``' inverse
check on each graph so that an operator wrong only in the direction
enumeration skipped still fails.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from . import alcove as al
from . import chains
from . import crystalgraph as cg
from . import limits
from . import littelmann as lp
from .crystalgraph import Check

__all__ = ["Check", "SUITES", "Sweep"]


def _alcove_closure(rs, lam, dual):
    chain = chains.lex_chain(rs, lam)
    if dual:
        chain = chains.dual_chain(chain)
    return cg.enumerate_crystal(cg.alcove_ops(chain), [al.element(chain, [])])


def _path_closure(rs, lam):
    return cg.enumerate_crystal(cg.path_ops(rs), [lp.straight_path(rs, lam)])


def _window_truncation(rs, depth, dual):
    win = chains.window(rs, 1, dual)
    return cg.enumerate_crystal(cg.alcove_ops(win), [al.element(win, [])], depth=depth)


def _path_truncation(rs, depth, kind):
    seed = lp.pi_infinity(rs) if kind == "extended" else lp.xi_infinity(rs)
    return cg.enumerate_crystal(cg.path_ops(rs, kind), [seed], depth=depth)


_INF = {False: "Al(inf)", True: "Al-dual(inf)"}


class Sweep:
    """The crystals of one root system that the suites check, built on first
    use and kept: Al(lam), its dual model and the path crystal for every
    dominant weight lam with coefficients at most 2, and the unbounded
    models truncated at ``depth``."""

    def __init__(self, rs, depth: int):
        self.rs = rs
        self.depth = depth
        self.weights = list(itertools.product(range(3), repeat=rs.rank))
        self._kept: dict = {}

    def _keep(self, build, *args):
        key = (build, *args)
        if key not in self._kept:
            self._kept[key] = build(self.rs, *args)
        return self._kept[key]

    def finite(self, lam, dual=False) -> cg.CrystalGraph:
        """Al(lam), or its dual model."""
        return self._keep(_alcove_closure, tuple(lam), dual)

    def paths(self, lam) -> cg.CrystalGraph:
        """The path crystal of lam: the closure of the straight path."""
        return self._keep(_path_closure, tuple(lam))

    def truncation(self, dual=False) -> cg.CrystalGraph:
        """Al(infinity), or its dual, enumerated to ``depth``."""
        return self._keep(_window_truncation, self.depth, dual)

    def path_truncation(self, kind) -> cg.CrystalGraph:
        """The extended or co-extended path model enumerated to ``depth``."""
        return self._keep(_path_truncation, self.depth, kind)

    def alcove_graphs(self) -> list:
        """(name, graph) for every Al(lam), then Al(infinity) and its dual."""
        return [(f"Al{lam}", self.finite(lam)) for lam in self.weights] + [
            (f"{model} depth {self.depth}", self.truncation(dual)) for dual, model in _INF.items()
        ]


def _axioms(sweep) -> list[Check]:
    """Crystal axioms on every crystal of the sweep; each Al(lam) has the Weyl
    dimension of nodes and is isomorphic to the path crystal of lam."""
    out = []
    for lam in sweep.weights:
        alcove, paths = sweep.finite(lam), sweep.paths(lam)
        out.append(replace(cg.check_axioms(alcove, seminormal=True), name=f"axioms Al{lam}"))
        out.append(replace(cg.check_axioms(paths, seminormal=True), name=f"axioms paths{lam}"))
        dim = cg.weyl_dimension(sweep.rs, lam)
        failures = [
            f"{model}{lam} has {len(graph.nodes)} nodes, the Weyl dimension is {dim}"
            for model, graph in (("Al", alcove), ("paths", paths))
            if len(graph.nodes) != dim
        ]
        if not cg.is_isomorphic(alcove, paths):
            failures.append(f"Al{lam} and paths{lam} are not isomorphic")
        out.append(Check(f"axioms Al{lam} iso paths, dimension {dim}", dim, failures))
    truncations = [(model, sweep.truncation(dual)) for dual, model in _INF.items()]
    for kind in ("extended", "co-extended"):
        truncations.append((f"{kind} paths", sweep.path_truncation(kind)))
    for model, graph in truncations:
        out.append(replace(cg.check_axioms(graph), name=f"axioms {model} depth {sweep.depth}"))
    return out


def _stembridge(sweep) -> list[Check]:
    """Stembridge's local conditions on Al(lam) and the truncated Al(infinity)
    and its dual; simply laced types only."""
    if not sweep.rs.cartan.simply_laced:
        return [Check("stembridge skipped: not simply laced", 0, [])]
    graphs = sweep.alcove_graphs()
    return [replace(cg.check_stembridge(g), name=f"stembridge {src}") for src, g in graphs]


def _dual_iso(sweep) -> list[Check]:
    """varpi is a dual isomorphism from Al(lam) onto the path crystal of
    lam* = -w0 lam, the negated weight of Al(lam)'s lowest node, and the
    unbounded transports are dual isomorphisms from Al(infinity) and its
    dual onto the co-extended and extended path models, all truncated at
    ``depth``.  Each compares two enumerated graphs."""
    out = []
    for lam in sweep.weights:
        graph = sweep.finite(lam)
        lowest = next(data for data in graph.nodes.values() if not any(data.phi))
        paths = sweep.paths(tuple(-c for c in lowest.weight))
        check = cg.check_dual_iso(graph, limits.varpi, paths)
        out.append(replace(check, name=f"dual-iso Al{lam} -> paths checked {check.checked}"))
    for dual, mapping, kind in (
        (False, limits.varpi_infinity, "co-extended"),
        (True, limits.varpi_dual_infinity, "extended"),
    ):
        check = cg.check_dual_iso(sweep.truncation(dual), mapping, sweep.path_truncation(kind))
        source = f"{_INF[dual]} depth {sweep.depth} -> {kind} paths"
        out.append(replace(check, name=f"dual-iso {source} checked {check.checked}"))
    return out


def _limits(sweep) -> list[Check]:
    """Direct-limit coherence on Al(infinity) to ``depth``: each projection onto
    k copies of rho (three values of k from the minimal one) is inverted by the
    inclusion and intertwines both operators; and on Al(infinity) and its
    dual, the operators do not change when the window grows by one or two
    copies.  Each public operator is applied once per element and direction
    and its result read by both parts, with the way ``_step`` reads it
    (``up``); the graph's edges are not read, so the suite checks the
    operators themselves."""
    rs = sweep.rs
    checks = 0
    failures = []
    nodes = [*sweep.truncation().nodes, *sweep.truncation(dual=True).nodes]
    moves = {
        el: [
            (i, op, up, op(el, i))
            for i in rs.index_set
            for op, up in ((al.f_op, el.is_dual), (al.e_op, not el.is_dual))
        ]
        for el in nodes
    }
    for el in sweep.truncation().nodes:
        k0, _ = al.minimal_projection(el)
        for k in range(max(k0, 1), max(k0, 1) + 3):
            image = al.project_Spr(el, k)
            if image is None:
                continue
            checks += 1
            if al.include_Sin(image, k) != el:
                failures.append(f"{el!r}: inclusion does not invert projection at k={k}")
            for i, op, _, big in moves[el]:
                small = op(image, i)
                if big is None or small is None:
                    continue
                checks += 1
                proj = al.project_Spr(big, k)
                if proj is not None and proj != small:
                    failures.append(f"{el!r}: projection does not intertwine at k={k}, i={i}")
    for el in nodes:
        model = _INF[el.is_dual]
        for copies in (1, 2):
            wider = _widen(el, copies)
            for i, op, up, result in moves[el]:
                checks += 1
                if result != al._step(wider, i, up):
                    failures.append(f"{model} {el!r}: +{copies} copies changed {op.__name__} at i={i}")
    return [Check(f"limits coherence checks {checks}", checks, failures)]


def _widen(el, copies):
    """The same element over a window of ``copies`` more blocks, left as it
    is rather than renormalized: a primal window grows at its start, so its
    positions move by as many blocks."""
    chain = chains.window(el.rs, el.chain.copies + copies, el.is_dual)
    shift = el.chain.offset(chain.copies)
    return al.AlcoveElement(chain, tuple(p + shift for p in el.positions))


def _profile(sweep) -> list[Check]:
    """The profile operators agree with the signature operators on every
    element of every Al(lam) and of Al(infinity) and its dual to ``depth``.
    On the same elements the profile falls from its peak to its end by twice
    epsilon primally and twice phi dually: a check of the string statistics
    that shares no code with the signature reading (``_reading``) they come
    from, and that runs the profile's structure conditions on every element
    and direction; a violation is a failure naming them.

    The signature operators' results are read off each graph's ``links``,
    the other end's id in the node's slot of ``below`` (f) and ``above``
    (e), and computed only at the nodes on a truncation's boundary, where
    edges were left out.  The edges hold one direction of each operator: enumeration
    computed each edge once, so an operator wrong only in the direction it
    skipped reads right there.  Each graph therefore also gets
    ``check_axioms``' inverse check, which computes every edge's other
    direction."""
    index_set, rank = sweep.rs.index_set, sweep.rs.rank
    checks = stats = 0
    failures, stat_failures = [], []
    for source, graph in sweep.alcove_graphs():
        order, below, above, _ = graph.links
        keys = list(graph.nodes)
        boundary = {order[el] for el in graph.boundary}
        for n, el in enumerate(keys):
            name, stat = ("phi", al.phi) if el.is_dual else ("epsilon", al.epsilon)
            cut = n in boundary
            for pos, i in enumerate(index_set):
                checks += 2
                stats += 1
                try:
                    for x, moved, op, prof in (
                        ("f", below, al.f_op, al.profile_f),
                        ("e", above, al.e_op, al.profile_e),
                    ):
                        if cut:
                            result = op(el, i)
                        else:
                            m = moved[n * rank + pos]
                            result = None if m is None else keys[m]
                        if result != prof(el, i):
                            failures.append(f"{source}: profile_{x} disagrees at {el!r}, i={i}")
                    _, _, h_inf, peak = al._profile_data(el, i)
                except al.ProfileError:
                    failures.append(f"{source}: profile structure violated at {el!r}, i={i}")
                    continue
                if peak - h_inf != 2 * stat(el, i):
                    stat_failures.append(f"{source}: {name} disagrees with the profile at {el!r}, i={i}")
        failures += [f"{source}: {failure}" for failure in graph.inverse_failures]
    return [
        Check(f"profile operators checks {checks}", checks, failures),
        Check(f"profile statistics checks {stats}", stats, stat_failures),
    ]


def _duality(sweep) -> list[Check]:
    """Dualizing Al(lam) gives its dual model, and dualizing that gives Al(lam)."""
    out = []
    for lam in sweep.weights:
        primal, dual = sweep.finite(lam), sweep.finite(lam, dual=True)
        failures = []
        if not cg.is_isomorphic(cg.dualize_graph(primal), dual):
            failures.append(f"Al{lam}: its dual graph differs from the dual model")
        if not cg.is_isomorphic(cg.dualize_graph(dual), primal):
            failures.append(f"Al{lam}: the dual graph of the dual model differs from it")
        out.append(Check(f"duality Al{lam}", len(primal.nodes), failures))
    return out


SUITES = {
    "axioms": _axioms,
    "stembridge": _stembridge,
    "dual-iso": _dual_iso,
    "limits": _limits,
    "profile": _profile,
    "duality": _duality,
}
