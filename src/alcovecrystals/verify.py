"""The verification suites: the paper's identities replayed on enumerated crystals.

``SUITES`` maps each suite name to a function ``suite(sweep) -> list[Check]``;
the command line (``alcovecrystals verify``) and the acceptance tests run the
same suites.  A :class:`Sweep` keeps every crystal it builds, so suites run
on one sweep enumerate each crystal once.  Library functions are reached
through their modules (``cg.enumerate_crystal``, not an imported name), so
replacing a module attribute, as a test or a profiler does, reaches the
suites too.  Every suite reports through :class:`crystalgraph.Check`, the
record the checkers return, relabeled for the crystal it ran on.
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


def _window_pool(rs, depth, dual):
    """The elements of Al(infinity) within ``depth`` lowerings of the empty
    element (raisings in the dual model), breadth first.  Unlike an
    enumerated graph this needs no string statistics."""
    op = al.e_op if dual else al.f_op
    start = al.element(chains.window(rs, 1, dual), [])
    pool = {start.pairs(): start}
    layer = [start]
    for _ in range(depth):
        layer = [c for b in layer for i in rs.index_set if (c := op(b, i)) is not None]
        # keep the first of each element not met before
        layer = [pool.setdefault(c.pairs(), c) for c in layer if c.pairs() not in pool]
    return list(pool.values())


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

    def pool(self, depth, dual=False) -> list:
        """The elements of Al(infinity), or its dual, to ``depth``."""
        return self._keep(_window_pool, depth, dual)


_INF = {False: "Al(inf)", True: "Al-dual(inf)"}


def _same(a, b) -> bool:
    """Whether two operator results agree: both undefined or the same foldings."""
    if a is None or b is None:
        return a is b
    return a.pairs() == b.pairs()


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
    graphs = [(f"Al{lam}", sweep.finite(lam)) for lam in sweep.weights]
    for dual, model in _INF.items():
        graphs.append((f"{model} depth {sweep.depth}", sweep.truncation(dual)))
    return [replace(cg.check_stembridge(g), name=f"stembridge {src}") for src, g in graphs]


def _dual_iso(sweep) -> list[Check]:
    """varpi is a dual isomorphism from Al(lam) onto the path crystal, and the
    unbounded transports are dual isomorphisms onto the co-extended and
    extended path models (checked on elements to depth at most 4)."""
    rs = sweep.rs
    out = []
    for lam in sweep.weights:
        graph = sweep.finite(lam)
        ops = cg.alcove_ops(graph.elements[graph.generators[0]].chain), cg.path_ops(rs)
        check = limits.verify_dual_iso(graph.elements.values(), limits.varpi, *ops)
        out.append(replace(check, name=f"dual-iso Al{lam} -> paths checked {check.checked}"))
    bound = min(sweep.depth, 4)
    for dual, mapping, kind in (
        (False, limits.varpi_infinity, "co-extended"),
        (True, limits.varpi_dual_infinity, "extended"),
    ):
        ops = cg.alcove_ops(chains.window(rs, 1, dual)), cg.path_ops(rs, kind)
        check = limits.verify_dual_iso(sweep.pool(bound, dual), mapping, *ops)
        source = f"{_INF[dual]} depth {bound} -> {kind} paths"
        out.append(replace(check, name=f"dual-iso {source} checked {check.checked}"))
    return out


def _limits(sweep) -> list[Check]:
    """Direct-limit coherence on Al(infinity) to ``depth``: each projection onto
    k copies of rho (three values of k from the minimal one) is inverted by the
    inclusion and intertwines both operators; and on Al(infinity) and its
    dual, the operators do not change when the window grows by one or two
    copies."""
    rs = sweep.rs
    checks = 0
    failures = []
    for el in sweep.pool(sweep.depth):
        name = al.render_element(el)
        k0, _ = al.minimal_projection(el)
        for k in range(max(k0, 1), max(k0, 1) + 3):
            image = al.project_Spr(el, k)
            if image is None:
                continue
            checks += 1
            if al.include_Sin(image, k).pairs() != el.pairs():
                failures.append(f"{name}: inclusion does not invert projection at k={k}")
            for i in rs.index_set:
                for op in (al.f_op, al.e_op):
                    big, small = op(el, i), op(image, i)
                    if big is None or small is None:
                        continue
                    checks += 1
                    proj = al.project_Spr(big, k)
                    if proj is not None and proj.pairs() != small.pairs():
                        failures.append(f"{name}: projection does not intertwine at k={k}, i={i}")
    for el in sweep.pool(sweep.depth) + sweep.pool(sweep.depth, dual=True):
        name = f"{_INF[el.is_dual]} {al.render_element(el)}"
        for copies in (1, 2):
            wider = _widen(el, copies)
            for i in rs.index_set:
                for op, step in ((al.f_op, al._lower), (al.e_op, al._raise)):
                    checks += 1
                    if not _same(op(el, i), step(wider, i)):
                        failures.append(f"{name}: +{copies} copies changed {op.__name__} at i={i}")
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
    element of every Al(lam) and of Al(infinity) and its dual to ``depth``."""
    pools = [(f"Al{lam}", sweep.finite(lam).elements.values()) for lam in sweep.weights]
    for dual, model in _INF.items():
        pools.append((f"{model} depth {sweep.depth}", sweep.pool(sweep.depth, dual)))
    checks = 0
    failures = []
    for source, pool in pools:
        for el in pool:
            for i in sweep.rs.index_set:
                for x, op, prof in (("f", al.f_op, al.profile_f), ("e", al.e_op, al.profile_e)):
                    checks += 1
                    if not _same(op(el, i), prof(el, i)):
                        name = al.render_element(el)
                        failures.append(f"{source}: profile_{x} disagrees at {name}, i={i}")
    return [Check(f"profile operators checks {checks}", checks, failures)]


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
