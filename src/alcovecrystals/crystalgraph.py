"""Enumerate crystals into explicit graphs and audit their structure.

Everything here works through a :class:`CrystalOps` bundle, so the alcove
model, the path model, single-node weight twists and tensor products all feed
the same machinery.  Enumeration is a deterministic breadth-first walk along
both raising and lowering operators; the resulting graph keeps per-node
statistics so checks need no further operator calls.

Graphs truncated at a depth remember which nodes had neighbors suppressed
(``boundary``); structural checks skip existence assertions exactly there.
Every checker, here and in ``limits`` and ``verify``, returns a
:class:`Check`: a name, how much it covered, and failures as strings that
start with the label of the failing element.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from . import alcove as _alcove
from . import littelmann as _paths
from .rootsys import RootSystem, pairing

__all__ = [
    "Check",
    "CrystalGraph",
    "CrystalOps",
    "NodeData",
    "TensorElement",
    "alcove_ops",
    "check_axioms",
    "check_stembridge",
    "dualize_graph",
    "enumerate_crystal",
    "graph_to_dot",
    "graph_to_json",
    "highest_weight_keys",
    "is_isomorphic",
    "path_ops",
    "t_weight_ops",
    "tensor_ops",
    "weyl_dimension",
]


class _MinusInfinity:
    """The string statistic of an element no operator moves: exact, below
    every integer and unchanged by adding or subtracting one, so tensor
    products compare, shift and ``max`` it like any other statistic."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MINUS_INF"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(_MinusInfinity)

    def __lt__(self, other) -> bool:
        return other is not self

    def __le__(self, other) -> bool:
        return True

    def __gt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return other is self

    def __add__(self, other):
        return self if isinstance(other, int) else NotImplemented

    __radd__ = __add__
    __sub__ = __add__


MINUS_INF = _MinusInfinity()


@dataclass(frozen=True)
class CrystalOps:
    """Operator bundle: everything the graph machinery needs about a model."""

    rs: RootSystem
    f: Callable[[Any, int], Any]
    e: Callable[[Any, int], Any]
    epsilon: Callable[[Any, int], Any]
    phi: Callable[[Any, int], Any]
    weight: Callable[[Any], tuple]
    key: Callable[[Any], Any]
    render: Callable[[Any], str]
    finite: bool


def alcove_ops(chain) -> CrystalOps:
    """Ops for the alcove model over the given chain or window; an element
    of the other kind (window against finite chain) has no key."""
    is_window = chain.is_window

    def key(x):
        if x.is_window != is_window:
            raise ValueError(f"{x!r} is not over a {'window' if is_window else 'finite chain'}")
        return tuple((r.coeffs, lvl) for r, lvl in x.pairs())

    return CrystalOps(
        rs=chain.rs,
        f=_alcove.f_op,
        e=_alcove.e_op,
        epsilon=_alcove.epsilon,
        phi=_alcove.phi,
        weight=_alcove.weight,
        key=key,
        render=_alcove.render_element,
        finite=not chain.is_window,
    )


def path_ops(rs: RootSystem, kind: str = "finite") -> CrystalOps:
    """Ops for the piecewise linear path model of the given kind; a path of
    another kind has no key."""
    if kind not in _paths.KINDS:
        raise ValueError(f"unknown path kind {kind!r}")

    def key(p):
        if p.kind != kind:
            raise ValueError(f"a {p.kind} path is not a {kind} path")
        return (p.kind, p.den, p.times, p.points)

    return CrystalOps(
        rs=rs,
        f=_paths.f_op,
        e=_paths.e_op,
        epsilon=_paths.epsilon,
        phi=_paths.phi,
        weight=_paths.weight,
        key=key,
        render=_paths.render_path,
        finite=kind == "finite",
    )


def t_weight_ops(rs: RootSystem, lam) -> CrystalOps:
    """The one-element crystal carrying only a weight.

    Both statistics are minus infinity, so in tensor products this factor is
    transparent to the operators and only shifts weights.
    """
    lam = tuple(int(c) for c in lam)

    return CrystalOps(
        rs=rs,
        f=lambda x, i: None,
        e=lambda x, i: None,
        epsilon=lambda x, i: MINUS_INF,
        phi=lambda x, i: MINUS_INF,
        weight=lambda x: x,
        key=lambda x: ("T", x),
        render=lambda x: f"T{x}",
        finite=True,
    )


@dataclass(frozen=True)
class TensorElement:
    left: Any
    right: Any


def tensor_ops(left: CrystalOps, right: CrystalOps) -> CrystalOps:
    """The tensor product crystal, left factor written first.

    The convention is the reversed one: statistics compare the left factor's
    raising budget against the right factor's lowering budget.
    """
    if left.rs != right.rs:
        raise ValueError("tensor factors live over different root systems")
    rs = left.rs

    def f(x, i):
        if left.epsilon(x.left, i) >= right.phi(x.right, i):
            down = left.f(x.left, i)
            return None if down is None else TensorElement(down, x.right)
        down = right.f(x.right, i)
        return None if down is None else TensorElement(x.left, down)

    def e(x, i):
        if left.epsilon(x.left, i) > right.phi(x.right, i):
            up = left.e(x.left, i)
            return None if up is None else TensorElement(up, x.right)
        up = right.e(x.right, i)
        return None if up is None else TensorElement(x.left, up)

    def epsilon(x, i):
        a = right.epsilon(x.right, i)
        b = left.epsilon(x.left, i) - pairing(right.weight(x.right), rs.simple_root(i))
        return max(a, b)

    def phi(x, i):
        a = left.phi(x.left, i)
        b = right.phi(x.right, i) + pairing(left.weight(x.left), rs.simple_root(i))
        return max(a, b)

    def weight(x):
        return tuple(
            a + b for a, b in zip(left.weight(x.left), right.weight(x.right))
        )

    return CrystalOps(
        rs=rs,
        f=f,
        e=e,
        epsilon=epsilon,
        phi=phi,
        weight=weight,
        key=lambda x: (left.key(x.left), right.key(x.right)),
        render=lambda x: f"{left.render(x.left)} ⊗ {right.render(x.right)}",
        finite=left.finite and right.finite,
    )


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class NodeData:
    weight: tuple
    eps: tuple
    phi: tuple
    label: str


@dataclass
class CrystalGraph:
    """An enumerated crystal: ``nodes`` maps each key to its statistics and
    ``elements`` maps it to the model element it was read from."""

    rs: RootSystem
    nodes: dict = field(default_factory=dict)
    elements: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    generators: list = field(default_factory=list)
    boundary: frozenset = frozenset()

    @property
    def index_set(self):
        return self.rs.index_set

    @property
    def complete(self) -> bool:
        """Whether the enumeration suppressed no neighbor of any node."""
        return not self.boundary


def enumerate_crystal(ops: CrystalOps, generators, depth: int | None = None) -> CrystalGraph:
    """Breadth-first closure of the generators under raising and lowering.

    ``depth`` bounds the walk distance from the generators; it is required
    when the ops describe an infinite crystal.  Edges always point along the
    lowering operator and connect only enumerated nodes.
    """
    if depth is None and not ops.finite:
        raise ValueError("an infinite crystal can only be enumerated to a finite depth")
    index_set = ops.rs.index_set
    nodes: dict = {}
    elements: dict = {}
    edge_set = set()
    edges = []
    boundary = set()
    queue = deque()

    def admit(x, d):
        k = ops.key(x)
        if k not in nodes:
            nodes[k] = NodeData(
                weight=tuple(ops.weight(x)),
                eps=tuple(ops.epsilon(x, i) for i in index_set),
                phi=tuple(ops.phi(x, i) for i in index_set),
                label=ops.render(x),
            )
            elements[k] = x
            queue.append((x, k, d))
        return k

    gen_keys = [admit(g, 0) for g in generators]

    while queue:
        x, kx, d = queue.popleft()
        for i in index_set:
            for other, forward in ((ops.f(x, i), True), (ops.e(x, i), False)):
                if other is None:
                    continue
                ko = ops.key(other)
                if ko not in nodes:
                    if depth is not None and d >= depth:
                        boundary.add(kx)
                        continue
                    admit(other, d + 1)
                edge = (kx, i, ko) if forward else (ko, i, kx)
                if edge not in edge_set:
                    edge_set.add(edge)
                    edges.append(edge)

    order = {k: n for n, k in enumerate(nodes)}
    edges.sort(key=lambda t: (order[t[0]], t[1], order[t[2]]))
    return CrystalGraph(
        rs=ops.rs,
        nodes=nodes,
        elements=elements,
        edges=edges,
        generators=gen_keys,
        boundary=frozenset(boundary),
    )


def highest_weight_keys(graph: CrystalGraph) -> list:
    """Keys of the nodes with every raising statistic equal to zero."""
    return [k for k, data in graph.nodes.items() if all(v == 0 for v in data.eps)]


# ---------------------------------------------------------------------------
# structural checks


@dataclass(frozen=True)
class Check:
    """One identity checked on one crystal or pool: how many nodes, pairs or
    elements it covered, and what failed.  Each failure is a string that
    starts with the label of the element, or the crystal, it is about."""

    name: str
    checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def check_axioms(graph: CrystalGraph, seminormal: bool = False) -> Check:
    """Audit the defining identities of a crystal on an enumerated graph;
    ``checked`` counts the nodes.

    Per node: phi - eps equals the weight paired with the coroot, and a node
    with both statistics at minus infinity carries no edge.  Per edge: the
    weight drops by the root, the statistics step by one, and operators are
    mutually inverse (encoded by edge uniqueness in both directions).

    With ``seminormal=True`` the statistics must also predict edge existence
    (positive phi means a lowering edge, positive eps a raising edge) away
    from the boundary of a truncated enumeration.  That coupling holds for
    the finite highest weight crystals but not for the unbounded models,
    where phi routinely reaches zero and below while lowering still acts.
    """
    failures = []
    rs = graph.rs
    index_set = rs.index_set
    out_edge = {}
    in_edge = {}
    for src, i, dst in graph.edges:
        if (src, i) in out_edge:
            failures.append(f"{graph.nodes[src].label}: two lowering edges in direction {i}")
        if (dst, i) in in_edge:
            failures.append(f"{graph.nodes[dst].label}: two raising edges in direction {i}")
        out_edge[(src, i)] = dst
        in_edge[(dst, i)] = src

    for k, data in graph.nodes.items():
        for pos, i in enumerate(index_set):
            gap = pairing(data.weight, rs.simple_root(i))
            if data.phi[pos] != data.eps[pos] + gap:
                failures.append(f"{data.label}: phi - eps != <wt, coroot> in direction {i}")
            if data.phi[pos] == MINUS_INF:
                if (k, i) in out_edge or (k, i) in in_edge:
                    failures.append(f"{data.label}: edges on a minus-infinity string {i}")
                continue
            if not seminormal or k in graph.boundary:
                continue
            if (data.phi[pos] > 0) != ((k, i) in out_edge):
                failures.append(f"{data.label}: phi and lowering disagree in direction {i}")
            if (data.eps[pos] > 0) != ((k, i) in in_edge):
                failures.append(f"{data.label}: eps and raising disagree in direction {i}")

    for src, i, dst in graph.edges:
        pos = index_set.index(i)
        a = graph.nodes[src]
        b = graph.nodes[dst]
        alpha = rs.root_in_weight_coords(rs.simple_root(i))
        if b.weight != tuple(w - c for w, c in zip(a.weight, alpha)):
            failures.append(f"{a.label}: weight step wrong on the edge -{i}-> {b.label}")
        if b.eps[pos] != a.eps[pos] + 1 or b.phi[pos] != a.phi[pos] - 1:
            failures.append(f"{a.label}: statistic step wrong on the edge -{i}-> {b.label}")
    return Check("axioms", len(graph.nodes), failures)


def check_stembridge(graph: CrystalGraph) -> Check:
    """Local characterization checks for simply laced types; ``checked``
    counts the pairs of raising edges compared.

    Walking up along ``i``, the change of the ``j`` statistics must be (0, -1)
    or (+1, 0) for neighbors and (0, 0) for orthogonal pairs; two zero changes
    force a commuting square, two +1 changes force the degree-two braid.
    Nodes with truncated surroundings are skipped rather than failed.
    """
    rs = graph.rs
    if not rs.cartan.simply_laced:
        raise ValueError("the local checks apply to simply laced types only")
    A = rs.cartan.matrix
    n = rs.rank
    pairs = 0
    failures = []
    e_map = {}
    for src, i, dst in graph.edges:
        e_map[(dst, i)] = src

    def chase(start, word):
        cur = start
        for i in word:
            cur = e_map.get((cur, i))
            if cur is None:
                return None
        return cur

    def meet(k, first, second, off_graph, differ) -> None:
        """Raising along two words from ``k`` must end at one node; a walk
        off the graph fails a complete graph and is skipped otherwise."""
        a_end = chase(k, first)
        b_end = chase(k, second)
        label = graph.nodes[k].label
        if a_end is None or b_end is None:
            if graph.complete:
                failures.append(f"{label}: {off_graph}")
        elif a_end != b_end:
            failures.append(f"{label}: {differ}")

    index_set = rs.index_set
    for k in graph.nodes:
        for ai in range(n):
            for aj in range(ai + 1, n):
                i, j = index_set[ai], index_set[aj]
                yi = e_map.get((k, i))
                yj = e_map.get((k, j))
                if yi is None or yj is None:
                    continue
                pairs += 1
                node = graph.nodes[k]
                d_eps_j = graph.nodes[yi].eps[aj] - node.eps[aj]
                d_phi_j = graph.nodes[yi].phi[aj] - node.phi[aj]
                d_eps_i = graph.nodes[yj].eps[ai] - node.eps[ai]
                d_phi_i = graph.nodes[yj].phi[ai] - node.phi[ai]
                if A[ai][aj] == 0:
                    if (d_eps_j, d_phi_j) != (0, 0) or (d_eps_i, d_phi_i) != (0, 0):
                        failures.append(f"{node.label}: orthogonal directions {i},{j} interact")
                        continue
                    square = True
                else:
                    for diff in ((d_eps_j, d_phi_j), (d_eps_i, d_phi_i)):
                        if diff not in ((0, -1), (1, 0)):
                            failures.append(f"{node.label}: statistic change {diff} along {i},{j}")
                    square = d_eps_j == 0 and d_eps_i == 0
                    if d_eps_j == 1 and d_eps_i == 1:
                        meet(
                            k,
                            [i, j, j, i],
                            [j, i, i, j],
                            "braid walk falls off the graph",
                            f"braid relation fails along {i},{j}",
                        )
                if square:
                    meet(
                        k,
                        [i, j],
                        [j, i],
                        "commuting square walks off the graph",
                        f"raises along {i},{j} do not commute",
                    )
    return Check("stembridge", pairs, failures)


# ---------------------------------------------------------------------------
# comparisons and transforms


def _canonical_signature(graph: CrystalGraph, weights: bool) -> tuple:
    tops = highest_weight_keys(graph)
    if len(tops) != 1:
        raise ValueError(f"need a unique highest weight node, found {len(tops)}")
    out_edge = {(src, i): dst for src, i, dst in graph.edges}
    order = {tops[0]: 0}
    queue = deque([tops[0]])
    lines = []
    while queue:
        k = queue.popleft()
        children = []
        for i in graph.index_set:
            child = out_edge.get((k, i))
            if child is None:
                children.append(None)
                continue
            if child not in order:
                order[child] = len(order)
                queue.append(child)
            children.append(order[child])
        if weights:
            data = graph.nodes[k]
            lines.append((data.weight, data.eps, data.phi, tuple(children)))
        else:
            lines.append(tuple(children))
    return (len(graph.nodes), tuple(lines))


def is_isomorphic(a: CrystalGraph, b: CrystalGraph, weights: bool = True) -> bool:
    """Whether two enumerated crystals agree up to relabeling.

    Both must have a unique highest weight node (ValueError otherwise); the
    comparison walks both graphs in the canonical order and, with ``weights``
    set, also matches node weights and statistics.
    """
    return _canonical_signature(a, weights) == _canonical_signature(b, weights)


def dualize_graph(graph: CrystalGraph) -> CrystalGraph:
    """The contragredient graph: arrows reversed, statistics swapped, weights
    negated.  Labels carry over from the original nodes."""
    nodes = {
        k: NodeData(
            weight=tuple(-c for c in data.weight),
            eps=data.phi,
            phi=data.eps,
            label=data.label,
        )
        for k, data in graph.nodes.items()
    }
    order = {k: n for n, k in enumerate(nodes)}
    edges = sorted(
        ((dst, i, src) for src, i, dst in graph.edges),
        key=lambda t: (order[t[0]], t[1], order[t[2]]),
    )
    return CrystalGraph(
        rs=graph.rs,
        nodes=nodes,
        elements=graph.elements,
        edges=edges,
        generators=list(graph.generators),
        boundary=graph.boundary,
    )


def weyl_dimension(rs: RootSystem, lam) -> int:
    """Product formula for the dimension of the highest weight module."""
    lam = tuple(lam)
    rho = rs.rho
    total = Fraction(1)
    for beta in rs.positive_roots:
        up = pairing(tuple(a + b for a, b in zip(lam, rho)), beta)
        down = pairing(rho, beta)
        total *= Fraction(up, down)
    assert total.denominator == 1
    return int(total)


# ---------------------------------------------------------------------------
# export


def _stat(value):
    return "-inf" if value == MINUS_INF else value


def graph_to_json(graph: CrystalGraph) -> dict:
    """JSON document for the graph: nodes, edges, and truncation status."""
    order = {k: n for n, k in enumerate(graph.nodes)}
    return {
        "nodes": [
            {
                "id": f"n{n}",
                "label": data.label,
                "wt": list(data.weight),
                "eps": [_stat(v) for v in data.eps],
                "phi": [_stat(v) for v in data.phi],
            }
            for n, data in enumerate(graph.nodes.values())
        ],
        "edges": [
            {"src": f"n{order[src]}", "i": i, "dst": f"n{order[dst]}"}
            for src, i, dst in graph.edges
        ],
        "complete": graph.complete,
        "boundary": sorted(f"n{order[k]}" for k in graph.boundary),
    }


def graph_to_dot(graph: CrystalGraph) -> str:
    order = {k: n for n, k in enumerate(graph.nodes)}
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for n, data in enumerate(graph.nodes.values()):
        label = data.label.replace('"', '\\"')
        lines.append(f'  n{n} [label="{label}"];')
    for src, i, dst in graph.edges:
        lines.append(f'  n{order[src]} -> n{order[dst]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
