"""Enumerate crystals into explicit graphs and audit their structure.

Everything here works through a :class:`CrystalOps` bundle, so the alcove
model, the path model and any bundle derived from them with
``dataclasses.replace`` feed the same machinery.  Each element is its own
key: a graph's ``nodes`` map the elements to their statistics and its
edges join elements, so an alcove element (its chain and positions) and a
path (its canonical integer form) are never re-encoded.  Enumeration is a
deterministic breadth-first walk along both raising and lowering operators
that computes each edge once and reads each node's statistics in every
direction with one ``strings`` call; inside the walk nodes are numbered in
the order they are found, so the bookkeeping of which edges are known and
the final sort of the edges work on small integers rather than hashing
elements.  The resulting graph keeps per-node statistics, so the checks
call no operator except the one applied to each edge's other end;
``check_dual_iso`` compares two graphs through a transport.

Graphs truncated at a depth remember which nodes had neighbors suppressed
(``boundary``); structural checks skip existence assertions exactly there.
Every checker, here and in ``verify``, reads a graph through
``CrystalGraph.links``, built once per graph: it numbers the nodes in the
order of ``nodes``, hashing each element once, and keeps each edge in a
list slot of its source and of its target, so the checkers follow edges and
read statistics by node id and hash no element.  Each checker returns a
:class:`Check`: a name, how much it covered, and failures as strings that
start with the failing element's ``repr``.  Elements print themselves, so
text is made only where a failure or an export line needs it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

from . import alcove as _alcove
from . import littelmann as _paths
from .chains import _dominant, _integer
from .rootsys import RootSystem, _kept, pairing

__all__ = [
    "Check",
    "CrystalGraph",
    "CrystalOps",
    "Links",
    "NodeData",
    "alcove_ops",
    "check_axioms",
    "check_dual_iso",
    "check_stembridge",
    "dualize_graph",
    "enumerate_crystal",
    "graph_to_dot",
    "graph_to_json",
    "highest_weight_keys",
    "infinity_size",
    "is_isomorphic",
    "path_ops",
    "weyl_dimension",
]


@dataclass(frozen=True)
class CrystalOps:
    """Operator bundle: everything the graph machinery needs about a model.

    ``strings(x)`` gives (epsilon, phi) of ``x`` in every direction at once,
    two tuples in ``index_set`` order; ``weight`` stays apart, as
    ``check_dual_iso`` reads it on images.  A bundle derived with
    ``dataclasses.replace`` that changes the statistics replaces
    ``strings``; there is no per-direction field to fall back on.  ``kind``
    names the elements the ops take: alcove elements over a finite
    ``"chain"`` or a ``"window"``, or paths of that kind
    (``littelmann.KINDS``)."""

    rs: RootSystem
    f: Callable[[Any, int], Any]
    e: Callable[[Any, int], Any]
    strings: Callable[[Any], tuple[tuple, tuple]]
    weight: Callable[[Any], tuple]
    kind: str


def alcove_ops(chain) -> CrystalOps:
    """Ops for the alcove model over the given chain or window."""
    return CrystalOps(
        rs=chain.rs,
        f=_alcove.f_op,
        e=_alcove.e_op,
        strings=_alcove.strings,
        weight=_alcove.weight,
        kind="window" if chain.is_window else "chain",
    )


def path_ops(rs: RootSystem, kind: str = "finite") -> CrystalOps:
    """Ops for the piecewise linear path model of the given kind."""
    if kind not in _paths.KINDS:
        raise ValueError(f"unknown path kind {kind!r}")
    return CrystalOps(
        rs=rs,
        f=_paths.f_op,
        e=_paths.e_op,
        strings=_paths.strings,
        weight=_paths.weight,
        kind=kind,
    )


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class NodeData:
    weight: tuple
    eps: tuple
    phi: tuple


class Links(NamedTuple):
    """A graph's edges by node id: ``CrystalGraph.links``.

    ``order`` numbers the nodes in the order of ``nodes``.  Node ``n``'s
    edge out and edge in along direction ``i`` sit in slot
    ``n * rank + (i - 1)`` of ``below`` and ``above``, which hold the id of
    the edge's other end, or None where the node has no such edge."""
    order: dict  # element -> node id
    below: list  # slot -> the id of the target of the node's i-edge
    above: list  # slot -> the id of the source of the node's i-edge
    failures: tuple


@dataclass
class CrystalGraph:
    """An enumerated crystal: ``nodes`` maps each element of the model, its
    own key, to its statistics.

    An enumerated graph also keeps the ``ops`` it was read with and the
    edges it found by raising (``raised``); every other edge was found by
    lowering.  ``check_axioms`` uses both to check each edge in the
    direction enumeration did not compute.  A graph built by hand has no
    ops."""

    rs: RootSystem
    nodes: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    generators: list = field(default_factory=list)
    boundary: frozenset = frozenset()
    ops: CrystalOps | None = field(default=None, compare=False, repr=False)
    raised: frozenset = frozenset()

    @property
    def complete(self) -> bool:
        """Whether the enumeration suppressed no neighbor of any node."""
        return not self.boundary

    @_kept
    def inverse_failures(self) -> tuple[str, ...]:
        """Every edge of ``links`` checked against the operator enumeration
        did not apply to it (see ``check_axioms``); a graph built by hand has
        no ops to check.  Computed once per graph and kept, so
        ``check_axioms``, ``check_dual_iso`` and the profile suite share one
        pass; a graph with other edges or ops (``dataclasses.replace``)
        computes its own.  An edge that is a ``links`` failure is left to
        it."""
        ops = self.ops
        if ops is None:
            return ()
        order, below, _, _ = self.links
        keys, rank = list(self.nodes), self.rs.rank
        raised = {(order.get(src), i, order.get(dst)) for src, i, dst in self.raised}
        failures = []
        for n, pos, m in _edge_ids(below, rank):
            src, i, dst = keys[n], pos + 1, keys[m]
            if (n, i, m) in raised:
                at, want, back = src, dst, ops.f(src, i)
            else:
                at, want, back = dst, src, ops.e(dst, i)
            if back != want:
                failures.append(f"{at!r}: operators not inverse in direction {i}")
        return tuple(failures)

    @_kept
    def links(self) -> Links:
        """The nodes numbered and the edges between them in id slots, once
        per graph as ``inverse_failures``; each node and each edge end is
        hashed once.  ``failures`` names each edge that leaves the nodes or
        has no direction of the index set (a boolean is none), kept out of
        both lists, and each direction repeated at a node, where the lists
        keep the last edge."""
        order = dict(zip(self.nodes, range(len(self.nodes))))
        rank = self.rs.rank
        below = [None] * (len(order) * rank)
        above = below.copy()
        failures = []
        for src, i, dst in self.edges:
            s, t = order.get(src), order.get(dst)
            if s is None or t is None:
                failures.append(_leaves(src, i, dst))
                continue
            if type(i) is not int or not 0 < i <= rank:
                failures.append(f"{src!r}: the edge -{i}-> {dst!r} has no direction of the index set")
                continue
            out, into = s * rank + i - 1, t * rank + i - 1
            if below[out] is not None:
                failures.append(f"{src!r}: two lowering edges in direction {i}")
            if above[into] is not None:
                failures.append(f"{dst!r}: two raising edges in direction {i}")
            below[out], above[into] = t, s
        return Links(order, below, above, tuple(failures))


def _leaves(src, i, dst) -> str:
    return f"{src!r}: the edge -{i}-> {dst!r} leaves the nodes"


def _edge_ends(graph: CrystalGraph) -> list[tuple]:
    """(source id, i, target id) for each edge, in the order of ``edges``,
    by ``links.order``; ValueError naming the first edge that leaves the
    nodes, with the failure ``links`` records for it."""
    order = graph.links.order
    ends = []
    for src, i, dst in graph.edges:
        s, t = order.get(src), order.get(dst)
        if s is None or t is None:
            raise ValueError(_leaves(src, i, dst))
        ends.append((s, i, t))
    return ends


def _edge_ids(below: list, rank: int):
    """(source id, position of i, target id) for each edge held in the
    ``below`` slots of ``links``, in slot order."""
    for slot, m in enumerate(below):
        if m is not None:
            n, pos = divmod(slot, rank)
            yield n, pos, m


def _generator(ops: CrystalOps, x):
    """``x`` as a node of the crystal of ``ops``: an alcove element on its
    canonical window, so that it equals the operators' results, and a path
    as it is; ValueError for an element of another kind."""
    if isinstance(x, _alcove.AlcoveElement):
        kind, x = "window" if x.is_window else "chain", _alcove._canonical(x)
    else:
        kind = x.kind
    if kind != ops.kind:
        raise ValueError(f"{x!r} is a {kind} element, not a {ops.kind} one")
    return x


def enumerate_crystal(ops: CrystalOps, generators, depth: int | None = None) -> CrystalGraph:
    """Breadth-first closure of the generators under raising and lowering.

    Each element is its own key in the graph; each generator is first made
    a node of the crystal of ``ops`` (``_generator``).  ``depth``, a
    non-negative integer, bounds the walk distance from the generators; it
    is required when the ops describe an infinite crystal.  Edges always
    point along the lowering operator and connect only enumerated nodes.

    Each edge is computed once, from the end that reaches it first: f_i is
    skipped at a node whose i-edge out is known, e_i at a node whose i-edge
    in is known.  Raising still runs wherever no edge in is known, which is
    how nodes above the generators are reached.  Whether the operators are
    mutually inverse is not read off the graph; ``check_axioms`` computes
    the other direction of every edge.

    Each node is numbered as it is admitted, and its statistics are read
    then: ``ops.weight`` and one ``ops.strings``.  The known edges out and
    in are one bitmask per node, and each edge is recorded as (source id,
    direction, target id, found by raising) and sorted as such, so nodes
    keep the order they were found in and edges come sorted by source,
    direction and target in that order.  A generator listed twice is one
    node and stays twice in ``generators``.
    """
    if depth is None:
        if ops.kind not in ("chain", "finite"):
            raise ValueError("an infinite crystal can only be enumerated to a finite depth")
    elif _integer(depth, "depth") < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    f, e, strings, weight = ops.f, ops.e, ops.strings, ops.weight
    directions = [(i, 1 << i) for i in ops.rs.index_set]
    ids: dict = {}  # element -> node id, numbered in insertion order
    elements = []  # node id -> element
    stats = []  # node id -> NodeData
    has_out = []  # node id -> bitmask of the directions with an edge out known
    has_in = []  # node id -> bitmask of the directions with an edge in known
    edges = []  # (source id, direction, target id, found by raising)
    boundary = set()
    queue = deque()

    def admit(x, d) -> int:
        n = ids[x] = len(elements)
        elements.append(x)
        wt = tuple(weight(x))
        eps, phi = strings(x)
        stats.append(NodeData(weight=wt, eps=tuple(eps), phi=tuple(phi)))
        has_out.append(0)
        has_in.append(0)
        queue.append((n, d))
        return n

    def reach(other, n, d) -> int | None:
        """The id of the neighbor ``other`` of the node ``n`` at depth ``d``,
        admitted if new, or None if the depth bound keeps it out."""
        m = ids.get(other)
        if m is None:
            if depth is not None and d >= depth:
                boundary.add(n)
                return None
            m = admit(other, d + 1)
        return m

    gens = []
    for g in generators:
        x = _generator(ops, g)
        if x not in ids:
            admit(x, 0)
        gens.append(x)

    while queue:
        n, d = queue.popleft()
        x = elements[n]
        for i, bit in directions:
            if not has_out[n] & bit:
                below = f(x, i)
                m = None if below is None else reach(below, n, d)
                if m is not None:
                    edges.append((n, i, m, False))
                    has_out[n] |= bit
                    has_in[m] |= bit
            if not has_in[n] & bit:
                above = e(x, i)
                m = None if above is None else reach(above, n, d)
                if m is not None:
                    edges.append((m, i, n, True))
                    has_out[m] |= bit
                    has_in[n] |= bit

    edges.sort()
    return CrystalGraph(
        rs=ops.rs,
        nodes=dict(zip(elements, stats)),
        edges=[(elements[s], i, elements[t]) for s, i, t, _ in edges],
        generators=gens,
        boundary=frozenset(elements[n] for n in boundary),
        ops=ops,
        raised=frozenset((elements[s], i, elements[t]) for s, i, t, up in edges if up),
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
    starts with the ``repr`` of the element, or the name of the crystal, it
    is about."""

    name: str
    checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def check_axioms(graph: CrystalGraph, seminormal: bool = False) -> Check:
    """Audit the defining identities of a crystal on an enumerated graph;
    ``checked`` counts the nodes.

    Per node: phi - eps equals the weight paired with the coroot.  Per edge:
    the weight drops by the root, the statistics step by one, and the edge
    is no ``links`` failure: it stays in the nodes, has a direction of the
    index set and repeats none.  Edges and statistics are read by node id,
    from ``links.below`` and the statistics in the order of ``nodes``.

    On a graph that carries its ops, each edge is also checked against the
    operator enumeration did not apply to it: an edge found by f_i needs
    e_i(dst) = src, an edge found by e_i (``graph.raised``) needs
    f_i(src) = dst.  So f_i and e_i are checked mutually inverse on every
    edge, which catches f_i(x) = y with e_i(y) undefined; edge uniqueness
    alone does not.  A graph built by hand gets only the uniqueness checks.

    With ``seminormal=True`` the statistics must also predict edge existence
    (positive phi means a lowering edge, positive eps a raising edge) away
    from the boundary of a truncated enumeration.  That coupling holds for
    the finite highest weight crystals but not for the unbounded models,
    where phi routinely reaches zero and below while lowering still acts.
    """
    rs = graph.rs
    index_set, rank = rs.index_set, rs.rank
    order, below, above, link_failures = graph.links
    keys, stats = list(graph.nodes), list(graph.nodes.values())
    failures = list(graph.inverse_failures)
    cut = {order.get(k) for k in graph.boundary} if seminormal else ()

    for n, data in enumerate(stats):
        for pos, i in enumerate(index_set):
            # <wt, alpha_i^vee> is the weight's i-th fundamental-weight coordinate
            if data.phi[pos] != data.eps[pos] + data.weight[pos]:
                failures.append(f"{keys[n]!r}: phi - eps != <wt, coroot> in direction {i}")
            if not seminormal or n in cut:
                continue
            slot = n * rank + pos
            if (data.phi[pos] > 0) != (below[slot] is not None):
                failures.append(f"{keys[n]!r}: phi and lowering disagree in direction {i}")
            if (data.eps[pos] > 0) != (above[slot] is not None):
                failures.append(f"{keys[n]!r}: eps and raising disagree in direction {i}")

    failures += link_failures
    alphas = [rs.root_weights[rs.simple_index(i)] for i in index_set]
    for n, pos, m in _edge_ids(below, rank):
        a, b, i = stats[n], stats[m], index_set[pos]
        if b.weight != tuple(w - c for w, c in zip(a.weight, alphas[pos])):
            failures.append(f"{keys[n]!r}: weight step wrong on the edge -{i}-> {keys[m]!r}")
        if b.eps[pos] != a.eps[pos] + 1 or b.phi[pos] != a.phi[pos] - 1:
            failures.append(f"{keys[n]!r}: statistic step wrong on the edge -{i}-> {keys[m]!r}")
    return Check("axioms", len(stats), failures)


def _not_carried(below: list, ids: list, other: list, rank: int):
    """(n, position of i) for each edge n -i-> m of ``below`` that ``ids``
    does not carry to an edge ids[m] -i-> ids[n] of ``other``."""
    for n, pos, m in _edge_ids(below, rank):
        start, end = ids[m], ids[n]
        if start is None or end is None or other[start * rank + pos] != end:
            yield n, pos


def check_dual_iso(source: CrystalGraph, mapping: Callable, target: CrystalGraph) -> Check:
    """Check that ``mapping`` is a dual isomorphism from the enumerated graph
    ``source`` onto the enumerated graph ``target``; ``checked`` counts the
    source nodes, each mapped once.

    Each image must be a target node with the negated weight and eps and phi
    swapped, as the target stores them; the images must be the target's nodes,
    one each, and the reversed source edges its edges; the ``links``
    failures of both graphs fail as in ``check_axioms``.  Each image is
    looked up once in the target's ``links.order``; from there the images,
    the preimages and both graphs' edges are compared by node id.  Both
    graphs also get ``check_axioms``' inverse check, so an operator wrong
    only in the direction enumeration skipped fails here too.  ValueError if
    the graphs live over different root systems.
    """
    if source.rs != target.rs:
        raise ValueError("source and target live over different root systems")
    failures = []
    rank, index_set = source.rs.rank, source.rs.index_set
    links, target_links = source.links, target.links
    keys, targets = list(source.nodes), list(target.nodes)
    target_stats = list(target.nodes.values())
    image = []  # source id -> the target id of its image, or None
    preimage = [None] * len(targets)  # target id -> the first source id mapped onto it
    for n, (x, data) in enumerate(source.nodes.items()):
        t = target_links.order.get(mapping(x))
        image.append(t)
        if t is None:
            failures.append(f"{x!r}: image is not a target node")
            continue
        found = target_stats[t]
        if found.weight != tuple(-c for c in data.weight):
            failures.append(f"{x!r}: weight negation")
        if preimage[t] is None:
            preimage[t] = n
        else:
            failures.append(f"{x!r}: same image as {keys[preimage[t]]!r}")
        if (found.eps, found.phi) != (data.phi, data.eps):
            failures.append(f"{x!r}: eps/phi swap")
    failures += [f"{y!r}: target node is not an image" for y, n in zip(targets, preimage) if n is None]
    failures += links.failures + target_links.failures
    failures += [
        f"{keys[n]!r}: lowering transport at {index_set[pos]}"
        for n, pos in _not_carried(links.below, image, target_links.below, rank)
    ]
    failures += [
        f"{targets[t]!r}: target edge along {index_set[pos]} is not a reversed source edge"
        for t, pos in _not_carried(target_links.below, preimage, links.below, rank)
    ]
    failures += source.inverse_failures + target.inverse_failures
    return Check("dual-iso", len(keys), failures)


def check_stembridge(graph: CrystalGraph) -> Check:
    """Local characterization checks for simply laced types; ``checked``
    counts the pairs of raising edges compared.

    Walking up along ``i``, the change of the ``j`` statistics must be (0, -1)
    or (+1, 0) for neighbors and (0, 0) for orthogonal pairs; two zero changes
    force a commuting square, two +1 changes force the degree-two braid.
    Nodes with truncated surroundings are skipped rather than failed; the
    graph's ``links`` failures fail as in ``check_axioms``.  The walks chase
    node ids through ``links.above``.
    """
    rs = graph.rs
    if not rs.cartan.simply_laced:
        raise ValueError("the local checks apply to simply laced types only")
    A = rs.cartan.matrix
    index_set, rank = rs.index_set, rs.rank
    pairs = 0
    above, failures = graph.links.above, list(graph.links.failures)
    keys, stats = list(graph.nodes), list(graph.nodes.values())

    def chase(start, word):
        cur = start
        for pos in word:
            cur = above[cur * rank + pos]
            if cur is None:
                return None
        return cur

    def meet(n, first, second, off_graph, differ) -> None:
        """Raising along two words of directions' positions from node ``n``
        must end at one node; a walk off the graph fails a complete graph
        and is skipped otherwise."""
        a_end = chase(n, first)
        b_end = chase(n, second)
        if a_end is None or b_end is None:
            if graph.complete:
                failures.append(f"{keys[n]!r}: {off_graph}")
        elif a_end != b_end:
            failures.append(f"{keys[n]!r}: {differ}")

    for n, node in enumerate(stats):
        up = above[n * rank : (n + 1) * rank]
        for ai in range(rank):
            for aj in range(ai + 1, rank):
                i, j = index_set[ai], index_set[aj]
                yi, yj = up[ai], up[aj]
                if yi is None or yj is None:
                    continue
                pairs += 1
                d_eps_j = stats[yi].eps[aj] - node.eps[aj]
                d_phi_j = stats[yi].phi[aj] - node.phi[aj]
                d_eps_i = stats[yj].eps[ai] - node.eps[ai]
                d_phi_i = stats[yj].phi[ai] - node.phi[ai]
                if A[ai][aj] == 0:
                    if (d_eps_j, d_phi_j) != (0, 0) or (d_eps_i, d_phi_i) != (0, 0):
                        failures.append(f"{keys[n]!r}: orthogonal directions {i},{j} interact")
                        continue
                    square = True
                else:
                    for diff in ((d_eps_j, d_phi_j), (d_eps_i, d_phi_i)):
                        if diff not in ((0, -1), (1, 0)):
                            failures.append(f"{keys[n]!r}: statistic change {diff} along {i},{j}")
                    square = d_eps_j == 0 and d_eps_i == 0
                    if d_eps_j == 1 and d_eps_i == 1:
                        meet(
                            n,
                            [ai, aj, aj, ai],
                            [aj, ai, ai, aj],
                            "braid walk falls off the graph",
                            f"braid relation fails along {i},{j}",
                        )
                if square:
                    meet(
                        n,
                        [ai, aj],
                        [aj, ai],
                        "commuting square walks off the graph",
                        f"raises along {i},{j} do not commute",
                    )
    return Check("stembridge", pairs, failures)


# ---------------------------------------------------------------------------
# comparisons and transforms


def _canonical_signature(graph: CrystalGraph) -> tuple:
    _, below, _, failures = graph.links
    if failures:
        raise ValueError(failures[0])
    stats = list(graph.nodes.values())
    tops = [n for n, data in enumerate(stats) if all(v == 0 for v in data.eps)]
    if len(tops) != 1:
        raise ValueError(f"need a unique highest weight node, found {len(tops)}")
    rank = graph.rs.rank
    seen = [None] * len(stats)  # node id -> its place in the walk
    seen[tops[0]] = 0
    walk = [tops[0]]
    lines = []
    for n in walk:
        children = []
        for child in below[n * rank : (n + 1) * rank]:
            if child is not None and seen[child] is None:
                seen[child] = len(walk)
                walk.append(child)
            children.append(None if child is None else seen[child])
        data = stats[n]
        lines.append((data.weight, data.eps, data.phi, tuple(children)))
    return (len(stats), tuple(lines))


def is_isomorphic(a: CrystalGraph, b: CrystalGraph) -> bool:
    """Whether two enumerated crystals agree up to relabeling.

    Both must have a unique highest weight node and no ``links`` failure
    (ValueError naming the first otherwise); both are walked by node id
    through ``links.below`` in the canonical order, matching node weights
    and statistics too.
    """
    return _canonical_signature(a) == _canonical_signature(b)


def _dual_ops(ops: CrystalOps) -> CrystalOps:
    """The contragredient operators: lowering and raising swapped, the two
    statistics swapped, weights negated."""
    return replace(
        ops,
        f=ops.e,
        e=ops.f,
        strings=lambda x: ops.strings(x)[::-1],
        weight=lambda x: tuple(-c for c in ops.weight(x)),
    )


def dualize_graph(graph: CrystalGraph) -> CrystalGraph:
    """The contragredient graph: arrows reversed, statistics swapped, weights
    negated.  The nodes are the original elements, in their order, and the
    reversed edges are sorted by node id (``_edge_ends``, so ValueError on
    an edge that leaves the nodes).  Ops carry over swapped the same way,
    and an edge found by lowering becomes one found by raising, so
    ``check_axioms`` still checks each edge's other direction."""
    nodes = {
        k: NodeData(weight=tuple(-c for c in data.weight), eps=data.phi, phi=data.eps)
        for k, data in graph.nodes.items()
    }
    keys = list(graph.nodes)
    reversed_ids = sorted((t, i, s) for s, i, t in _edge_ends(graph))
    return CrystalGraph(
        rs=graph.rs,
        nodes=nodes,
        edges=[(keys[t], i, keys[s]) for t, i, s in reversed_ids],
        generators=list(graph.generators),
        boundary=graph.boundary,
        ops=None if graph.ops is None else _dual_ops(graph.ops),
        raised=frozenset(
            (dst, i, src) for src, i, dst in graph.edges if (src, i, dst) not in graph.raised
        ),
    )


def weyl_dimension(rs: RootSystem, lam) -> int:
    """Product formula for the dimension of the highest weight module;
    ValueError unless ``lam`` is dominant integral."""
    rho = rs.rho
    shifted = tuple(a + b for a, b in zip(_dominant(rs, lam), rho))
    up = down = 1
    for beta in rs.positive_roots:
        up *= pairing(shifted, beta)
        down *= pairing(rho, beta)
    assert up % down == 0
    return up // down


def infinity_size(rs: RootSystem, depth: int) -> int:
    """How many nodes B(infinity) has within ``depth`` of its highest weight
    node, which is how many its truncations at ``depth`` hold: a node of
    weight -beta lies at the height of beta, and Kostant's partition function
    counts the nodes of each weight, so this sums the coefficients of x^n,
    n <= depth, in prod_{beta > 0} 1 / (1 - x^{ht beta}).  ``depth`` is a
    non-negative integer, as for ``enumerate_crystal``."""
    if _integer(depth, "depth") < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    series = [1] + [0] * depth
    for beta in rs.positive_roots:
        height = sum(beta.coeffs)
        for n in range(height, depth + 1):
            series[n] += series[n - height]
    return sum(series)


# ---------------------------------------------------------------------------
# export


def graph_to_json(graph: CrystalGraph) -> dict:
    """JSON document for the graph: nodes labeled by their ``repr``, edges,
    and truncation status; ValueError on an edge that leaves the nodes
    (``_edge_ends``)."""
    return {
        "nodes": [
            {
                "id": f"n{n}",
                "label": repr(el),
                "wt": list(data.weight),
                "eps": list(data.eps),
                "phi": list(data.phi),
            }
            for n, (el, data) in enumerate(graph.nodes.items())
        ],
        "edges": [{"src": f"n{s}", "i": i, "dst": f"n{t}"} for s, i, t in _edge_ends(graph)],
        "complete": graph.complete,
        "boundary": sorted(f"n{graph.links.order[k]}" for k in graph.boundary),
    }


def graph_to_dot(graph: CrystalGraph) -> str:
    """DOT for the graph, rendered from its ``graph_to_json`` document: the
    same node ids and labels, each edge labeled by its direction."""
    doc = graph_to_json(graph)
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for node in doc["nodes"]:
        label = node["label"].replace('"', '\\"')
        lines.append(f'  {node["id"]} [label="{label}"];')
    for edge in doc["edges"]:
        lines.append(f'  {edge["src"]} -> {edge["dst"]} [label="{edge["i"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
