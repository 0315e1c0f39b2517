"""Independent checks of the benchmark's outputs.

Each check returns a list of failure messages; an empty list means the
output passed.  The root data and the Weyl dimension formula are computed
here from Cartan matrices typed in below, with no call into ``rootsys``.
The remaining properties compare one model against another: an alcove
crystal against the path model of the same weight, a transported element
against the path-model word applied to the straight ray.  None of them
compares against a stored copy of an earlier run's output.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

CARTAN = {
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
}


def positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by closure under s_i."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        grown = []
        for root in frontier:
            for i in range(n):
                k = sum(root[j] * cartan[j][i] for j in range(n))
                image = tuple(c - k * (j == i) for j, c in enumerate(root))
                if all(c >= 0 for c in image) and image not in seen:
                    seen.add(image)
                    grown.append(image)
        frontier = grown
    return sorted(seen)


def symmetrizer(cartan) -> list[Fraction]:
    """Half squared lengths d_j with d_j a[i][j] symmetric (diagram connected)."""
    n = len(cartan)
    d: list[Fraction | None] = [Fraction(1)] + [None] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if d[j] is None and cartan[i][j] != 0:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                todo.append(j)
    return d  # type: ignore[return-value]


def weyl_dimension(cartan, lam) -> int:
    """prod over positive roots b of (lam + rho, b) / (rho, b)."""
    d = symmetrizer(cartan)
    total = Fraction(1)
    for root in positive_roots(cartan):
        up = sum((lam[j] + 1) * root[j] * d[j] for j in range(len(lam)))
        down = sum(root[j] * d[j] for j in range(len(lam)))
        total *= up / down
    if total.denominator != 1:
        raise ArithmeticError(f"Weyl dimension of {lam} is not an integer: {total}")
    return int(total)


def simple_root_weight(cartan, i: int) -> tuple[int, ...]:
    """alpha_i (1-based) in fundamental-weight coordinates: row i of the matrix."""
    return tuple(cartan[i - 1])


def reflect_weight(cartan, i: int, mu) -> tuple[int, ...]:
    """s_i(mu) = mu - <mu, alpha_i^vee> alpha_i in fundamental-weight coordinates."""
    alpha = simple_root_weight(cartan, i)
    return tuple(m - mu[i - 1] * a for m, a in zip(mu, alpha))


def word_weight(cartan, word, sign: int) -> tuple[int, ...]:
    """sign * sum of alpha_i over the letters of ``word``."""
    total = [0] * len(cartan)
    for i in word:
        for j, a in enumerate(simple_root_weight(cartan, i)):
            total[j] += sign * a
    return tuple(total)


# ---------------------------------------------------------------------------
# finite-alcove


def check_crystal(lib, spec, graph) -> list[str]:
    """A finite alcove crystal against the Weyl formula, W-symmetry, the crystal
    axioms and the path model of the same weight."""
    cg = lib.crystalgraph
    name = spec.label
    cartan = CARTAN[spec.type]
    failures = []
    if tuple(map(tuple, graph.rs.cartan.matrix)) != cartan:
        failures.append(f"{name}: root system has another Cartan matrix")
    if not graph.complete:
        failures.append(f"{name}: enumeration reports a truncated graph")
    want = weyl_dimension(cartan, spec.lam)
    if len(graph.nodes) != want:
        failures.append(f"{name}: {len(graph.nodes)} nodes, Weyl formula gives {want}")
    weights = Counter(tuple(data.weight) for data in graph.nodes.values())
    for i in range(1, len(cartan) + 1):
        mirrored = Counter({reflect_weight(cartan, i, mu): m for mu, m in weights.items()})
        if mirrored != weights:
            failures.append(f"{name}: weight multiset not invariant under s_{i}")
    report = cg.check_axioms(graph, seminormal=True)
    if not report.ok:
        failures.append(f"{name}: crystal axioms fail: {report.failures[:2]}")
    paths = path_graph(lib, spec)
    try:
        same = cg.is_isomorphic(cg.dualize_graph(graph) if spec.dual else graph, paths)
    except ValueError as exc:
        same = False
        failures.append(f"{name}: no unique highest weight node: {exc}")
    if not same:
        failures.append(f"{name}: not isomorphic to the path model of {spec.lam}")
    return failures


def path_graph(lib, spec):
    """The path-model crystal B(lam) generated by the straight path."""
    rs = lib.rootsys.RootSystem.from_type(spec.type)
    ops = lib.crystalgraph.path_ops(rs)
    return lib.crystalgraph.enumerate_crystal(ops, [lib.littelmann.straight_path(rs, spec.lam)])


# ---------------------------------------------------------------------------
# binf-deep


def check_walk(lib, spec, out) -> list[str]:
    """A B(infinity) walk: weight of the lowered element, its path image, and
    the greedy raise back to the highest weight element."""
    lp = lib.littelmann
    name = spec.label
    cartan = CARTAN[spec.type]
    failures = []
    # the dual model is lowest weight: its walk raises, so weights add roots
    want = word_weight(cartan, spec.word, 1 if spec.dual else -1)
    got = tuple(lib.alcove.weight(out.lowered))
    if got != want:
        failures.append(f"{name}: weight {got}, expected {want}")
    rs = out.lowered.rs
    path = lp.pi_infinity(rs) if spec.dual else lp.xi_infinity(rs)
    step = lp.f_op if spec.dual else lp.e_op
    for i in spec.word:
        path = step(path, i)
        if path is None:
            failures.append(f"{name}: the path-model word is undefined")
            return failures
    if out.image != path:
        failures.append(f"{name}: path image differs from the path-model word")
    if out.raise_steps != len(spec.word):
        failures.append(f"{name}: raised back in {out.raise_steps} steps, not {len(spec.word)}")
    if out.top.positions:
        failures.append(f"{name}: raising stopped at a nonempty element")
    return failures


# ---------------------------------------------------------------------------
# verify-suites


def check_suite(spec, out) -> list[str]:
    """A verification suite: exit status 0, no FAIL line, all checks passed."""
    status, text = out
    lines = text.splitlines()
    failures = []
    if status != 0:
        failures.append(f"{spec.label}: exit status {status}")
    bad = [line for line in lines if line.startswith("FAIL")]
    if bad:
        failures.append(f"{spec.label}: {bad[0]}")
    summary = lines[-1].split() if lines else []
    counts = summary[1].split("/") if len(summary) == 3 else []
    if (
        summary[:1] != ["passed"]
        or len(counts) != 2
        or counts[0] != counts[1]
        or not counts[0].isdigit()
        or int(counts[0]) < 1
    ):
        failures.append(f"{spec.label}: no 'passed k/k checks' summary")
    return failures
