"""Self-test of the benchmark's checks: each one must reject a wrong answer.

    python3 bench/selftest.py

Small inputs of each workload are computed with the library, checked as
they are (every check must pass), then changed in one place each (a node
dropped, a weight or statistic altered, an edge removed, a path segment
changed, a suite failing, and so on); every check must then fail.  It also
compares the metric names in ``BENCHMARK.json`` with those the benchmark
prints.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys

import checks
import run
from workloads import BinfDeep, CrystalSpec, FiniteAlcove, SuiteSpec, VerifySuites, WalkSpec


class Cases:
    def __init__(self):
        self.bad = 0

    def expect(self, what, ok, detail=()):
        print(f"{'ok  ' if ok else 'BAD '} {what}" + ("" if ok else f": {list(detail)[:2]}"))
        self.bad += not ok

    def passes(self, what, failures):
        self.expect(what, not failures, failures)

    def rejects(self, what, failures):
        self.expect(f"rejects {what}", bool(failures), ["accepted"])


def drop_node(graph, key):
    nodes = {k: v for k, v in graph.nodes.items() if k != key}
    edges = [e for e in graph.edges if key not in (e[0], e[2])]
    return dataclasses.replace(graph, nodes=nodes, edges=edges)


def change_node(graph, key, **fields):
    nodes = dict(graph.nodes)
    nodes[key] = dataclasses.replace(nodes[key], **fields)
    return dataclasses.replace(graph, nodes=nodes)


def crystal_cases(lib, cases):
    for dual in (False, True):
        spec = CrystalSpec("A2", (2, 1), dual)
        graph = FiniteAlcove.op(lib, spec, FiniteAlcove.prepare(lib, [spec])[0])
        check = functools.partial(checks.check_crystal, lib, spec)
        cases.passes(f"{spec.label} as enumerated", check(graph))
        keys = list(graph.nodes)
        last = keys[-1]
        data = graph.nodes[last]
        cases.rejects(f"{spec.label} with one node dropped", check(drop_node(graph, last)))
        shifted = (data.weight[0] + 1,) + tuple(data.weight[1:])
        cases.rejects(
            f"{spec.label} with one weight changed",
            check(change_node(graph, last, weight=shifted)),
        )
        eps = (data.eps[0] + 1,) + tuple(data.eps[1:])
        cases.rejects(
            f"{spec.label} with one epsilon changed",
            check(change_node(graph, last, eps=eps)),
        )
        cases.rejects(
            f"{spec.label} with one edge removed",
            check(dataclasses.replace(graph, edges=graph.edges[:-1])),
        )
        # (1,2) has the same dimension and weight symmetry as (2,1): only the
        # comparison with the path model tells the two crystals apart
        cases.rejects(
            f"{spec.label} checked as the crystal of (1, 2)",
            checks.check_crystal(lib, CrystalSpec("A2", (1, 2), dual), graph),
        )
        cases.expect(
            f"rejects {spec.label} repeated with a node dropped",
            not FiniteAlcove.same(graph, drop_node(graph, last)),
        )


def walk_cases(lib, cases):
    for dual in (False, True):
        spec = WalkSpec("A3", dual, (2, 1, 3, 2, 1, 3))
        start = BinfDeep.prepare(lib, [spec])[0]
        out = BinfDeep.op(lib, spec, start)
        check = functools.partial(checks.check_walk, lib, spec)
        cases.passes(f"{spec.label} as computed", check(out))
        (velocity, duration), *rest = out.image.segments
        bent = tuple(-c for c in velocity)
        image = lib.littelmann.PLPath(out.image.rs, out.image.kind, ((bent, duration), *rest))
        cases.rejects(
            f"{spec.label} with one path segment changed",
            check(dataclasses.replace(out, image=image)),
        )
        other = BinfDeep.op(lib, WalkSpec("A3", dual, (2, 1, 3, 2, 1, 1)), start)
        cases.rejects(
            f"{spec.label} with another element lowered",
            check(dataclasses.replace(out, lowered=other.lowered)),
        )
        cases.rejects(
            f"{spec.label} raised back in one step too many",
            check(dataclasses.replace(out, raise_steps=out.raise_steps + 1)),
        )
        cases.rejects(
            f"{spec.label} raised to a nonempty element",
            check(dataclasses.replace(out, top=out.lowered)),
        )


def suite_cases(cases):
    spec = SuiteSpec("A2", "duality")
    good = (0, "ok duality Al(0, 0)\npassed 1/1 checks\n")
    cases.passes("a suite that passes", checks.check_suite(spec, good))
    for what, out in (
        ("a suite exiting 1", (1, good[1])),
        ("a suite with a FAIL line", (0, "FAIL duality Al(0, 0)\npassed 1/1 checks\n")),
        ("a suite passing 1 of 2 checks", (0, "ok duality Al(0, 0)\npassed 1/2 checks\n")),
        ("a suite with no summary", (0, "ok duality Al(0, 0)\n")),
        ("a suite with no output", (0, "")),
    ):
        cases.rejects(what, checks.check_suite(spec, out))
    cases.expect(
        "rejects a suite whose output changed between rounds",
        not VerifySuites.same(good, (0, "passed 2/2 checks\n")),
    )


def oracle_cases(cases):
    # dimensions of B(lam) listed in the representation theory literature
    known = {
        ("A2", (1, 1)): 8,
        ("A3", (1, 1, 1)): 64,
        ("B2", (1, 1)): 16,
        ("G2", (1, 0)): 7,
        ("G2", (2, 1)): 189,
    }
    for (type_, lam), dim in known.items():
        got = checks.weyl_dimension(checks.CARTAN[type_], lam)
        cases.expect(f"Weyl dimension of {type_} {lam} is {dim}", got == dim, [got])


def benchmark_json_cases(cases):
    path = run.HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        print("skip BENCHMARK.json comparison: no BENCHMARK.json next to bench/")
        return
    doc = json.loads(path.read_text())
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in doc[key]]
        cases.expect(f"{key} metrics match BENCHMARK.json", listed == list(printed), [listed])
    names = sorted(w["name"] for w in doc["workloads"])
    cases.expect("workloads match BENCHMARK.json", names == sorted(run.WORKLOADS), [names])


def main() -> int:
    if not (run.SRC / run.PACKAGE / "__init__.py").is_file():
        print(f"error: the package sources are missing under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    lib = run.Library()
    cases = Cases()
    oracle_cases(cases)
    crystal_cases(lib, cases)
    walk_cases(lib, cases)
    suite_cases(cases)
    benchmark_json_cases(cases)
    print("all checks behave" if not cases.bad else f"{cases.bad} case(s) misbehave")
    return 1 if cases.bad else 0


if __name__ == "__main__":
    sys.exit(main())
