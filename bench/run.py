"""Benchmark for the alcovecrystals library.  Standard library only.

Run from the root of a checkout:

    python3 bench/run.py --workload finite-alcove --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``finite-alcove``, ``binf-deep``, ``verify-suites``.
The run sets up (imports the package and builds root systems, positive roots
and chains) several times and keeps the median, then repeats whole rounds of
the workload's operations, closed loop in one thread, until ``--seconds``
have passed.  Outputs are checked after the timed phase.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run also writes its spans to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from calibration import Speedometer, install_hooks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "alcovecrystals"
MODULES = ("rootsys", "chains", "alcove", "littelmann", "limits", "crystalgraph", "cli")
SETUPS = 11


END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("nodes_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

_CALLS = (
    ("rootsys.reflection.calls", "rootsys.reflection"),
    ("rootsys.weyl_mul.calls", "rootsys.weyl_mul"),
    ("rootsys.length.calls", "rootsys.length"),
    ("rootsys.is_cover.calls", "rootsys.is_cover"),
    ("rootsys.apply_root.calls", "rootsys.apply_root"),
    ("chains.lex_chain.calls", "chains.lex_chain"),
    ("chains.window.calls", "chains.window"),
    ("chains.window_entries.calls", "chains.window_entries"),
    ("alcove.folded_roots.calls", "alcove.folded_roots"),
    ("alcove.i_signature.calls", "alcove.i_signature"),
    ("alcove.is_admissible.calls", "alcove.is_admissible"),
)
_GROUP_TIMES = (
    "alcove.is_admissible",
    "alcove.ops",
    "alcove.stats",
    "alcove.profile",
    "alcove.projection",
    "littelmann.ops",
    "littelmann.stats",
    "limits.varpi",
    "limits.varpi_infinity",
    "limits.verify_dual_iso",
    "crystalgraph.checks",
) + tuple(f"cli.suite.{s}" for s in tracing.SUITES)
_LAYERS = ("rootsys", "chains", "alcove", "littelmann", "limits", "crystalgraph", "cli", "bench")

PER_LAYER = (
    tuple((name, "count") for name, _ in _CALLS)
    + (
        ("alcove.folded_roots.per_node", "calls/node"),
        ("alcove.string_walk.op_calls", "count"),
        ("crystalgraph.nodes", "count"),
        ("crystalgraph.edges", "count"),
        ("crystalgraph.enumerate.self_s", "s"),
    )
    + tuple((f"{group}.s", "s") for group in _GROUP_TIMES)
    + tuple((f"{layer}.self_s", "s") for layer in _LAYERS)
    + (
        ("trace.round_s", "s"),
        ("trace.untraced_round_s", "s"),
        ("trace.overhead", "ratio"),
        ("trace.kernel_ms", "ms"),
    )
)


class Library:
    """The package's modules, imported afresh."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))

    def modules(self):
        return [getattr(self, name) for name in MODULES]


def fresh_import() -> Library:
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return Library()


def set_up(workload, specs):
    """Import the package and prepare the inputs ``SETUPS`` times; return the
    last library and inputs with the median set-up time in reference seconds."""
    meter = Speedometer()
    times = []
    for _ in range(SETUPS):
        start = meter.start()
        lib = fresh_import()
        prepared = workload.prepare(lib, specs)
        times.append(meter.stop(start)[1])
    return lib, prepared, statistics.median(times)


class Round:
    """One pass over the workload's operations: times, outputs, errors.

    ``times`` and ``seconds`` are as measured; ``ref_times`` and
    ``ref_seconds`` are in reference seconds (see ``calibration.py``).  The
    first round of a run keeps its outputs for the checks; a later round
    only compares each output with the first round's and keeps the labels
    of those that differ, so memory does not grow with the number of rounds.
    """

    def __init__(self, workload, lib, specs, prepared, meter, op=None, first=None):
        op = op or workload.op
        self.times = []
        self.ref_times = []
        self.outputs = []
        self.errors = []
        self.mismatches = []
        for k, (spec, inputs) in enumerate(zip(specs, prepared)):
            start = meter.start()
            try:
                out = op(lib, spec, inputs)
            except Exception:  # an operation that raises is counted as failed
                out = None
                self.errors.append(f"{spec.label}: {traceback.format_exc()}")
            own, ref = meter.stop(start)
            self.times.append(own)
            self.ref_times.append(ref)
            if first is None:
                self.outputs.append(out)
            elif out is not None and first.outputs[k] is not None:
                if not workload.same(first.outputs[k], out):
                    self.mismatches.append(spec.label)
        self.seconds = sum(self.times)
        self.ref_seconds = sum(self.ref_times)


def repeat_rounds(seconds, make_round, first=None, start=None):
    """Whole rounds until ``seconds`` have passed since ``start`` (at least
    one); ``make_round(first)`` gets the round later rounds compare with."""
    start = time.perf_counter() if start is None else start
    rounds = [make_round(first)]
    first = first or rounds[0]
    while time.perf_counter() - start < seconds:
        rounds.append(make_round(first))
    return rounds


def check_rounds(workload, lib, specs, rounds) -> list[str]:
    """Check the first round's outputs; later rounds must have repeated them."""
    failures = []
    for spec, out in zip(specs, rounds[0].outputs):
        if out is not None:
            failures += workload.check(lib, spec, out)
    for later in rounds[1:]:
        failures += [f"{label}: a later round gave another output" for label in later.mismatches]
    return failures


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share ``p`` of
    the samples at or below it.  A round holds a fixed set of unlike
    operations and every round adds one sample of each; for p = 0.9 and the
    round sizes used here the rank falls within the samples of one and the
    same operation whatever the number of rounds."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def round_nodes(workload, specs, rnd) -> int:
    return sum(
        workload.nodes(spec, out)
        for spec, out in zip(specs, rnd.outputs)
        if out is not None
    )


def untraced(workload, lib, specs, prepared, seconds):
    counter, undo_count = (
        tracing.counting_enumerate(lib) if workload.counts_enumerations else ([0], None)
    )
    meter = Speedometer()
    undo_hooks = install_hooks(lib, meter)
    try:
        rounds = repeat_rounds(
            seconds, lambda first: Round(workload, lib, specs, prepared, meter, first=first)
        )
    finally:
        undo_hooks()
        if undo_count:
            undo_count()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(r.ref_seconds for r in rounds)
    if workload.counts_enumerations:
        nodes = counter[0] / len(rounds)
    else:
        nodes = round_nodes(workload, specs, rounds[0])
    samples = [t for r in rounds for t in r.ref_times]
    metrics = {
        "wall_s": wall_s,
        "nodes_per_s": nodes / wall_s,
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_p90_ms": percentile(samples, 0.9) * 1e3,
        "peak_rss_mib": peak_rss_mib,
    }
    return rounds, metrics, meter.mean_kernel()


def traced(workload, lib, specs, prepared, seconds, trace_file):
    """One untraced round as the reference, then traced rounds.

    The kernel samples only between operations here, so that no kernel time
    lands inside a traced call.
    """
    start = time.perf_counter()
    meter = Speedometer()
    reference = Round(workload, lib, specs, prepared, meter)
    tracer = tracing.Tracer(lib)
    tracer.install()
    bench_op = tracer.wrap("bench.op", workload.op)
    try:
        rounds = repeat_rounds(
            seconds,
            lambda first: Round(workload, lib, specs, prepared, meter, op=bench_op, first=first),
            first=reference,
            start=start,
        )
    finally:
        tracer.uninstall()
    n = len(rounds)
    # layer times are summed over the traced rounds: report reference seconds per round
    per_round = sum(r.ref_seconds for r in rounds) / sum(r.seconds for r in rounds) / n
    if workload.counts_enumerations:
        nodes = tracer.nodes / n
    else:
        nodes = round_nodes(workload, specs, reference)
    layer = tracer.layer_self()
    traced_round = statistics.median(r.ref_seconds for r in rounds)
    untraced_round = reference.ref_seconds
    metrics = {name: tracer.calls(fn) / n for name, fn in _CALLS}
    metrics.update(
        {
            "alcove.folded_roots.per_node": (
                tracer.calls("alcove.folded_roots") / n / nodes if nodes else 0.0
            ),
            "alcove.string_walk.op_calls": tracer.walk_op_calls / n,
            "crystalgraph.nodes": tracer.nodes / n,
            "crystalgraph.edges": tracer.edges / n,
            "crystalgraph.enumerate.self_s": (
                tracer.self_time("crystalgraph.enumerate_crystal") * per_round
            ),
        }
    )
    metrics.update({f"{g}.s": tracer.group_time[g] * per_round for g in _GROUP_TIMES})
    metrics.update({f"{name}.self_s": layer.get(name, 0.0) * per_round for name in _LAYERS})
    metrics.update(
        {
            "trace.round_s": traced_round,
            "trace.untraced_round_s": untraced_round,
            "trace.overhead": traced_round / untraced_round,
            "trace.kernel_ms": meter.mean_kernel() * 1e3,
        }
    )
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "traced_rounds": n,
                "seconds_are": "as measured (not reference seconds)",
                "span_fields": ["id", "name", "start_s", "end_s", "parent"],
                "spans": tracer.spans,
                "call_fields": ["calls", "inclusive_s", "self_s"],
                "calls": dict(sorted(tracer.stats.items())),
            },
            fh,
        )
    return [reference] + rounds, metrics, meter.mean_kernel()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: the package sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    specs = workload.specs(args.seed)
    lib, prepared, setup_s = set_up(workload, specs)
    gc.collect()  # drop the package copies left by the repeated imports
    if args.trace:
        trace_file = HERE / "out" / f"trace-{workload.name}-seed{args.seed}.json"
        rounds, metrics, kernel_s = traced(
            workload, lib, specs, prepared, args.seconds, trace_file
        )
        units = dict(PER_LAYER)
    else:
        rounds, metrics, kernel_s = untraced(workload, lib, specs, prepared, args.seconds)
        metrics["setup_s"] = setup_s
        units = dict(END_TO_END)

    errors = [e for r in rounds for e in r.errors]
    failures = check_rounds(workload, lib, specs, rounds)
    for line in (errors[:1] + failures)[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    attempted = sum(len(r.times) for r in rounds)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(
        f"rounds {len(rounds)} attempted {attempted} failed {len(errors)}"
        f" measured_round_s {statistics.median(r.seconds for r in rounds):.6g}"
        f" kernel_ms {kernel_s * 1e3:.6g}"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
