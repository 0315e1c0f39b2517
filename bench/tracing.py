"""Per-layer tracing by wrapping the library's public functions from outside.

Nothing in the package changes: :class:`Tracer` replaces each public
function (and the public methods of the Weyl group classes) with a timing
wrapper, in every package module that holds a reference to it, and restores
the originals on :meth:`Tracer.uninstall`.  ``lex_chain``, for instance, is
imported by name into ``alcove``, ``limits`` and ``cli`` as well as looked up
inside ``chains``; all four references are swapped.

Every wrapped call pushes a frame on one stack, so each call's self time is
its duration minus the time of the wrapped calls it made, and a layer's self
time is the sum over its functions.  The layers' self times and the
harness's own time add up to the traced wall time.  Calls in the
``rootsys``, ``chains``, ``alcove`` and ``littelmann`` layers happen hundreds
of thousands of times per round, so they only feed counters; calls in the
coarse layers (``crystalgraph``, ``limits``, ``cli`` and the harness) are
also kept as spans ``(id, name, start, end, parent id)`` and written out at
the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import time

# Layers whose calls are recorded as spans; all others only feed counters.
COARSE_LAYERS = ("bench", "cli", "crystalgraph", "limits")

# Groups whose inclusive time is reported: a call nested inside another call
# of the same group is counted once, through the outer call.
GROUPS = {
    "alcove.ops": ("alcove.f_op", "alcove.e_op"),
    "alcove.stats": ("alcove.epsilon", "alcove.phi"),
    "alcove.profile": ("alcove.profile_f", "alcove.profile_e"),
    "alcove.projection": ("alcove.project_Spr", "alcove.minimal_projection"),
    "alcove.is_admissible": ("alcove.is_admissible",),
    "littelmann.ops": ("littelmann.f_op", "littelmann.e_op"),
    "littelmann.stats": ("littelmann.epsilon", "littelmann.phi"),
    "limits.varpi": ("limits.varpi", "limits.varpi_dual"),
    "limits.varpi_infinity": ("limits.varpi_infinity", "limits.varpi_dual_infinity"),
    "limits.verify_dual_iso": ("limits.verify_dual_iso",),
    "crystalgraph.checks": (
        "crystalgraph.check_axioms",
        "crystalgraph.check_stembridge",
        "crystalgraph.is_isomorphic",
    ),
}
SUITES = ("axioms", "stembridge", "dual-iso", "limits", "profile", "duality")
for _suite in SUITES:
    GROUPS[f"cli.suite.{_suite}"] = (f"cli.suite.{_suite}",)

# Public methods of the Weyl group classes, with the names they are counted under.
ROOTSYS_METHODS = {
    "RootSystem": {
        "reflection": "reflection",
        "length": "length",
        "is_cover": "is_cover",
        "reflect": "reflect",
        "affine_reflect": "affine_reflect",
        "root_in_weight_coords": "root_in_weight_coords",
        "simple_root": "simple_root",
        "simple_reflection": "simple_reflection",
        "root_from_coeffs": "root_from_coeffs",
        "identity_element": "identity_element",
    },
    "WeylElement": {
        "__mul__": "weyl_mul",
        "apply_root_coeffs": "apply_root",
        "apply_weight": "apply_weight",
    },
}

# The alcove operators counted as string-walk steps when they run inside
# epsilon or phi.
WALK_OPS = ("alcove.f_op", "alcove.e_op")


class Tracer:
    """Wraps the package's public functions and aggregates what they did."""

    def __init__(self, lib):
        self.lib = lib
        self.clock = time.perf_counter
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.group_of: dict[str, str] = {
            name: group for group, names in GROUPS.items() for name in names
        }
        self.group_depth = {group: 0 for group in GROUPS}
        self.group_time = {group: 0.0 for group in GROUPS}
        self.walk_op_calls = 0
        self.nodes = 0
        self.edges = 0
        self.spans: list[tuple] = []
        self.open_spans: list[int | None] = [None]
        self.stack: list[list[float]] = [[0.0]]
        self._undo: list = []  # callables that each take one patch back
        self.t0 = self.clock()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        lib = self.lib
        for layer in ("rootsys", "chains", "alcove", "littelmann", "limits", "crystalgraph"):
            mod = getattr(lib, layer)
            for public in mod.__all__:
                fn = getattr(mod, public)
                if inspect.isfunction(fn):
                    self._undo.append(replace(lib, fn, self.wrap(f"{layer}.{public}", fn)))
        for cls_name, methods in ROOTSYS_METHODS.items():
            cls = getattr(lib.rootsys, cls_name)
            for attr, short in methods.items():
                self._set(cls, attr, self.wrap(f"rootsys.{short}", vars(cls)[attr]))
        window_cls = lib.chains.InfChainWindow
        entries = functools.cached_property(
            self.wrap("chains.window_entries", vars(window_cls)["entries"].func)
        )
        entries.__set_name__(window_cls, "entries")
        self._set(window_cls, "entries", entries)
        self._set(lib.cli, "run", self.wrap("cli.run", lib.cli.run))
        suites = lib.cli._SUITES
        for suite in SUITES:
            old = suites[suite]
            suites[suite] = self.wrap(f"cli.suite.{suite}", old)
            self._undo.append(functools.partial(suites.__setitem__, suite, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, target, attr, value) -> None:
        self._undo.append(functools.partial(setattr, target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    # -- the wrapper -------------------------------------------------------

    def wrap(self, name, fn):
        """A function that calls ``fn`` and books the call under ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = self.clock
        group = self.group_of.get(name)
        coarse = name.split(".", 1)[0] in COARSE_LAYERS
        walk_op = name in WALK_OPS
        enumerate_op = name == "crystalgraph.enumerate_crystal"
        tracer = self

        if group is None and not coarse and not walk_op:

            @functools.wraps(fn)
            def fine(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    stack[-1][0] += dur
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]

            return fine

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # an operator step inside epsilon/phi is booked to the string
            # walk, not to the operators
            in_walk = walk_op and tracer.group_depth["alcove.stats"] > 0
            if in_walk:
                tracer.walk_op_calls += 1
            outer = group is not None and tracer.group_depth[group] == 0 and not in_walk
            if group is not None:
                tracer.group_depth[group] += 1
            if coarse:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer.open_spans[-1]
                tracer.open_spans.append(span_id)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if enumerate_op:
                    tracer.nodes += len(out.nodes)
                    tracer.edges += len(out.edges)
                return out
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if group is not None:
                    tracer.group_depth[group] -= 1
                    if outer:
                        tracer.group_time[group] += dur
                if coarse:
                    tracer.open_spans.pop()
                    tracer.spans[span_id] = (
                        span_id, name, start - tracer.t0, end - tracer.t0, parent
                    )

        return traced

    # -- reading out -------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]


def replace(lib, original, wrapper):
    """Swap ``original`` for ``wrapper`` in every package module that holds
    it under some name; return a callable that swaps it back."""
    swapped = []
    for mod in lib.modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                swapped.append((mod, attr))

    def undo():
        for mod, attr in swapped:
            setattr(mod, attr, original)

    return undo


def counting_enumerate(lib):
    """Patch ``enumerate_crystal`` with a wrapper that only sums node counts.

    Returns ``(counter, undo)``: ``counter[0]`` grows by the node count of
    every graph enumerated, and ``undo()`` restores the original.  The
    wrapper costs one call and one addition per enumeration.
    """
    original = lib.crystalgraph.enumerate_crystal
    counter = [0]

    @functools.wraps(original)
    def counted(*args, **kwargs):
        graph = original(*args, **kwargs)
        counter[0] += len(graph.nodes)
        return graph

    return counter, replace(lib, original, counted)
