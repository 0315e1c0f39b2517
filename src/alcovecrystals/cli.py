"""Command line front end.

Subcommands build chains, enumerate crystals, walk the unbounded model,
move elements between finite and unbounded crystals, transport them to
paths, run the verification suites, and export graphs.  Every subcommand
but ``crystal``, which has no JSON schema, takes ``--format``: each builds
its JSON document and its text once and hands both to ``_output``, which
prints one of them (``export``'s text is DOT, and ``verify`` prints its text
suite by suite as the suites finish).  All output is deterministic; exit
status is 0 on success, 1 when a verification suite reports failures, and 2
on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import alcove as al
from . import crystalgraph as cg
from . import littelmann as lp
from .chains import chain_to_json, dual_chain, lex_chain, window
from .limits import varpi, varpi_dual, varpi_dual_infinity, varpi_infinity
from .rootsys import RootSystem, root_string
from .verify import SUITES as _SUITES, Sweep

__all__ = ["main", "run"]


#: the most nodes ``crystal`` and ``export`` enumerate in a crystal or a
#: truncation, and ``verify`` in the crystals Al(lam) of its sweep and in each
#: of its truncations
MAX_NODES = 100_000


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# shared argument handling


def _root_system(args) -> RootSystem:
    if args.matrix:
        try:
            rows = [
                [int(x) for x in row.split(",")] for row in args.matrix.split(";")
            ]
            rs = RootSystem.from_matrix(rows)
        except ValueError as exc:
            raise UsageError(f"bad Cartan matrix: {exc}")
        try:
            rs.positive_roots  # a matrix of infinite type fails here, not mid-command
        except ValueError as exc:
            raise UsageError(str(exc))
        return rs
    if not args.type:
        raise UsageError("one of --type or --matrix is required")
    try:
        return RootSystem.from_type(args.type)
    except ValueError as exc:
        raise UsageError(str(exc))


def _weight(args, rs: RootSystem) -> tuple:
    if args.weight is None:
        raise UsageError("--weight is required here")
    try:
        coeffs = tuple(int(p) for p in args.weight.split(","))
    except ValueError:
        raise UsageError(f"malformed weight {args.weight!r}")
    if len(coeffs) != rs.rank:
        raise UsageError(f"weight needs {rs.rank} coefficients")
    return coeffs


def _word(text: str | None, rs: RootSystem, flag: str) -> list[int]:
    if not text:
        return []
    out = []
    for piece in text.split(","):
        try:
            i = int(piece)
        except ValueError:
            raise UsageError(f"malformed {flag} entry {piece!r}")
        if i not in rs.index_set:
            raise UsageError(f"{flag} index {i} is out of range")
        out.append(i)
    return out


def _apply_word(el, word, op, name: str):
    for step, i in enumerate(word, start=1):
        nxt = op(el, i)
        if nxt is None:
            raise UsageError(f"{name} {i} is undefined at step {step}")
        el = nxt
    return el


def _seed_element(chain, args, rs):
    el = al.element(chain, [])
    fw = _word(args.fstring, rs, "--fstring")
    ew = _word(args.estring, rs, "--estring")
    if fw and ew:
        raise UsageError("--fstring and --estring are mutually exclusive")
    if fw:
        return _apply_word(el, fw, al.f_op, "lowering")
    if ew:
        return _apply_word(el, ew, al.e_op, "raising")
    return el


def _finite_chain(rs, lam, dual: bool):
    try:
        chain = lex_chain(rs, lam)
    except ValueError as exc:
        raise UsageError(str(exc))
    return dual_chain(chain) if dual else chain


def _raise_to_highest(el):
    word = []
    while True:
        for i in el.rs.index_set:
            nxt = al.e_op(el, i)
            if nxt is not None:
                word.append(i)
                el = nxt
                break
        else:
            return el, word


def _output(args, doc, text: str) -> int:
    """Print ``doc`` as JSON under ``--format json`` and ``text`` otherwise;
    returns the exit status 0."""
    print(json.dumps(doc, indent=2) if args.format == "json" else text)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_chain(args) -> int:
    rs = _root_system(args)
    chain = _finite_chain(rs, _weight(args, rs), args.dual)
    inner = ", ".join(f"({root_string(e.root)}, {e.level})" for e in chain.entries)
    return _output(args, chain_to_json(chain), f"({inner})")


def _past_limit(text: str) -> UsageError:
    """The refusal of a crystal or truncation that ``text`` sizes."""
    return UsageError(f"{text}; at most {MAX_NODES} are enumerated")


def _crystal_graph(rs, lam=None, dual=False, depth=None):
    """Al(lam) or its dual model, or with no ``lam`` Al(infinity) or its
    dual, enumerated to ``depth``; refused before its chain is built when it
    may hold more than ``MAX_NODES`` nodes.  A whole finite crystal has its
    Weyl dimension of nodes, a truncation of the unbounded model the count
    of B(infinity) to ``depth``, and one of a finite crystal at most the
    smaller of the two.  A truncation at depth d holds f_1^k b for every
    k <= d, more than d nodes, so from a depth of ``MAX_NODES`` on that
    count, which takes time and memory linear in d, is not computed."""
    deep = depth is not None and depth >= MAX_NODES
    if lam is None:
        if deep:
            raise _past_limit(f"the truncation at depth {depth} has more than {depth} nodes")
        what, size = f"the truncation at depth {depth} has", cg.infinity_size(rs, depth)
    else:
        try:
            size = cg.weyl_dimension(rs, lam)
        except ValueError as exc:
            raise UsageError(str(exc))
        if depth is None:
            what = "the crystal has"
        else:
            what = f"the truncation at depth {depth} has up to"
            if not deep:
                size = min(cg.infinity_size(rs, depth), size)
    if size > MAX_NODES:
        raise _past_limit(f"{what} {size} nodes")
    chain = window(rs, 1, dual=dual) if lam is None else _finite_chain(rs, lam, dual)
    return cg.enumerate_crystal(cg.alcove_ops(chain), [al.element(chain, [])], depth=depth)


def _cmd_crystal(args) -> int:
    rs = _root_system(args)
    lam = _weight(args, rs)
    graph = _crystal_graph(rs, lam, args.dual)
    if args.list_vertices:
        for s in sorted((el.positions for el in graph.nodes), key=lambda s: (len(s), s)):
            print("[" + ", ".join(str(p) for p in s) + "]")
        return 0
    print(f"vertices: {len(graph.nodes)}")
    print(f"edges: {len(graph.edges)}")
    print(f"dimension: {cg.weyl_dimension(rs, lam)}")
    return 0


def _cmd_binf(args) -> int:
    rs = _root_system(args)
    el = _seed_element(window(rs, 1), args, rs)
    fields = (args.show or "positions,weight").split(",")
    known = ("positions", "weight", "projection", "hw-string")
    for f in fields:
        if f not in known:
            raise UsageError(f"unknown --show field {f!r}")
    doc = {}
    lines = []
    if "positions" in fields:
        lines.append(f"positions: {al.render_element(el)}")
        doc["positions"] = al.element_to_json(el)["positions"]
    if "weight" in fields:
        wt = al.weight(el)
        lines.append(f"weight: {tuple(wt)}")
        doc["weight"] = list(wt)
    if "projection" in fields:
        k, image = al.minimal_projection(el)
        lines.append(f"projection: k = {k}: {al.render_element(image)}")
        doc["projection"] = {"k": k, "element": al.element_to_json(image)}
    if "hw-string" in fields:
        _, word = _raise_to_highest(el)
        lines.append("hw-string: [" + ", ".join(str(i) for i in word) + "]")
        doc["hw_string"] = word
    return _output(args, doc, "\n".join(lines))


def _cmd_project(args) -> int:
    rs = _root_system(args)
    el = _seed_element(window(rs, 1), args, rs)
    if args.k is None:
        k, image = al.minimal_projection(el)
    else:
        k = args.k
        image = al.project_Spr(el, k)
    if image is None:
        return _output(args, {"k": k, "element": None}, "none")
    return _output(
        args, {"k": k, "element": al.element_to_json(image)}, f"k = {k}: {al.render_element(image)}"
    )


def _cmd_lift(args) -> int:
    rs = _root_system(args)
    if args.k is None or args.k < 1:
        raise UsageError("--k must be a positive integer")
    lam = tuple(c * args.k for c in rs.rho)
    el = _seed_element(lex_chain(rs, lam), args, rs)
    lifted = al.include_Sin(el, args.k)
    return _output(args, al.element_to_json(lifted), al.render_element(lifted))


def _cmd_path_image(args) -> int:
    rs = _root_system(args)
    if args.infinity:
        chain = window(rs, 1, dual=args.dual)
        el = _seed_element(chain, args, rs)
        path = varpi_dual_infinity(el) if args.dual else varpi_infinity(el)
    else:
        chain = _finite_chain(rs, _weight(args, rs), args.dual)
        el = _seed_element(chain, args, rs)
        path = varpi_dual(el) if args.dual else varpi(el)
    return _output(args, lp.path_to_json(path), lp.render_path(path))


def _cmd_export(args) -> int:
    rs = _root_system(args)
    if args.infinity:
        if args.depth is None:
            raise UsageError("--depth is required with --infinity")
        graph = _crystal_graph(rs, dual=args.dual, depth=args.depth)
    else:
        graph = _crystal_graph(rs, _weight(args, rs), args.dual, args.depth)
    return _output(args, cg.graph_to_json(graph), cg.graph_to_dot(graph))


def _cmd_verify(args) -> int:
    rs = _root_system(args)
    sweep = Sweep(rs, args.depth)
    # refuse a sweep whose crystals Al(lam) hold too many nodes in all, or
    # whose truncations hold too many each, before any suite runs; from a
    # depth of MAX_NODES on, without counting them (see _crystal_graph)
    if (total := sum(cg.weyl_dimension(rs, lam) for lam in sweep.weights)) > MAX_NODES:
        raise _past_limit(f"the sweep's crystals have {total} nodes")
    what = f"the sweep's truncations at depth {args.depth} have"
    if args.depth >= MAX_NODES:
        raise _past_limit(f"{what} more than {args.depth} nodes each")
    if (size := cg.infinity_size(rs, args.depth)) > MAX_NODES:
        raise _past_limit(f"{what} {size} nodes each")
    checks = []
    for name in list(_SUITES) if args.suite == "all" else [args.suite]:
        done = _SUITES[name](sweep)
        checks += done
        if args.format == "text":
            for check in done:
                print(f"{'ok' if check.ok else 'FAIL'} {check.name}")
                for f in check.failures[:5]:
                    print(f"     {f}")
    passed = sum(check.ok for check in checks)
    _output(args, [vars(check) for check in checks], f"passed {passed}/{len(checks)} checks")
    return 0 if passed == len(checks) else 1


# ---------------------------------------------------------------------------
# parser


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _add_common(p, weight=False, seed=False, fmt=("text", "json")):
    """The options several subcommands share; ``--format`` takes ``fmt``,
    the first its default, and is left out when ``fmt`` is empty."""
    p.add_argument("--type", help="Cartan type, e.g. A2, B2, G2")
    p.add_argument("--matrix", help="Cartan matrix, rows ; separated, entries , separated")
    if weight:
        p.add_argument("--weight", help="dominant weight coefficients, comma separated")
        p.add_argument("--dual", action="store_true", help="use the dual model")
    if seed:
        p.add_argument("--fstring", help="lowering word, comma separated 1-based indices")
        p.add_argument("--estring", help="raising word, comma separated 1-based indices")
    if fmt:
        p.add_argument("--format", choices=fmt, default=fmt[0])


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: ``parse_args``
    keeps nothing between calls, each one filling a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="alcovecrystals",
        description="alcove model crystals, Littelmann paths, and their limits",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("chain", help="print a lexicographic chain")
    _add_common(p, weight=True)

    p = sub.add_parser("crystal", help="enumerate a finite crystal")
    _add_common(p, weight=True, fmt=())
    p.add_argument("--list-vertices", action="store_true", dest="list_vertices")

    p = sub.add_parser("binf", help="walk the unbounded alcove model")
    _add_common(p, seed=True)
    p.add_argument("--show", help="comma separated: positions,weight,projection,hw-string")

    p = sub.add_parser("project", help="project an unbounded element to a finite crystal")
    _add_common(p, seed=True)
    p.add_argument("--k", type=_nonnegative, help="number of copies; minimal when omitted")

    p = sub.add_parser("lift", help="include a finite crystal element into the unbounded model")
    _add_common(p, seed=True)
    p.add_argument("--k", type=int, required=True, help="the finite crystal is over k copies of the dominant sum")

    p = sub.add_parser("path-image", help="transport an element to a piecewise linear path")
    _add_common(p, weight=True, seed=True)
    p.add_argument("--infinity", action="store_true", help="use the unbounded model")

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=["all", *sorted(_SUITES)], default="all")
    p.add_argument("--depth", type=_nonnegative, default=4)

    p = sub.add_parser("export", help="emit a crystal graph as DOT or JSON")
    _add_common(p, weight=True, fmt=("dot", "json"))
    p.add_argument("--infinity", action="store_true", help="use the unbounded model")
    p.add_argument("--depth", type=_nonnegative, help="truncation depth (required with --infinity)")

    return parser


_DISPATCH = {
    "chain": _cmd_chain,
    "crystal": _cmd_crystal,
    "binf": _cmd_binf,
    "project": _cmd_project,
    "lift": _cmd_lift,
    "path-image": _cmd_path_image,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def _glue_weights(argv: list[str]) -> list[str]:
    """Write ``--weight -1,0`` as ``--weight=-1,0``: argparse takes a separate
    value that starts with a minus sign for an option, so a negative weight
    would never reach the dominance check."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--weight" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--weight={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    """Parse ``argv`` and execute one subcommand; returns the exit status."""
    argv = _glue_weights(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.cmd](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(run())


if __name__ == "__main__":
    main()
