"""The three workloads: what one round runs, and how its inputs follow the seed.

A round is a fixed list of operations made from the seed; a run repeats the
round until its time is up.  Each workload knows how to prepare its inputs
(part of set-up), run one operation, count the crystal elements that
operation produced, check an output, and tell whether two rounds gave the
same output.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

import checks

# ---------------------------------------------------------------------------
# finite-alcove: enumerate finite crystals B(lam), on primal and dual chains

# (type, weight, dual chain).  The sizes keep a round near five seconds on a
# 2-core host, so a run holds several rounds; G2 (2,1) and A3 (1,1,1) carry
# the long strings where epsilon/phi walk the most.
CRYSTALS = (
    ("G2", (2, 1), False),
    ("G2", (1, 1), True),
    ("A3", (1, 1, 1), True),
    ("A3", (2, 1, 0), False),
    ("A3", (1, 0, 2), True),
    ("B2", (2, 1), True),
    ("B2", (1, 2), False),
    ("A2", (3, 1), False),
    ("A2", (2, 2), True),
)


@dataclass(frozen=True)
class CrystalSpec:
    type: str
    lam: tuple
    dual: bool

    @property
    def label(self) -> str:
        return f"{self.type} {self.lam} {'dual' if self.dual else 'primal'}"


class FiniteAlcove:
    name = "finite-alcove"
    counts_enumerations = False

    @staticmethod
    def specs(seed: int) -> list[CrystalSpec]:
        """The crystal list in seeded order.  In type A the seed may swap a
        weight for its image under the diagram automorphism (reversal): the
        crystal has the same size but its chain lists the roots in another
        order, so the fold and signature work differs."""
        rng = random.Random(seed)
        out = []
        for type_, lam, dual in CRYSTALS:
            if type_.startswith("A") and rng.random() < 0.5:
                lam = tuple(reversed(lam))
            out.append(CrystalSpec(type_, lam, dual))
        rng.shuffle(out)
        return out

    @staticmethod
    def prepare(lib, specs):
        systems = {}
        prepared = []
        for spec in specs:
            rs = systems.get(spec.type)
            if rs is None:
                rs = systems[spec.type] = lib.rootsys.RootSystem.from_type(spec.type)
                rs.positive_roots  # a cached property: built here, in set-up
            chain = lib.chains.lex_chain(rs, spec.lam)
            prepared.append(lib.chains.dual_chain(chain) if spec.dual else chain)
        return prepared

    @staticmethod
    def op(lib, spec, chain):
        cg = lib.crystalgraph
        return cg.enumerate_crystal(cg.alcove_ops(chain), [lib.alcove.element(chain, [])])

    @staticmethod
    def nodes(spec, graph) -> int:
        return len(graph.nodes)

    @staticmethod
    def check(lib, spec, graph) -> list[str]:
        return checks.check_crystal(lib, spec, graph)

    @staticmethod
    def same(a, b) -> bool:
        return list(a.nodes) == list(b.nodes) and a.edges == b.edges


# ---------------------------------------------------------------------------
# binf-deep: deep walks in Al(infinity) and its dual, transported to paths

# (type, dual window) cells, and the walk lengths every cell gets.
WALK_CELLS = (("A3", False), ("A3", True), ("G2", False), ("G2", True))
WALK_LENGTHS = (42, 48, 54)
WALKS_PER_LENGTH = 9


@dataclass(frozen=True)
class WalkSpec:
    type: str
    dual: bool
    word: tuple

    @property
    def label(self) -> str:
        model = "Al-dual(inf)" if self.dual else "Al(inf)"
        return f"{self.type} {model} walk of {len(self.word)}"


@dataclass(frozen=True)
class WalkOut:
    lowered: object
    image: object
    raise_steps: int
    top: object


class BinfDeep:
    name = "binf-deep"
    counts_enumerations = False

    @staticmethod
    def specs(seed: int) -> list[WalkSpec]:
        """Seeded random words in which every index occurs equally often.

        A walk's cost follows the depth its element reaches, and that depth
        follows the letter counts of the word.  Fixing the counts fixes the
        weight, so the seed picks which element of that weight space a walk
        reaches while each round keeps about the same amount of work.
        """
        rng = random.Random(seed)
        out = []
        for type_, dual in WALK_CELLS:
            rank = len(checks.CARTAN[type_])
            for length in WALK_LENGTHS:
                for _ in range(WALKS_PER_LENGTH):
                    word = [1 + k % rank for k in range(length)]
                    rng.shuffle(word)
                    out.append(WalkSpec(type_, dual, tuple(word)))
        rng.shuffle(out)
        return out

    @staticmethod
    def prepare(lib, specs):
        starts = {}
        for type_, dual in WALK_CELLS:
            rs = lib.rootsys.RootSystem.from_type(type_)
            rs.positive_roots
            win = lib.chains.window(rs, 1, dual=dual)
            win.entries
            starts[type_, dual] = lib.alcove.element(win, [])
        return [starts[spec.type, spec.dual] for spec in specs]

    @staticmethod
    def op(lib, spec, start):
        """Lower along the word, transport to a path, raise greedily back.

        The dual model is a lowest weight crystal, so there the walk applies
        e and the way back applies f.
        """
        al = lib.alcove
        down, up = (al.e_op, al.f_op) if spec.dual else (al.f_op, al.e_op)
        el = start
        for i in spec.word:
            el = down(el, i)
            if el is None:
                raise RuntimeError(f"{spec.label}: operator {i} undefined on the way down")
        lim = lib.limits
        image = lim.varpi_dual_infinity(el) if spec.dual else lim.varpi_infinity(el)
        top = el
        steps = 0
        index_set = el.rs.index_set
        while steps <= len(spec.word):
            for i in index_set:
                nxt = up(top, i)
                if nxt is not None:
                    top = nxt
                    steps += 1
                    break
            else:
                break
        return WalkOut(el, image, steps, top)

    @staticmethod
    def nodes(spec, out) -> int:
        return 2 * len(spec.word)

    @staticmethod
    def check(lib, spec, out) -> list[str]:
        return checks.check_walk(lib, spec, out)

    @staticmethod
    def same(a, b) -> bool:
        return (
            a.lowered.pairs() == b.lowered.pairs()
            and a.image == b.image
            and a.raise_steps == b.raise_steps
            and a.top.pairs() == b.top.pairs()
        )


# ---------------------------------------------------------------------------
# verify-suites: the command line verification suites on A2 and B2

SUITE_TYPES = ("A2", "B2")
SUITE_NAMES = ("axioms", "stembridge", "dual-iso", "limits", "profile", "duality")


@dataclass(frozen=True)
class SuiteSpec:
    type: str
    suite: str

    @property
    def label(self) -> str:
        return f"verify --type {self.type} --suite {self.suite}"


class VerifySuites:
    name = "verify-suites"
    # the suites enumerate their crystals inside the library, so the
    # element count comes from a counter around enumerate_crystal, not
    # from a nodes() method
    counts_enumerations = True

    @staticmethod
    def specs(seed: int) -> list[SuiteSpec]:
        """Every suite on every type, in seeded order.  A3 is left out: its
        stembridge suite alone runs for about a minute."""
        out = [SuiteSpec(t, s) for t in SUITE_TYPES for s in SUITE_NAMES]
        random.Random(seed).shuffle(out)
        return out

    @staticmethod
    def prepare(lib, specs):
        for type_ in SUITE_TYPES:
            lib.rootsys.RootSystem.from_type(type_).positive_roots
        return [None] * len(specs)

    @staticmethod
    def op(lib, spec, _):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = lib.cli.run(["verify", "--type", spec.type, "--suite", spec.suite])
        return status, buf.getvalue()

    @staticmethod
    def check(lib, spec, out) -> list[str]:
        return checks.check_suite(spec, out)

    @staticmethod
    def same(a, b) -> bool:
        return a == b


WORKLOADS = {w.name: w for w in (FiniteAlcove, BinfDeep, VerifySuites)}
