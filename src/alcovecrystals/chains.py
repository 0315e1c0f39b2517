"""Chains of positive roots with levels: the sorted hyperplane sequences.

A chain for a dominant weight ``lam`` lists every pair ``(beta, h)`` with
``0 <= h < <lam, beta^vee>`` in some admissible total order.  The reversed
("dual") variant stores levels ``l~ = <lam, beta^vee> - l`` instead and walks
the sequence back to front; both variants share the entry type and the
concatenation rule so downstream code can handle them uniformly.

Windows truncate the one-sided infinite chain built from copies of the
``rho`` chain; all window levels are negative (primal) or positive (dual).
A window knows its own layout: which block holds a position
(:meth:`InfChainWindow.deepest_block`) and how far positions move when the
same foldings are read in a wider window or in the chain for a multiple of
``rho`` (:meth:`InfChainWindow.offset`), so no other module computes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .rootsys import Root, RootSystem, pairing

__all__ = [
    "ChainEntry",
    "InfChainWindow",
    "LambdaChain",
    "chain_to_json",
    "concat",
    "dual_chain",
    "lex_chain",
    "validate_chain",
    "window",
]


@dataclass(frozen=True)
class ChainEntry:
    root: Root
    level: int


@dataclass(frozen=True)
class LambdaChain:
    """A chain for the dominant weight ``lam`` over the root system ``rs``.

    ``dual`` marks the reversed convention (levels already transformed).
    Positions are the 0-based indices into ``entries``.
    """

    rs: RootSystem
    lam: tuple
    entries: tuple[ChainEntry, ...]
    dual: bool = False

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_window(self) -> bool:
        return False

    def weight_for_ops(self) -> tuple:
        return self.lam


@dataclass(frozen=True)
class InfChainWindow:
    """A truncation of the one-sided infinite chain to ``copies`` rho-chains.

    Primal windows are read as the *last* ``copies`` blocks of the infinite
    chain: the block at distance c from the right end carries levels
    ``h - c * <rho, beta^vee> < 0``, and growing the window prepends entries.
    Dual windows grow by appending, with levels
    ``l~ + (c - 1) * <rho, beta^vee> > 0`` in the c-th block from the left.
    """

    rs: RootSystem
    copies: int
    dual: bool = False

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ValueError("window needs at least one copy")

    @property
    def is_window(self) -> bool:
        return True

    @cached_property
    def entries(self) -> tuple[ChainEntry, ...]:
        blocks = range(1, self.copies + 1) if self.dual else range(self.copies, 0, -1)
        return tuple(e for c in blocks for e in _block(self.rs, c, self.dual))

    def __len__(self) -> int:
        return len(self.entries)

    def weight_for_ops(self) -> tuple:
        return (0,) * self.rs.rank

    @cached_property
    def _block_len(self) -> int:
        return len(_rho_chain(self.rs))

    def deepest_block(self, positions) -> int:
        """The farthest block holding any of ``positions``, or 0 for none:
        blocks count from 1 at the window's fixed end."""
        if not positions:
            return 0
        if self.dual:
            return max(positions) // self._block_len + 1
        return self.copies - min(positions) // self._block_len

    def offset(self, k: int) -> int:
        """How far positions move when the same foldings are read in a window
        of ``k`` blocks, or in the chain for ``k * rho`` (its dual chain, for
        a dual window): primal windows grow at their start, dual ones at
        their end."""
        return 0 if self.dual else (k - self.copies) * self._block_len


def lex_chain(rs: RootSystem, lam) -> LambdaChain:
    """The lexicographically sorted chain for a dominant integral weight.

    Pairs ``(beta, h)`` are ordered by the vector
    ``(h, c_1, ..., c_n) / <lam, beta^vee>`` where the ``c_k`` are the coroot
    coordinates of ``beta``.  Roots pairing to zero with ``lam`` contribute
    nothing.  Raises ValueError on a non-dominant weight.
    """
    lam = tuple(lam)
    if len(lam) != rs.rank or any((not isinstance(c, int)) or c < 0 for c in lam):
        raise ValueError(f"weight {lam} is not dominant integral")
    keyed = []
    for beta in rs.positive_roots:
        m = pairing(lam, beta)
        for h in range(m):
            key = (Fraction(h, m),) + tuple(Fraction(c, m) for c in beta.cocoeffs)
            keyed.append((key, ChainEntry(beta, h)))
    keyed.sort(key=lambda pair: pair[0])
    keys = [k for k, _ in keyed]
    assert len(set(keys)) == len(keys), "lex sort keys must be distinct"
    return LambdaChain(rs, lam, tuple(e for _, e in keyed))


@cache
def _rho_chain(rs: RootSystem) -> LambdaChain:
    """The chain for rho, built once per root system: windows repeat it."""
    return lex_chain(rs, rs.rho)


@cache
def _block(rs: RootSystem, c: int, dual: bool) -> tuple[ChainEntry, ...]:
    """The c-th rho-chain block of the infinite chain, counted from the end
    where windows start, built once and shared by every window holding it."""
    if dual:
        # the primal block mirrored: reversed, levels negated
        return tuple(ChainEntry(e.root, -e.level) for e in reversed(_block(rs, c, False)))
    rho = rs.rho
    return tuple(
        ChainEntry(e.root, e.level - c * pairing(rho, e.root)) for e in _rho_chain(rs).entries
    )


@cache
def _rho_multiple(rs: RootSystem, k: int) -> LambdaChain:
    """The chain for k * rho, equal to ``lex_chain(rs, k * rho)``: k copies of
    the rho-chain, the j-th shifted up by j * <rho, beta^vee>.  Built once per
    (root system, k) from the shared blocks, without sorting."""
    entries = tuple(e for j in range(k) for e in _block(rs, -j, False))
    return LambdaChain(rs, tuple(k * c for c in rs.rho), entries)


def _coroot_triples(rs: RootSystem):
    """All (alpha, beta, gamma, p) with gamma^vee = alpha^vee + p beta^vee,
    alpha != beta, p a nonzero integer, all three positive roots."""
    by_cocoeffs = {r.cocoeffs: r for r in rs.positive_roots}
    height = max(sum(d) for d in by_cocoeffs)
    triples = []
    for alpha in rs.positive_roots:
        for beta in rs.positive_roots:
            if alpha == beta:
                continue
            for p in range(-height, height + 1):
                if p == 0:
                    continue
                gvee = tuple(
                    a + p * b for a, b in zip(alpha.cocoeffs, beta.cocoeffs)
                )
                gamma = by_cocoeffs.get(gvee)
                if gamma is not None:
                    triples.append((alpha, beta, gamma, p))
    return triples


def validate_chain(chain: LambdaChain) -> bool:
    """Check that ``chain`` really is a chain for its weight.

    Two things are verified: every pair ``(beta, h)`` occurs exactly once with
    the positional level bookkeeping intact, and the interlacing condition
    relating the prefix counts of any coroot triple
    ``gamma^vee = alpha^vee + p beta^vee`` holds at every occurrence of
    ``beta``.  Dual chains are checked with suffix counts instead.
    """
    rs = chain.rs
    lam = chain.lam
    seq = chain.entries

    counts: dict[Root, int] = {}
    for e in seq:
        seen = counts.get(e.root, 0)
        # k-th occurrence from the front: level k-1 primally, k dually
        expected = seen + 1 if chain.dual else seen
        if e.level != expected:
            return False
        counts[e.root] = seen + 1
    for beta in rs.positive_roots:
        if counts.get(beta, 0) != pairing(lam, beta):
            return False

    roots_only = [e.root for e in seq]
    for alpha, beta, gamma, p in _coroot_triples(rs):
        n_alpha = n_beta = n_gamma = 0
        for r in roots_only:
            # the dual convention counts the current entry too (it reverses a
            # suffix count taken in the unreversed order)
            if chain.dual:
                if r == alpha:
                    n_alpha += 1
                elif r == beta:
                    n_beta += 1
                elif r == gamma:
                    n_gamma += 1
                if r == beta and n_gamma != n_alpha + p * n_beta:
                    return False
            else:
                if r == beta and n_gamma != n_alpha + p * n_beta:
                    return False
                if r == alpha:
                    n_alpha += 1
                elif r == beta:
                    n_beta += 1
                elif r == gamma:
                    n_gamma += 1
    return True


def concat(first: LambdaChain, second: LambdaChain) -> LambdaChain:
    """Concatenate two chains over the same root system.

    The second chain's levels are shifted by ``<lam_first, beta^vee>`` so the
    occurrence bookkeeping continues across the seam.  The same shift rule
    serves the dual convention (there the roles of the summands swap, which is
    exactly what storing transformed levels requires).
    """
    if first.rs != second.rs:
        raise ValueError("cannot concatenate chains over different root systems")
    if first.dual != second.dual:
        raise ValueError("cannot concatenate a primal chain with a dual chain")
    lam1 = first.lam
    shifted = tuple(
        ChainEntry(e.root, e.level + pairing(lam1, e.root)) for e in second.entries
    )
    total = tuple(a + b for a, b in zip(lam1, second.lam, strict=True))
    return LambdaChain(first.rs, total, first.entries + shifted, first.dual)


def dual_chain(chain: LambdaChain) -> LambdaChain:
    """Reverse a chain into the opposite convention (an involution).

    Levels transform by ``l -> <lam, beta^vee> - l`` in both directions.
    """
    flipped = tuple(
        ChainEntry(e.root, pairing(chain.lam, e.root) - e.level)
        for e in reversed(chain.entries)
    )
    return LambdaChain(chain.rs, chain.lam, flipped, not chain.dual)


def window(rs: RootSystem, copies: int, dual: bool = False) -> InfChainWindow:
    """A window of ``copies`` rho-chain blocks of the infinite chain; the same
    arguments give the same window, so its entries are built once."""
    return _window(rs, copies, dual)


@cache
def _window(rs: RootSystem, copies: int, dual: bool) -> InfChainWindow:
    return InfChainWindow(rs, copies, dual)


def chain_to_json(chain) -> list[dict]:
    """JSON-ready encoding: one ``{root, level}`` object per entry, in order."""
    return [
        {"root": list(e.root.coeffs), "level": e.level} for e in chain.entries
    ]
