"""Chains of positive roots with levels: the sorted hyperplane sequences.

A chain for a dominant weight ``lam`` lists every pair ``(beta, h)`` with
``0 <= h < <lam, beta^vee>`` in some admissible total order.  The reversed
("dual") variant stores levels ``l~ = <lam, beta^vee> - l`` instead and is
walked back to front; both variants share the entry type so downstream code
can handle them uniformly.

Every chain is walked in one order: position p is walk index u = p on a
primal chain and u = len - 1 - p on a dual chain or window
(:meth:`LambdaChain.walk_indices`), and the tables the alcove model reads are
indexed by walk index, so a dual chain's equal its primal chain's.

Windows truncate the one-sided infinite chain built from copies of the
``rho`` chain; all window levels are negative (primal) or positive (dual).
A window knows its own layout: which block holds a position
(:meth:`InfChainWindow.deepest_block`) and how far positions move when the
same foldings are read in a wider window or in the chain for a multiple of
``rho`` (:meth:`InfChainWindow.offset`), so no other module computes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import lcm
from operator import index

from .rootsys import Root, RootSystem, _kept, pairing

__all__ = [
    "ChainEntry",
    "InfChainWindow",
    "LambdaChain",
    "chain_to_json",
    "dual_chain",
    "lex_chain",
    "window",
]


def _integer(value, what: str) -> int:
    """``value`` as an int, refusing booleans, floats, strings and other
    non-integers instead of truncating them."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _dominant(rs: RootSystem, lam) -> tuple:
    """``lam`` as a tuple, or ValueError unless it is a dominant integral
    weight of ``rs``: one non-negative int per simple root, booleans
    refused."""
    lam = tuple(lam)
    if len(lam) != rs.rank or any(type(c) is bool or not isinstance(c, int) or c < 0 for c in lam):
        raise ValueError(f"weight {lam} is not dominant integral")
    return lam


@dataclass(frozen=True)
class ChainEntry:
    root: Root
    level: int


class _RootIds:
    """What chains and windows share: their length, the conversion between
    positions and walk indices, and three tables indexed by walk index: their roots as root
    indices, the walk indices of each positive root, which the signature
    reading bisects (``alcove._reading``), and the multiplier each entry's
    folded root carries in a weight.  Each table is built on its first
    read, never when the chain or window is made."""

    def __len__(self) -> int:
        return len(self.entries)

    def walk_indices(self, positions) -> tuple[int, ...]:
        """The walk indices of increasing ``positions``, increasing: p on a
        primal chain (the tuple itself), len - 1 - p on a dual chain or
        window.  The map is its own inverse, so it is also ``positions_at``."""
        if not self.dual:
            return tuple(positions)
        last = len(self.entries) - 1
        return tuple([last - p for p in reversed(positions)])

    positions_at = walk_indices

    @_kept
    def root_ids(self) -> bytes:
        """The index of each entry's root (see ``RootSystem.roots``), one byte
        per entry, in walk order."""
        index = self.rs.root_index
        walked = reversed(self.entries) if self.dual else self.entries
        return bytes(index(e.root.coeffs) for e in walked)

    @_kept
    def occurrences(self) -> tuple[tuple[int, ...], ...]:
        """The walk indices of each positive root, increasing, at the root's
        index: together they partition the chain's walk indices."""
        lists = [[] for _ in self.rs.positive_roots]
        for u, r in enumerate(self.root_ids):
            lists[r].append(u)
        return tuple(map(tuple, lists))

    @_kept
    def fold_levels(self) -> tuple[int, ...]:
        """The fold level of each entry, in walk order: ``l - <lam, beta^vee>``
        on a primal chain, ``l`` on a dual chain and on windows (whose weight
        ``lam`` is 0).  A folding at the entry adds that multiple of its
        folded root to the element's weight (``AlcoveElement.wt``)."""
        if self.dual:
            return tuple(e.level for e in reversed(self.entries))
        return tuple(e.level - pairing(self.lam, e.root) for e in self.entries)


@dataclass(frozen=True)
class LambdaChain(_RootIds):
    """A chain for the dominant weight ``lam`` over the root system ``rs``.

    ``dual`` marks the reversed convention (levels already transformed).
    Positions are the 0-based indices into ``entries``.
    """

    rs: RootSystem
    lam: tuple
    entries: tuple[ChainEntry, ...]
    dual: bool = False
    is_window = False


@dataclass(frozen=True)
class InfChainWindow(_RootIds):
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
    is_window = True

    def __post_init__(self) -> None:
        if _integer(self.copies, "window copies") < 1:
            raise ValueError("window needs at least one copy")

    @_kept
    def entries(self) -> tuple[ChainEntry, ...]:
        blocks = range(1, self.copies + 1) if self.dual else range(self.copies, 0, -1)
        return tuple(e for c in blocks for e in _block(self.rs, c, self.dual))

    @property
    def lam(self) -> tuple:
        """The weight 0, as the limit of the chains for k * rho."""
        return (0,) * self.rs.rank

    @_kept
    def _block_len(self) -> int:
        return len(_rho_chain(self.rs))

    def deepest_block(self, positions) -> int:
        """The farthest block holding any of ``positions``, in increasing
        order, or 0 for none: blocks count from 1 at the window's fixed end."""
        if not positions:
            return 0
        if self.dual:
            return positions[-1] // self._block_len + 1
        return self.copies - positions[0] // self._block_len

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
    nothing.  The sort keys are those vectors times the lcm of the pairings:
    the same order, in integers.  Raises ValueError on a non-dominant weight.
    """
    lam = _dominant(rs, lam)
    pairings = [(beta, pairing(lam, beta)) for beta in rs.positive_roots]
    scale = lcm(*(m for _, m in pairings if m))
    keyed = []
    for beta, m in pairings:
        if m:
            q = scale // m
            coords = tuple(q * c for c in beta.cocoeffs)
            keyed += [((q * h, *coords), ChainEntry(beta, h)) for h in range(m)]
    keyed.sort(key=lambda pair: pair[0])
    keys = [k for k, _ in keyed]
    assert len(set(keys)) == len(keys), "lex sort keys must be distinct"
    return LambdaChain(rs, lam, tuple(e for _, e in keyed))


@cache
def _rho_chain(rs: RootSystem) -> LambdaChain:
    """The chain for rho, built once per root system: windows repeat it."""
    return lex_chain(rs, rs.rho)


# unbounded, as a chain for k * rho reads k blocks in turn: a smaller LRU rebuilds them all
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


@lru_cache(maxsize=32)
def _rho_multiple(rs: RootSystem, k: int) -> LambdaChain:
    """The chain for k * rho, equal to ``lex_chain(rs, k * rho)``: k copies of
    the rho-chain, the j-th shifted up by j * <rho, beta^vee>.  Built from the
    shared blocks, without sorting; the latest few are kept."""
    entries = tuple(e for j in range(k) for e in _block(rs, -j, False))
    return LambdaChain(rs, tuple(k * c for c in rs.rho), entries)


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


# typed, so that 3.0 is a key of its own and rejected rather than served 3's window
@lru_cache(maxsize=None, typed=True)
def _window(rs: RootSystem, copies: int, dual: bool) -> InfChainWindow:
    return InfChainWindow(rs, copies, dual)


def chain_to_json(chain) -> list[dict]:
    """JSON-ready encoding: one ``{root, level}`` object per entry, in order."""
    return [
        {"root": list(e.root.coeffs), "level": e.level} for e in chain.entries
    ]
