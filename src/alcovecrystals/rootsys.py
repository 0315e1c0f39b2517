"""Finite crystallographic root systems over exact integer arithmetic.

Coordinates are fixed once and for all:

* weights live in fundamental-weight coordinates (lambda = sum c_i Lambda_i),
* roots live in simple-root coordinates,
* coroots live in simple-coroot coordinates.

With the Cartan matrix ``a[i][j] = <alpha_i, alpha_j^vee>`` these three systems
talk to each other through integer matrices only, so nothing in this module
ever leaves exact arithmetic.

Each root has an index: its place in :attr:`RootSystem.roots`, the positive
roots followed by their negatives in the same order.  A Weyl element is the
permutation it makes of those indices (the action on the roots is faithful),
stored as a 256-byte ``bytes.translate`` table, so composing two elements,
moving a root and folding a chain of root indices are each one ``translate``
or one index, and the length counts the positive roots sent to negatives
(Humphreys, *Reflection Groups and Coxeter Groups*, 1.6-1.7).  Every root
index has to fit in a byte, so a root system may have at most 128 positive
roots; every named type does.  The library builds no :class:`WeylElement`:
the alcove model walks the raw tables of :attr:`RootSystem.reflections` and
keeps each fold's end product as the 2|Phi+| root-index bytes of its
permutation.  Only the tests and the benchmark's tracer use
:class:`WeylElement` and the methods that build and measure it; they stay
until the tracer tolerates their deletion.

The reflections' permutations sit in one tuple indexed by root index
(:attr:`RootSystem.reflections`), built on first use from the simple
reflections by conjugation, s_{s_j beta} = s_j s_beta s_j.

Each root's fundamental-weight coordinates (A^T c, c its simple-root
coordinates) sit in a second tuple indexed the same way
(:attr:`RootSystem.root_weights`), built on first use, so a weight summed
over folded roots or stepped along an edge adds rows of that table instead
of converting coordinates per root.  The simple roots' indices sit in a
third, so :meth:`RootSystem.simple_index` is an index check and a lookup.
One ``translate`` table per direction marks where a chain of root indices
passes through plus or minus that simple root
(:attr:`RootSystem.letter_masks`), built on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import mul

__all__ = [
    "CartanDatum",
    "Root",
    "RootSystem",
    "WeylElement",
    "cartan_matrix",
    "pairing",
    "root_string",
    "weight_neg",
]

IVec = tuple[int, ...]
IMat = tuple[IVec, ...]


def _freeze(rows) -> IMat:
    return tuple(tuple(int(x) for x in row) for row in rows)


class _kept:
    """A value computed on its first read and kept in the instance
    ``__dict__``, which later reads find first: ``functools.cached_property``
    without the lock CPython 3.11 takes on every first read.  The package's
    one caching descriptor."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class CartanDatum:
    """A generalized Cartan matrix, rows indexed by simple roots.

    Entry ``matrix[i][j]`` is the pairing of the i-th simple root with the
    j-th simple coroot.  Construction checks the shape axioms (2 on the
    diagonal, nonpositive integers off it, symmetric zero pattern); whether
    the matrix is of finite type is only discovered when the root closure
    is computed.
    """

    matrix: IMat

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        n = len(self.matrix)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        for i, row in enumerate(self.matrix):
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
            if row[i] != 2:
                raise ValueError("Cartan matrix diagonal entries must equal 2")
            for j, a in enumerate(row):
                if i == j:
                    continue
                if a > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (a == 0) != (self.matrix[j][i] == 0):
                    raise ValueError("Cartan matrix zero pattern must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def simply_laced(self) -> bool:
        """Whether every off-diagonal entry is 0 or -1."""
        return all(
            a in (0, -1) for i, row in enumerate(self.matrix) for j, a in enumerate(row) if i != j
        )


_TYPE_RE = re.compile(r"^([A-G])\s*(\d+)$")


def _line(first: int, last: int) -> list:
    """The simple bonds of the Dynkin path first - first+1 - ... - last."""
    return [(i, i + 1, 1) for i in range(first, last)]


#: per family: the ranks it exists in, the refusal for any other rank from 1
#: to 8, and its Dynkin bonds at rank n in Bourbaki numbering
_FAMILIES = {
    "A": (range(1, 9), None, lambda n: _line(1, n)),
    "B": (range(2, 9), "type B needs rank >= 2", lambda n: _line(1, n - 1) + [(n - 1, n, 2)]),
    "C": (range(2, 9), "type C needs rank >= 2", lambda n: _line(1, n - 1) + [(n, n - 1, 2)]),
    "D": (range(3, 9), "type D needs rank >= 3", lambda n: _line(1, n - 1) + [(n - 2, n, 1)]),
    # node 2 hangs off node 4 of the path 1 - 3 - 4 - ... - n
    "E": (
        (6, 7, 8),
        "type E exists for ranks 6, 7, 8",
        lambda n: [(1, 3, 1), (2, 4, 1), (3, 4, 1)] + _line(4, n),
    ),
    "F": ((4,), "type F exists for rank 4", lambda n: [(1, 2, 1), (2, 3, 2), (3, 4, 1)]),
    "G": ((2,), "type G exists for rank 2", lambda n: [(2, 1, 3)]),
}


def cartan_matrix(type_string: str) -> IMat:
    """Return the Cartan matrix of a named finite type, e.g. ``"A3"`` or ``"G2"``.

    Supported families: A(n>=1), B(n>=2), C(n>=2), D(n>=3), E6/E7/E8, F4, G2,
    with rank at most 8.  Raises ValueError for anything else.

    One table (``_FAMILIES``) gives each family's ranks and its Dynkin bonds
    in Bourbaki's numbering (*Lie Groups and Lie Algebras*, Ch. VI, Plates
    I-IX): a bond ``(i, j, m)`` joins simple roots i and j with
    ``a_ij = -m`` and ``a_ji = -1``, so for m > 1 the root alpha_j is the
    short one.  The matrix is 2 on the diagonal, the bonds' entries off it,
    and 0 elsewhere.
    """
    match = _TYPE_RE.match(type_string.strip())
    if not match:
        raise ValueError(f"unknown type string: {type_string!r}")
    family, n = match.group(1), int(match.group(2))
    if n < 1 or n > 8:
        raise ValueError(f"unsupported rank in type string: {type_string!r}")
    ranks, refusal, bonds = _FAMILIES[family]
    if n not in ranks:
        raise ValueError(refusal)
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, m in bonds(n):
        rows[i - 1][j - 1], rows[j - 1][i - 1] = -m, -1
    return _freeze(rows)


@dataclass(frozen=True)
class Root:
    """A root together with its coroot.

    ``coeffs`` are the coordinates in the simple-root basis and ``cocoeffs``
    the coordinates of the associated coroot in the simple-coroot basis.
    """

    coeffs: IVec
    cocoeffs: IVec

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs), tuple(-d for d in self.cocoeffs))


def pairing(weight, root: Root):
    """Evaluate ``<weight, beta^vee>`` for the coroot attached to ``root``.

    In fundamental-weight coordinates this is a plain dot product with the
    coroot coordinates.
    """
    return sum(w * d for w, d in zip(weight, root.cocoeffs, strict=True))


def weight_neg(u):
    return tuple(-a for a in u)


def root_string(root: Root) -> str:
    """Human-readable form of a root in the simple-root basis, e.g. ``α1+2α2``."""
    parts: list[str] = []
    for k, c in enumerate(root.coeffs, start=1):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        coef = "" if mag == 1 else str(mag)
        parts.append(f"{sign}{coef}α{k}")
    return "".join(parts) if parts else "0"


@dataclass(frozen=True, slots=True)
class WeylElement:
    """A Weyl group element as the permutation it makes of the root indices of
    ``rs``: ``perm[k]`` is the index of the image of root ``k``, and ``perm``
    is the identity past the roots."""

    perm: bytes
    rs: RootSystem = field(compare=False)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition: ``(w1 * w2)(x) = w1(w2(x))``."""
        return WeylElement(other.perm.translate(self.perm), self.rs)

    def apply_root_coeffs(self, coeffs) -> IVec:
        rs = self.rs
        return rs.roots[self.perm[rs.root_index(coeffs)]].coeffs

    def apply_weight(self, weight):
        """``w(weight)``, whose i-th coordinate is ``<weight, w^-1(alpha_i)^vee>``."""
        rs = self.rs
        return tuple(
            pairing(weight, rs.roots[self.perm.index(rs.simple_index(i))]) for i in rs.index_set
        )


class RootSystem:
    """A finite root system built from a Cartan datum.

    The positive roots are generated by closing the simple roots under simple
    reflections; the closure aborts with ``ValueError("infinite root system")``
    once the count exceeds ``4 * rank**2``, which is above every finite type of
    the supported ranks, and with a ValueError past 128 positive roots,
    where root indices stop fitting in a byte.
    """

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self.rank = cartan.rank
        #: operator/reflection indices accepted by the public API (1-based)
        self.index_set = tuple(range(1, self.rank + 1))

    @classmethod
    def from_type(cls, type_string: str) -> "RootSystem":
        return cls(CartanDatum(cartan_matrix(type_string)))

    @classmethod
    def from_matrix(cls, rows) -> "RootSystem":
        return cls(CartanDatum(_freeze(rows)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.cartan == other.cartan

    def __hash__(self) -> int:
        return hash(self.cartan)

    def __repr__(self) -> str:
        return f"RootSystem(rank={self.rank})"

    # -- roots ---------------------------------------------------------------

    @_kept
    def simple_root_list(self) -> tuple[Root, ...]:
        n = self.rank
        unit = lambda i: tuple(int(j == i) for j in range(n))  # noqa: E731
        return tuple(Root(unit(i), unit(i)) for i in range(n))

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, ``i`` running through ``index_set`` (1-based)."""
        self._check_index(i)
        return self.simple_root_list[i - 1]

    def _check_index(self, i: int) -> None:
        # booleans and floats compare equal to integers, so test the type first
        if isinstance(i, bool) or not isinstance(i, int) or i not in self.index_set:
            raise ValueError(f"index {i!r} outside index set {self.index_set}")

    def _reflect_pair(self, i0: int, coeffs: IVec, cocoeffs: IVec) -> tuple[IVec, IVec]:
        # simple reflection s_{i0} (0-based index) on a (root, coroot) pair
        a = self.cartan.matrix
        n = self.rank
        cpair = sum(coeffs[j] * a[j][i0] for j in range(n))
        dpair = sum(a[i0][j] * cocoeffs[j] for j in range(n))
        c2 = list(coeffs)
        d2 = list(cocoeffs)
        c2[i0] -= cpair
        d2[i0] -= dpair
        return tuple(c2), tuple(d2)

    @_kept
    def positive_roots(self) -> tuple[Root, ...]:
        """All positive roots, sorted by height then lexicographically.

        Raises ValueError("infinite root system") if the closure does not
        terminate within the finite-type bound, and ValueError if it ends
        with more than 128 roots.
        """
        bound = 4 * self.rank * self.rank
        seen: dict[IVec, IVec] = {r.coeffs: r.cocoeffs for r in self.simple_root_list}
        frontier = list(seen.items())
        while frontier:
            nxt: list[tuple[IVec, IVec]] = []
            for coeffs, cocoeffs in frontier:
                for i0 in range(self.rank):
                    c2, d2 = self._reflect_pair(i0, coeffs, cocoeffs)
                    if all(x >= 0 for x in c2) and c2 not in seen:
                        seen[c2] = d2
                        nxt.append((c2, d2))
            if len(seen) > bound:
                raise ValueError("infinite root system")
            frontier = nxt
        roots = [Root(c, d) for c, d in seen.items()]
        if len(roots) > 128:  # root indices must fit in a byte
            raise ValueError(f"{len(roots)} positive roots: at most 128 are supported")
        roots.sort(key=lambda r: (r.height, r.coeffs))
        return tuple(roots)

    @_kept
    def roots(self) -> tuple[Root, ...]:
        """Every root at its index: the positive roots, then their negatives
        in the same order, so ``-roots[k]`` is ``roots[k + len(positive_roots)]``."""
        return self.positive_roots + tuple(-r for r in self.positive_roots)

    @_kept
    def _index(self) -> dict[IVec, int]:
        return {r.coeffs: k for k, r in enumerate(self.roots)}

    def root_index(self, coeffs) -> int:
        """The index of the root with the given simple-root coordinates."""
        key = tuple(int(c) for c in coeffs)
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"{key} is not a root") from None

    def root_from_coeffs(self, coeffs) -> Root:
        """Look up the root with the given simple-root coordinates."""
        return self.roots[self.root_index(coeffs)]

    @_kept
    def _simple_indices(self) -> tuple[int, ...]:
        return tuple(self._index[r.coeffs] for r in self.simple_root_list)

    def simple_index(self, i: int) -> int:
        """The index of the i-th simple root, ``i`` running through ``index_set``."""
        # checked first: True would index the table as 1
        self._check_index(i)
        return self._simple_indices[i - 1]

    @property
    def rho(self) -> IVec:
        return (1,) * self.rank

    def root_in_weight_coords(self, root: Root):
        """Coordinates of a root in the fundamental-weight basis (A^T c), read
        from :attr:`root_weights`."""
        return self.root_weights[self.root_index(root.coeffs)]

    @_kept
    def root_weights(self) -> tuple[IVec, ...]:
        """Each root in fundamental-weight coordinates, at the root's index:
        A^T c for the simple-root coordinates c, so the i-th coordinate is
        <root, alpha_i^vee>."""
        cols = tuple(zip(*self.cartan.matrix))
        return tuple(tuple(sum(map(mul, col, r.coeffs)) for col in cols) for r in self.roots)

    # -- reflections ---------------------------------------------------------

    def reflect(self, root: Root, weight):
        """Apply the reflection through ``root`` to a weight."""
        return self.affine_reflect(root, 0, weight)

    def affine_reflect(self, root: Root, level: int, weight):
        """Reflection through the hyperplane ``<., root^vee> = level``."""
        rw = self.root_in_weight_coords(root)
        k = pairing(weight, root) - level
        return tuple(w - k * x for w, x in zip(weight, rw, strict=True))

    # -- Weyl group ----------------------------------------------------------

    def identity_element(self) -> WeylElement:
        return self._identity_element

    @_kept
    def _identity_element(self) -> WeylElement:
        return WeylElement(bytes(range(256)), self)

    @_kept
    def reflections(self) -> tuple[bytes, ...]:
        """The permutation of the reflection through each root, at the root's
        index (gamma -> gamma - <gamma, beta^vee> beta).  Each positive root
        beta past the simple ones, which come first, has a simple s_j taking
        it to a lower root, and s_beta = s_j s_{s_j beta} s_j."""
        simple = [
            bytes(self._index[self._reflect_pair(i0, g.coeffs, g.cocoeffs)[0]] for g in self.roots)
            + bytes(range(len(self.roots), 256))
            for i0 in range(self.rank)
        ]
        table = [simple[self.roots[k].coeffs.index(1)] for k in range(self.rank)]
        for k in range(self.rank, len(self.positive_roots)):
            s = next(s for s in simple if s[k] < k)
            table.append(s.translate(table[s[k]]).translate(s))
        return tuple(table) * 2  # -beta has the reflection of beta

    def reflection(self, root: Root) -> WeylElement:
        """The Weyl element of the reflection through ``root``: it sends each
        root gamma to gamma - <gamma, root^vee> root."""
        return WeylElement(self.reflections[self._index[root.coeffs]], self)

    def simple_reflection(self, i: int) -> WeylElement:
        return WeylElement(self.reflections[self.simple_index(i)], self)

    @_kept
    def _negative(self) -> bytes:
        """The translate table sending negative root indices to 1, others to 0."""
        return bytes(k >= len(self.positive_roots) for k in range(256))

    @_kept
    def letter_masks(self) -> dict[int, bytes]:
        """For each i in ``index_set``, the translate table sending the indices
        of plus and minus the i-th simple root to 1 and every other index to
        0, so one ``translate`` marks where a chain of root indices passes
        through them."""
        npos = len(self.positive_roots)
        masks = {}
        for i in self.index_set:
            alpha = self.simple_index(i)
            masks[i] = bytes(k in (alpha, alpha + npos) for k in range(256))
        return masks

    def length(self, w: WeylElement) -> int:
        """Coxeter length: the number of positive roots sent to negatives."""
        return w.perm[: len(self.positive_roots)].translate(self._negative).count(1)

    def is_cover(self, w: WeylElement, root: Root) -> bool:
        """Whether right multiplication by the reflection of ``root`` is a
        Bruhat cover, i.e. lengthens ``w`` by exactly one."""
        return self.length(w * self.reflection(root)) == self.length(w) + 1
