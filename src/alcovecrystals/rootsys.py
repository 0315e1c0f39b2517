"""Finite crystallographic root systems over exact integer arithmetic.

Coordinates are fixed once and for all:

* weights live in fundamental-weight coordinates (lambda = sum c_i Lambda_i),
* roots live in simple-root coordinates,
* coroots live in simple-coroot coordinates.

With the Cartan matrix ``a[i][j] = <alpha_i, alpha_j^vee>`` these three systems
talk to each other through integer matrices only, so nothing in this module
ever leaves exact arithmetic.  Weyl group elements are stored as a pair of
integer matrices (action on root coordinates, action on weight coordinates).

A root system memoizes what it learns about each Weyl element it meets, keyed
by the element's root matrix (the action on roots is faithful): the element's
action on the roots as a dict between coefficient tuples, its length, and its
products with reflections.  The tables fill lazily, on first use, and hold at
most ``|W|`` entries each (at most ``|W| * |roots|`` products), so folding a
chain costs dict lookups instead of matrix products.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
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


def _mat_vec(m: IMat, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def _mat_mul(m1: IMat, m2: IMat) -> IMat:
    cols = tuple(zip(*m2))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in m1)


def _identity(n: int) -> IMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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


def cartan_matrix(type_string: str) -> IMat:
    """Return the Cartan matrix of a named finite type, e.g. ``"A3"`` or ``"G2"``.

    Supported families: A(n>=1), B(n>=2), C(n>=2), D(n>=3), E6/E7/E8, F4, G2,
    with rank at most 8.  Raises ValueError for anything else.
    """
    m = _TYPE_RE.match(type_string.strip())
    if not m:
        raise ValueError(f"unknown type string: {type_string!r}")
    family, n = m.group(1), int(m.group(2))
    if n < 1 or n > 8:
        raise ValueError(f"unsupported rank in type string: {type_string!r}")

    def chain(size: int) -> list[list[int]]:
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = 2
            if i + 1 < size:
                rows[i][i + 1] = -1
                rows[i + 1][i] = -1
        return rows

    if family == "A":
        return _freeze(chain(n))
    if family == "B":
        if n < 2:
            raise ValueError("type B needs rank >= 2")
        rows = chain(n)
        rows[n - 2][n - 1] = -2
        return _freeze(rows)
    if family == "C":
        if n < 2:
            raise ValueError("type C needs rank >= 2")
        rows = chain(n)
        rows[n - 1][n - 2] = -2
        return _freeze(rows)
    if family == "D":
        if n < 3:
            raise ValueError("type D needs rank >= 3")
        rows = chain(n - 1)
        for row in rows:
            row.append(0)
        rows.append([0] * n)
        rows[n - 1][n - 1] = 2
        rows[n - 3][n - 1] = -1
        rows[n - 1][n - 3] = -1
        rows[n - 2][n - 1] = 0
        rows[n - 1][n - 2] = 0
        return _freeze(rows)
    if family == "E":
        if n not in (6, 7, 8):
            raise ValueError("type E exists for ranks 6, 7, 8")
        # Bourbaki numbering: node 2 hangs off node 4 of the chain 1-3-4-5-...
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 2
        bonds = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, n)]
        for i, j in bonds:
            rows[i - 1][j - 1] = -1
            rows[j - 1][i - 1] = -1
        return _freeze(rows)
    if family == "F":
        if n != 4:
            raise ValueError("type F exists for rank 4")
        return _freeze([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    if family == "G":
        if n != 2:
            raise ValueError("type G exists for rank 2")
        return _freeze([[2, -1], [-3, 2]])
    raise ValueError(f"unknown type string: {type_string!r}")


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


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as its matrices on root and weight coordinates."""

    rmat: IMat
    wmat: IMat

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition: ``(w1 * w2)(x) = w1(w2(x))``."""
        return WeylElement(_mat_mul(self.rmat, other.rmat), _mat_mul(self.wmat, other.wmat))

    def apply_root_coeffs(self, coeffs) -> IVec:
        return _mat_vec(self.rmat, coeffs)

    def apply_weight(self, weight):
        return _mat_vec(self.wmat, weight)


class RootSystem:
    """A finite root system built from a Cartan datum.

    The positive roots are generated by closing the simple roots under simple
    reflections; the closure aborts with ``ValueError("infinite root system")``
    once the count exceeds ``4 * rank**2``, which is above every finite type of
    the supported ranks.
    """

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self.rank = cartan.rank
        #: operator/reflection indices accepted by the public API (1-based)
        self.index_set = tuple(range(1, self.rank + 1))
        # root matrix -> what is known about that Weyl element, filled lazily
        self._weyl: dict[IMat, _WeylMemo] = {}

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

    @cached_property
    def simple_root_list(self) -> tuple[Root, ...]:
        n = self.rank
        unit = lambda i: tuple(int(j == i) for j in range(n))  # noqa: E731
        return tuple(Root(unit(i), unit(i)) for i in range(n))

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, ``i`` running through ``index_set`` (1-based)."""
        self._check_index(i)
        return self.simple_root_list[i - 1]

    def _check_index(self, i: int) -> None:
        if i not in self.index_set:
            raise ValueError(f"index {i} outside index set {self.index_set}")

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

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        """All positive roots, sorted by height then lexicographically.

        Raises ValueError("infinite root system") if the closure does not
        terminate within the finite-type bound.
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
        roots.sort(key=lambda r: (r.height, r.coeffs))
        return tuple(roots)

    @cached_property
    def _root_table(self) -> dict[IVec, Root]:
        table = {}
        for r in self.positive_roots:
            table[r.coeffs] = r
            table[(-r).coeffs] = -r
        return table

    def root_from_coeffs(self, coeffs) -> Root:
        """Look up the root with the given simple-root coordinates."""
        key = tuple(int(c) for c in coeffs)
        try:
            return self._root_table[key]
        except KeyError:
            raise ValueError(f"{key} is not a root") from None

    @property
    def rho(self) -> IVec:
        return (1,) * self.rank

    def root_in_weight_coords(self, root: Root):
        """Coordinates of a root in the fundamental-weight basis (A^T c)."""
        return self._weight_coords(root.coeffs)

    def _weight_coords(self, coeffs) -> IVec:
        """A^T c: simple-root coordinates in the fundamental-weight basis."""
        return tuple(sum(map(mul, col, coeffs)) for col in zip(*self.cartan.matrix))

    # -- reflections ---------------------------------------------------------

    def reflect(self, root: Root, weight):
        """Apply the reflection through ``root`` to a weight."""
        rw = self.root_in_weight_coords(root)
        k = pairing(weight, root)
        return tuple(w - k * x for w, x in zip(weight, rw, strict=True))

    def affine_reflect(self, root: Root, level: int, weight):
        """Reflection through the hyperplane ``<., root^vee> = level``."""
        rw = self.root_in_weight_coords(root)
        k = pairing(weight, root) - level
        return tuple(w - k * x for w, x in zip(weight, rw, strict=True))

    # -- Weyl group ----------------------------------------------------------

    def identity_element(self) -> WeylElement:
        return self._identity_element

    @cached_property
    def _identity_element(self) -> WeylElement:
        eye = _identity(self.rank)
        return WeylElement(eye, eye)

    @cached_property
    def _reflections(self) -> dict[IVec, WeylElement]:
        """The reflection of every root, keyed by the root's coordinates."""
        a = self.cartan.matrix
        n = self.rank
        table = {}
        for b, root in self._root_table.items():
            d = root.cocoeffs
            ad = tuple(sum(a[j][k] * d[k] for k in range(n)) for j in range(n))
            atb = tuple(sum(b[j] * a[j][i] for j in range(n)) for i in range(n))
            rmat = tuple(
                tuple(int(k == j) - b[k] * ad[j] for j in range(n)) for k in range(n)
            )
            wmat = tuple(
                tuple(int(k == j) - atb[k] * d[j] for j in range(n)) for k in range(n)
            )
            table[b] = WeylElement(rmat, wmat)
        return table

    def reflection(self, root: Root) -> WeylElement:
        """The Weyl element of the reflection through ``root``."""
        return self._reflections[root.coeffs]

    def simple_reflection(self, i: int) -> WeylElement:
        self._check_index(i)
        return self.reflection(self.simple_root_list[i - 1])

    def _memo(self, w: WeylElement) -> "_WeylMemo":
        memo = self._weyl.get(w.rmat)
        if memo is None:
            memo = self._weyl[w.rmat] = _WeylMemo(w)
        return memo

    def root_action(self, w: WeylElement) -> dict[IVec, IVec]:
        """The action of ``w`` on the roots, memoized: each root's coefficient
        tuple maps to this root system's own tuple for its image."""
        memo = self._memo(w)
        if memo.action is None:
            table = self._root_table
            memo.action = {c: table[w.apply_root_coeffs(c)].coeffs for c in table}
        return memo.action

    def times_reflection(self, w: WeylElement, root: Root) -> WeylElement:
        """``w * reflection(root)``, memoized; equal products are one object."""
        products = self._memo(w).products
        out = products.get(root.coeffs)
        if out is None:
            out = self._memo(w * self.reflection(root)).element
            products[root.coeffs] = out
        return out

    def length(self, w: WeylElement) -> int:
        """Coxeter length: the number of positive roots sent to negatives."""
        memo = self._memo(w)
        if memo.length is None:
            action = self.root_action(w)
            memo.length = sum(
                any(c < 0 for c in action[r.coeffs]) for r in self.positive_roots
            )
        return memo.length

    def is_cover(self, w: WeylElement, root: Root) -> bool:
        """Whether right multiplication by the reflection of ``root`` is a
        Bruhat cover, i.e. lengthens ``w`` by exactly one."""
        return self.length(self.times_reflection(w, root)) == self.length(w) + 1


class _WeylMemo:
    """What a root system knows about one Weyl element: the first object met
    with its root matrix, its action on the roots, its length, and its
    products with reflections keyed by root coefficients."""

    __slots__ = ("element", "action", "length", "products")

    def __init__(self, element: WeylElement):
        self.element = element
        self.action: dict[IVec, IVec] | None = None
        self.length: int | None = None
        self.products: dict[IVec, WeylElement] = {}
