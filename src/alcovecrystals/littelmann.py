"""Piecewise linear path crystals over exact integer arithmetic.

Three kinds of path live here, all in fundamental-weight coordinates:

* ``finite`` paths on [0, 1], the classical model generated by a straight
  segment to a dominant weight;
* ``extended`` paths on [0, infinity), which end in an implicit ray of
  velocity rho (only the part before the ray is stored);
* ``co-extended`` paths on (-infinity, 0], which begin with an implicit
  rho-velocity ray arriving from far in the negative direction (the ray is
  the path ``t -> t * rho``).

A path is stored as one positive denominator ``den`` and the vertices at the
ends of its explicit linear pieces: integer times ``times[k] = den * t_k`` and
integer points ``points[k] = den * pi(t_k)``.  The form is canonical, so
equality and hashing compare int tuples: no piece has zero length, no two
neighbouring pieces are collinear, no rho-velocity piece touches the implicit
ray, and ``den``, the times and the points have no common factor.  The
denominators stay small because the breakpoints sigma of
Lakshmibai-Seshadri paths of shape lambda satisfy
sigma * <lambda, beta^vee> in Z (Littelmann, *Paths and crystal bases*,
1995); for a finite path of lambda, ``den`` divides the lcm of the nonzero
<lambda, beta^vee> over the positive roots beta.

In fundamental-weight coordinates the pairing with the simple coroot
alpha_i^vee is coordinate ``i - 1``, so the height profile along direction i
is that coordinate of each stored point, and the string statistics and the
operators' minimum and crossings are integer scans; :func:`strings` reads
every direction's statistics in one pass over the vertices.  Each public
function checks the direction once.  Raising and lowering
reflect a window of the path, where the height reaches its extreme value,
through the Cartan row of i; they insert at most one vertex, at the crossing
that bounds the window, rescaling the denominator when that crossing falls
between integer times.  Their results come from canonical paths, so they are
canonicalized at the window's two ends only (``_reflect``); ``_canonical``
serves the constructors and unpickling.  The co-extended kind gets its
operators by transport through :func:`dualize`, which reverses the vertices
and also couples the two unbounded kinds to each other.

:meth:`PLPath.from_vertices` takes the integer form, and ``PLPath(rs, kind,
segments)`` exact (velocity, duration) segments, turned into it; both check
the vertices in one place (``_vertices``) and refuse floats, bools and strs.
``segments``, :func:`render_path` and :func:`path_to_json` are ``Fraction``
views of the integer form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, pairwise
from math import gcd, lcm
from operator import add, sub

from .rootsys import RootSystem

__all__ = [
    "PLPath",
    "dualize",
    "e_op",
    "epsilon",
    "f_op",
    "path_to_json",
    "phi",
    "pi_infinity",
    "render_path",
    "straight_path",
    "strings",
    "weight",
    "xi_infinity",
]

KINDS = ("finite", "extended", "co-extended")

_set = object.__setattr__


def _exact(x, what: str) -> Fraction:
    if isinstance(x, (bool, float, str)):
        raise ValueError(f"{what} {x!r} is a {type(x).__name__}, not an exact rational")
    return Fraction(x)


class PLPath:
    """A piecewise linear path in canonical integer form.

    ``PLPath(rs, kind, segments)`` takes (velocity, duration) pairs of exact
    rationals; :meth:`from_vertices` takes the integer form directly.
    """

    __slots__ = ("rs", "kind", "den", "times", "points")

    def __init__(self, rs: RootSystem, kind: str, segments):
        segs = [
            (tuple(_exact(c, "velocity coordinate") for c in v), _exact(d, "duration"))
            for v, d in segments
        ]
        if any(len(v) != rs.rank for v, _ in segs):
            raise ValueError("velocity has the wrong rank")
        # every kind starts at t * rho: the origin, or the end of the ray
        t = -sum(d for _, d in segs) if kind == "co-extended" else Fraction(0)
        times, points = [t], [(t,) * rs.rank]
        for v, d in segs:
            times.append(times[-1] + d)
            points.append(tuple(p + c * d for p, c in zip(points[-1], v)))
        den = lcm(*(q.denominator for q in times), *(c.denominator for p in points for c in p))
        times = [int(q * den) for q in times]
        points = [tuple(int(c * den) for c in p) for p in points]
        _init(self, rs, kind, *_vertices(rs, kind, den, times, points))

    @classmethod
    def from_vertices(cls, rs: RootSystem, kind: str, den: int, times, points) -> "PLPath":
        """The path through ``points[k] / den`` at times ``times[k] / den``.

        The vertices need not be canonical: zero-length pieces, collinear
        neighbours, rho runs at the ray and common factors are removed.
        """
        return _init(object.__new__(cls), rs, kind, *_vertices(rs, kind, den, times, points))

    @property
    def segments(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        """The explicit pieces as (velocity, duration) pairs."""
        den = self.den
        return tuple(
            (tuple(Fraction(b - a, u - t) for a, b in zip(p, q)), Fraction(u - t, den))
            for (t, p), (u, q) in pairwise(zip(self.times, self.points))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLPath):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.den == other.den
            and self.times == other.times
            and self.points == other.points
            and self.rs == other.rs
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.den, self.times, self.points))

    def __setattr__(self, name, value):
        raise AttributeError("PLPath is immutable")

    def __reduce__(self):
        return _make, (self.rs, self.kind, self.den, self.times, self.points)

    def __repr__(self) -> str:
        return render_path(self)


def _init(path: PLPath, rs, kind, den, times, points) -> PLPath:
    _set(path, "rs", rs)
    _set(path, "kind", kind)
    _set(path, "den", den)
    _set(path, "times", times)
    _set(path, "points", points)
    return path


def _vertices(rs: RootSystem, kind: str, den, times, points):
    """The canonical form (``_canonical``) of a path's vertices, or ValueError:
    the one check of both constructors.  The type of every coordinate is
    read in one pass in C, so booleans are refused without a Python loop."""
    if kind not in KINDS:
        raise ValueError(f"unknown path kind {kind!r}")
    try:
        times, points = tuple(times), tuple(map(tuple, points))
        integers = {int}.issuperset(map(type, chain((den,), times, *points)))
    except TypeError:
        integers = False
    if not integers:
        raise ValueError("the denominator, times and points must be integers")
    if den <= 0 or not times or len(times) != len(points):
        raise ValueError("need a positive denominator and one point per time")
    if set(map(len, points)) != {rs.rank}:
        raise ValueError("a point has the wrong rank")
    if sorted(times) != list(times):
        raise ValueError("vertex times must not decrease: no piece has a negative duration")
    if points[0] != (times[0],) * rs.rank or (kind != "co-extended" and times[0] != 0):
        raise ValueError(f"a {kind} path starts at the wrong place")
    if kind == "co-extended" and times[-1] != 0:
        raise ValueError("a co-extended path must end at time 0")
    if kind == "finite" and times[-1] != den:
        total = Fraction(times[-1], den)
        raise ValueError(f"a finite path must have total duration 1, got {total}")
    return _canonical(kind, den, times, points)


def _canonical(kind: str, den: int, times, points):
    """(den, times, points) with zero-length pieces dropped, collinear
    neighbours merged, a rho piece at the implicit ray absorbed and the
    common factor divided out: the whole-path route of the constructors
    (``_vertices``) and of unpickling (``_make``).  Operator results take
    the local route of ``_reflect``."""
    ts, ps = [times[0]], [points[0]]
    last_dt, last_dp = 0, None
    for t, p in zip(times[1:], points[1:]):
        dt = t - ts[-1]
        if not dt:
            continue
        dp = [b - a for a, b in zip(ps[-1], p)]
        if last_dp is not None and all(a * last_dt == b * dt for a, b in zip(dp, last_dp)):
            ts[-1], ps[-1] = t, p
        else:
            ts.append(t)
            ps.append(p)
            last_dt, last_dp = dt, dp
    # neighbours are no longer collinear, so at most one rho piece meets the ray
    if len(ts) > 1:
        if kind == "extended" and _is_rho(ts, ps, -2):
            del ts[-1], ps[-1]
        elif kind == "co-extended" and _is_rho(ts, ps, 0):
            del ts[0], ps[0]
    g = gcd(den, *ts, *(c for p in ps for c in p))
    if g > 1:
        return (
            den // g,
            tuple(t // g for t in ts),
            tuple(tuple(c // g for c in p) for p in ps),
        )
    return den, tuple(ts), tuple(ps)


def _is_rho(times, points, k) -> bool:
    """Whether the piece from vertex ``k`` to the next has velocity rho."""
    dt = times[k + 1] - times[k]
    return all(b - a == dt for a, b in zip(points[k], points[k + 1]))


def _make(rs, kind, den, times, points) -> PLPath:
    return _init(object.__new__(PLPath), rs, kind, *_canonical(kind, den, times, points))


def straight_path(rs: RootSystem, lam) -> PLPath:
    """The path moving straight from the origin to ``lam`` in unit time."""
    return PLPath(rs, "finite", ((lam, 1),))


def pi_infinity(rs: RootSystem) -> PLPath:
    """The extended path that is nothing but the rho-velocity ray."""
    return PLPath(rs, "extended", ())


def xi_infinity(rs: RootSystem) -> PLPath:
    """The co-extended path that is nothing but the incoming rho ray."""
    return PLPath(rs, "co-extended", ())


# ---------------------------------------------------------------------------
# the height profile along a simple coroot


def _heights(path: PLPath, i: int) -> list[int]:
    """``den`` times the height along alpha_i^vee at each vertex; the public
    functions check ``i`` once, before they read it."""
    k = i - 1
    return [p[k] for p in path.points]


def _require_integral(h: int, den: int, what: str) -> int:
    q, r = divmod(h, den)
    if r:
        raise ValueError(f"{what} is not an integer; not a crystal path")
    return q


# ---------------------------------------------------------------------------
# crystal operators


def _split(den, times, points, k, level, i0):
    """Make the point where piece ``k`` (vertex k to k + 1) reaches height
    ``level`` along direction ``i0 + 1`` a vertex, scaling the integer form
    up if that point is not integral.  Returns the new denominator and the
    index of the vertex; ``times`` and ``points`` are lists, updated in
    place."""
    ta, pa = times[k], points[k]
    dt = times[k + 1] - ta
    dp = [b - a for a, b in zip(pa, points[k + 1])]
    num, q = level - pa[i0], dp[i0]
    if num == 0:
        return den, k
    if num == q:
        return den, k + 1
    g = gcd(num, q)
    num, q = num // g, q // g
    if q < 0:
        num, q = -num, -q
    scale = q // gcd(q, dt, *dp)
    if scale > 1:
        den *= scale
        times[:] = [t * scale for t in times]
        points[:] = [tuple(c * scale for c in p) for p in points]
        ta, pa, dt = times[k], points[k], dt * scale
        dp = [c * scale for c in dp]
    times.insert(k + 1, ta + dt * num // q)
    points.insert(k + 1, tuple(a + c * num // q for a, c in zip(pa, dp)))
    return den, k + 1


def _reflect(path, den, times, points, i0, lo, hi) -> PLPath:
    """Apply s_i to the stretch between vertices ``lo`` and ``hi`` relative
    to its start, and translate everything after it to stay attached.

    The result is built from a canonical parent, so it is canonicalized at
    the stretch's two ends only: s_i is linear and the tail only translated,
    so no other vertex changes whether it is collinear with its neighbours,
    ``_split`` makes no zero-length piece, and a vertex removed at ``hi`` or
    ``lo`` leaves its neighbours as they were.  What remains is a rho piece
    at the end of an extended path and the common factor.  ``times`` and
    ``points`` are the lists ``_split`` updated, and are used up here."""
    row = path.rs.cartan.matrix[i0]  # alpha_i in fundamental-weight coordinates
    base = points[lo][i0]
    moved = tuple(c * (points[hi][i0] - base) for c in row)
    out = points[: lo + 1]
    for p in points[lo + 1 : hi + 1]:
        c = p[i0] - base
        out.append(tuple(x - c * a for x, a in zip(p, row)))
    out += (tuple(map(sub, p, moved)) for p in points[hi + 1 :])
    for k in (hi, lo):
        if 0 < k < len(out) - 1 and _collinear(times, out, k):
            del times[k], out[k]
    if path.kind == "extended" and len(out) > 1 and _is_rho(times, out, -2):
        del times[-1], out[-1]
    g = gcd(den, *times, *chain.from_iterable(out))
    if g > 1:
        den, times = den // g, [t // g for t in times]
        out = [tuple(c // g for c in p) for p in out]
    return _init(object.__new__(PLPath), path.rs, path.kind, den, tuple(times), tuple(out))


def _collinear(times, points, k) -> bool:
    """Whether vertex ``k`` lies on the line through its two neighbours."""
    s, u = times[k] - times[k - 1], times[k + 1] - times[k]
    return all(
        (b - a) * u == (c - b) * s for a, b, c in zip(points[k - 1], points[k], points[k + 1])
    )


def e_op(path: PLPath, i: int) -> PLPath | None:
    """Raising operator, or None when the height never dips to -1."""
    path.rs._check_index(i)
    if path.kind == "co-extended":
        out = _lower(dualize(path), i)
        return None if out is None else dualize(out)
    return _raise(path, i)


def f_op(path: PLPath, i: int) -> PLPath | None:
    """Lowering operator; never None on the unbounded kinds."""
    path.rs._check_index(i)
    if path.kind == "co-extended":
        out = _raise(dualize(path), i)
        return None if out is None else dualize(out)
    return _lower(path, i)


def _raise(path: PLPath, i: int) -> PLPath | None:
    """``e_op`` on a finite or extended path, ``i`` already checked."""
    den = path.den
    h = _heights(path, i)
    m = min(h)
    _require_integral(m, den, "the minimal height")
    if m > -den:
        return None
    level = m + den
    first_min = h.index(m)
    # the first piece that falls below level, ending no later than first_min
    k = next(k for k in range(first_min) if h[k + 1] < level)
    times, points = list(path.times), list(path.points)
    den, lo = _split(den, times, points, k, level, i - 1)
    return _reflect(path, den, times, points, i - 1, lo, first_min + len(times) - len(h))


def _lower(path: PLPath, i: int) -> PLPath | None:
    """``f_op`` on a finite or extended path, ``i`` already checked."""
    den = path.den
    h = _heights(path, i)
    m = min(h)
    _require_integral(m, den, "the minimal height")
    level = m + den
    times, points = list(path.times), list(path.points)
    if h[-1] < level:
        if path.kind == "finite":
            return None
        # pull the needed stretch of the implicit ray into the explicit part
        extra = level - h[-1]
        times.append(times[-1] + extra)
        points.append(tuple(c + extra for c in points[-1]))
        h.append(level)
    last_min = len(h) - 1 - h[::-1].index(m)
    # the last piece that starts below level, starting no earlier than last_min
    k = next(k for k in range(len(h) - 2, -1, -1) if h[k] < level)
    den, hi = _split(den, times, points, k, level, i - 1)
    return _reflect(path, den, times, points, i - 1, last_min, hi)


# ---------------------------------------------------------------------------
# statistics


def weight(path: PLPath) -> tuple[int, ...]:
    """The weight: where the path ends up, relative to its implicit rays."""
    end = path.points[-1]
    if path.kind == "extended":
        t = path.times[-1]
        end = tuple(c - t for c in end)
    elif path.kind == "co-extended":
        end = tuple(-c for c in end)
    return tuple(_require_integral(c, path.den, "a weight coordinate") for c in end)


def strings(path: PLPath) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(epsilon, phi): two tuples with one entry per direction of
    ``index_set``, from one pass over the vertices.

    The vertices' coordinates, taken per direction (``zip(*points)``), are
    the height profiles of every direction.  Epsilon is minus the minimal
    height, or on the co-extended kind the maximal one; phi is the fall
    from the end to the minimum on a finite path and epsilon plus the
    weight's coordinate on the unbounded kinds.  ValueError if a height or
    the weight is not an integer."""
    den, kind = path.den, path.kind
    heights = tuple(zip(*path.points))
    if kind == "co-extended":
        eps = tuple(_require_integral(max(h), den, "the maximal height") for h in heights)
    else:
        lows = tuple(map(min, heights))
        eps = tuple(-_require_integral(m, den, "the minimal height") for m in lows)
    if kind != "finite":
        return eps, tuple(map(add, eps, weight(path)))
    ends = path.points[-1]
    return eps, tuple(_require_integral(e - m, den, "the height gap") for e, m in zip(ends, lows))


def epsilon(path: PLPath, i: int) -> int:
    """How many times the raising operator applies (``strings``); on the
    co-extended kind it is the maximal height and may be negative."""
    path.rs._check_index(i)
    return strings(path)[0][i - 1]


def phi(path: PLPath, i: int) -> int:
    """How many times the lowering operator applies (``strings``); on the
    unbounded kinds it is defined through the weight and may be negative."""
    path.rs._check_index(i)
    return strings(path)[1][i - 1]


# ---------------------------------------------------------------------------
# structural maps


def dualize(path: PLPath) -> PLPath:
    """The contragredient path: an involution swapping raising and lowering.

    Finite paths run backwards from where they end (reversed segments with
    negated velocities); the two unbounded kinds swap into each other keeping
    velocities, so the implicit ray changes ends.  On vertices this is time
    reversal and a point reflection, which keep the form canonical.
    """
    den, times, points = path.den, path.times, path.points
    if path.kind == "finite":
        kind, offset, end = "finite", den, points[-1]
        points = tuple(tuple(a - b for a, b in zip(p, end)) for p in reversed(points))
    else:
        if path.kind == "extended":
            kind, t = "co-extended", times[-1]
            end = tuple(c - t for c in points[-1])
        else:
            kind, end = "extended", points[-1]
        offset = 0
        points = tuple(tuple(b - a for a, b in zip(p, end)) for p in reversed(points))
    times = tuple(offset - t for t in reversed(times))
    return _init(object.__new__(PLPath), path.rs, kind, den, times, points)


# ---------------------------------------------------------------------------
# rendering


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_path(path: PLPath) -> str:
    parts = [
        "(" + ", ".join(_fmt(c) for c in v) + ") for " + _fmt(d)
        for v, d in path.segments
    ]
    body = " then ".join(parts) if parts else "nothing"
    if path.kind == "extended":
        return f"extended: {body} then the rho ray"
    if path.kind == "co-extended":
        return f"co-extended: the rho ray then {body}"
    return f"finite: {body}"


def path_to_json(path: PLPath) -> dict:
    return {
        "kind": path.kind,
        "segments": [
            {"velocity": [_fmt(c) for c in v], "duration": _fmt(d)}
            for v, d in path.segments
        ],
    }
