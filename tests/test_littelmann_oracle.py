"""The integer path model against a Fraction reference model.

The reference works on (velocity, duration) segments of ``Fraction``s and
recomputes the height profile from them for every call: breakpoints, the
minimum, crossings, a split and reflected segment list, and the same
normalization (zero durations dropped, equal neighbours merged, rho runs at
the ray absorbed).  It reads a path only through its ``segments`` view and
shares no code with ``littelmann``.  Every path of the enumerated path
crystals is checked against it for every operator and statistic, and its
integer vertices against the reference's points at the vertex times.  The
``segments`` view cannot see a common factor left undivided, so each
operator result is also checked to be its own canonical integer form.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm

import pytest

from alcovecrystals import crystalgraph as cg
from alcovecrystals import littelmann as lp
from alcovecrystals.rootsys import RootSystem, pairing

Q = Fraction


# ---------------------------------------------------------------------------
# the reference model: a path is (rs, kind, segments)


def ref_normalize(rs, kind, segments):
    segs = []
    for velocity, duration in segments:
        d = Q(duration)
        if d == 0:
            continue
        v = tuple(Q(c) for c in velocity)
        if segs and segs[-1][0] == v:
            segs[-1] = (v, segs[-1][1] + d)
        else:
            segs.append((v, d))
    rho = (Q(1),) * rs.rank
    if kind == "extended":
        while segs and segs[-1][0] == rho:
            segs.pop()
    elif kind == "co-extended":
        while segs and segs[0][0] == rho:
            segs.pop(0)
    return tuple(segs)


def ref_duration(segs):
    return sum((d for _, d in segs), Q(0))


def ref_start(rs, kind, segs):
    t = -ref_duration(segs) if kind == "co-extended" else Q(0)
    return t, (t,) * rs.rank


def ref_breakpoints(rs, kind, segs, i):
    alpha = rs.simple_root(i)
    t, point = ref_start(rs, kind, segs)
    h = pairing(point, alpha)
    out = [(t, h)]
    for v, d in segs:
        t += d
        h += pairing(v, alpha) * d
        out.append((t, h))
    return out


def ref_evaluate(rs, kind, segs, t):
    t = Q(t)
    rho = (Q(1),) * rs.rank
    start, point = ref_start(rs, kind, segs)
    if kind == "co-extended" and t <= start:
        return tuple(t * r for r in rho)
    rest = t - start
    point = list(point)
    for v, d in segs:
        step = min(d, rest)
        for k in range(rs.rank):
            point[k] += v[k] * step
        rest -= step
    # what is left runs along the outgoing ray of an extended path
    return tuple(p + rest * r for p, r in zip(point, rho))


def ref_split(segs, t):
    before, after, rest = [], [], t
    for v, d in segs:
        if rest <= 0:
            after.append((v, d))
        elif rest >= d:
            before.append((v, d))
            rest -= d
        else:
            before.append((v, rest))
            after.append((v, d - rest))
            rest = Q(0)
    return before, after


def ref_surgery(rs, kind, segs, i, lo, hi):
    origin = ref_start(rs, kind, segs)[0]
    head, rest = ref_split(segs, lo - origin)
    mid, tail = ref_split(rest, hi - lo)
    alpha = rs.simple_root(i)
    mid = [(tuple(rs.reflect(alpha, v)), d) for v, d in mid]
    return ref_normalize(rs, kind, head + mid + tail)


def ref_dualize(kind, segs):
    if kind == "finite":
        return "finite", tuple((tuple(-c for c in v), d) for v, d in reversed(segs))
    other = "co-extended" if kind == "extended" else "extended"
    return other, tuple(reversed(segs))


def ref_e(rs, kind, segs, i):
    if kind == "co-extended":
        other, dual = ref_dualize(kind, segs)
        out = ref_f(rs, other, dual, i)
        return None if out is None else ref_dualize(other, out)[1]
    bps = ref_breakpoints(rs, kind, segs, i)
    m = min(h for _, h in bps)
    if m > -1:
        return None
    t1 = next(t for t, h in bps if h == m)
    for (ta, ha), (tb, hb) in zip(bps, bps[1:]):
        if hb < m + 1:
            t0 = ta + (tb - ta) * (ha - m - 1) / (ha - hb)
            break
    return ref_surgery(rs, kind, segs, i, t0, t1)


def ref_f(rs, kind, segs, i):
    if kind == "co-extended":
        other, dual = ref_dualize(kind, segs)
        out = ref_e(rs, other, dual, i)
        return None if out is None else ref_dualize(other, out)[1]
    bps = ref_breakpoints(rs, kind, segs, i)
    m = min(h for _, h in bps)
    end = bps[-1][1]
    if end - m < 1:
        if kind == "finite":
            return None
        extra = m + 1 - end
        segs = segs + (((Q(1),) * rs.rank, extra),)
        bps = bps + [(bps[-1][0] + extra, m + 1)]
    t0 = [t for t, h in bps if h == m][-1]
    for k in range(len(bps) - 2, -1, -1):
        if bps[k][1] < m + 1:
            (ta, ha), (tb, hb) = bps[k], bps[k + 1]
            t1 = ta + (tb - ta) * (m + 1 - ha) / (hb - ha)
            break
    return ref_surgery(rs, kind, segs, i, t0, t1)


def ref_weight(rs, kind, segs):
    _, point = ref_start(rs, kind, segs)
    end = [p + sum(v[k] * d for v, d in segs) for k, p in enumerate(point)]
    if kind == "extended":
        end = [c - ref_duration(segs) for c in end]
    elif kind == "co-extended":
        end = [-c for c in end]
    assert all(c.denominator == 1 for c in end)
    return tuple(int(c) for c in end)


def ref_epsilon(rs, kind, segs, i):
    heights = [h for _, h in ref_breakpoints(rs, kind, segs, i)]
    out = max(heights) if kind == "co-extended" else -min(heights)
    assert out.denominator == 1
    return int(out)


def ref_phi(rs, kind, segs, i):
    if kind == "finite":
        heights = [h for _, h in ref_breakpoints(rs, kind, segs, i)]
        return int(heights[-1] - min(heights))
    return ref_epsilon(rs, kind, segs, i) + pairing(
        ref_weight(rs, kind, segs), rs.simple_root(i)
    )


# ---------------------------------------------------------------------------
# the paths checked: every path crystal of small weights, and truncations
# of the two unbounded kinds


# type -> (largest coefficient of lambda, truncation depth)
SIZES = {"A2": (2, 5), "B2": (2, 5), "G2": (2, 5), "A3": (1, 3), "C3": (1, 3)}


@functools.cache
def finite_paths(name):
    """(lambda, path) for every path of every B(lambda) of the sweep."""
    rs = RootSystem.from_type(name)
    out = []
    for lam in itertools.product(range(SIZES[name][0] + 1), repeat=rs.rank):
        graph = cg.enumerate_crystal(cg.path_ops(rs), [lp.straight_path(rs, lam)])
        out += [(lam, p) for p in graph.nodes]
    return out


@functools.cache
def paths_of(name):
    """Every finite path of the sweep, then both unbounded kinds truncated."""
    out = [p for _, p in finite_paths(name)]
    rs = out[0].rs
    for seed in (lp.pi_infinity(rs), lp.xi_infinity(rs)):
        ops = cg.path_ops(rs, seed.kind)
        out += cg.enumerate_crystal(ops, [seed], depth=SIZES[name][1]).nodes
    return out


@pytest.mark.parametrize("name", SIZES)
def test_operators_and_statistics_match_the_fraction_model(name):
    paths = paths_of(name)
    rs = paths[0].rs
    for p in paths:
        segs = p.segments
        assert ref_normalize(rs, p.kind, segs) == segs, p
        assert lp.weight(p) == ref_weight(rs, p.kind, segs), p
        for t, point in zip(p.times, p.points):
            vertex = tuple(Q(c, p.den) for c in point)
            assert vertex == ref_evaluate(rs, p.kind, segs, Q(t, p.den)), (p, t)
        for i in rs.index_set:
            assert lp.epsilon(p, i) == ref_epsilon(rs, p.kind, segs, i), (p, i)
            assert lp.phi(p, i) == ref_phi(rs, p.kind, segs, i), (p, i)
            for op, ref in ((lp.f_op, ref_f), (lp.e_op, ref_e)):
                got, want = op(p, i), ref(rs, p.kind, segs, i)
                assert (got is None) == (want is None), (p, i, op)
                if got is not None:
                    assert got.segments == want, (p, i, op)
                    # built past the constructors' check, yet already canonical
                    form = (got.den, got.times, got.points)
                    again = lp.PLPath.from_vertices(rs, got.kind, *form)
                    assert (again.den, again.times, again.points) == form, (p, i, op)
    assert {p.kind for p in paths} == set(lp.KINDS)


@pytest.mark.parametrize("name", SIZES)
def test_canonical_form_round_trips(name):
    for p in paths_of(name):
        again = lp.PLPath(p.rs, p.kind, p.segments)
        assert again == p and hash(again) == hash(p), p
        assert (again.den, again.times, again.points) == (p.den, p.times, p.points)
        assert lp.dualize(lp.dualize(p)) == p


@pytest.mark.parametrize("name", SIZES)
def test_finite_denominators_divide_the_coroot_lcm(name):
    """Breakpoints sigma of an LS path of shape lambda have
    sigma * <lambda, beta^vee> integral for some positive root beta."""
    largest = 1
    for lam, p in finite_paths(name):
        pairings = [pairing(lam, beta) for beta in p.rs.positive_roots]
        assert lcm(*(g for g in pairings if g)) % p.den == 0, (lam, p, p.den)
        largest = max(largest, p.den)
    assert largest > 1
