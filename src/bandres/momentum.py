"""Complex momentum kappa(zeta, E) = k(E - W(zeta)).

Determinations are tracked as an explicit (sign, m) pair relative to the
main branch: kappa = sign * k + 2*pi*m. The normalized determination
kappa0 lives in [0, pi] on the well and is the band fold of the main
branch, so on band n the pair is (+1, -(n-1)/2) for odd n and (-1, n/2)
for even n.

Branch points in the zeta plane solve E - W(zeta) = E_j for a band edge
E_j. They are located by vectorized Newton iteration from a seed grid
and certified against an argument-principle count along the search-box
boundary; only edges covered by the scanned band structure participate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (BoundaryCollisionError, DomainError,
                     InternalConsistencyError, NearSingularityError,
                     RootCountError)
from .hill import _band_sign, reduced_momentum

_NEWTON_SEEDS = (50, 20)
_NEWTON_STEPS = 40
_DEDUP_RADIUS = 1e-7
_BOUNDARY_SAMPLES = 600
_EDGE_SNAP = 1e-5   # fold resolution at band edges: sqrt of the table error


class MomentumSample:
    """One momentum evaluation with its determination bookkeeping.

    kappa = sign * k_main + 2*pi*determination_id, where k_main is the
    main-branch quasi-momentum at E - W(zeta).
    """

    def __init__(self, zeta, kappa, sign, determination_id):
        self.zeta = zeta
        self.kappa = kappa
        self.sign = int(sign)
        self.determination_id = int(determination_id)

    def __repr__(self):
        return "MomentumSample(zeta=%r, kappa=%r, sign=%+d, m=%d)" % (
            self.zeta, self.kappa, self.sign, self.determination_id)


def _fold_pair(band_index):
    n = band_index
    return (1, -(n - 1) // 2) if _band_sign(n) > 0.0 else (-1, n // 2)


def kappa_normalized(window, bands, profile, zeta):
    """kappa0 on the compact well: real, in [0, pi], edge-exact at endpoints."""
    c = window.well("kappa_normalized")
    zeta = float(zeta)
    if not c.lo <= zeta <= c.hi:
        raise DomainError("zeta=%.12g outside the well [%.12g, %.12g]"
                          % (zeta, c.lo, c.hi))
    n = c.band_index
    sign, m = _fold_pair(n)
    if zeta == c.lo or zeta == c.hi:
        return MomentumSample(zeta, c.anchors[0 if zeta == c.lo else 1], sign, m)
    k = bands.k_band_fast(window.energy - profile(zeta), n)
    return MomentumSample(zeta, reduced_momentum(float(k), n), sign, m)


def im_kappa_gap(window, bands, profile, segment, zeta):
    """|Im kappa| on one barrier segment of an H6 window.

    segment is "left" for (zeta-, zeta0-) or "right" for (zeta0+, zeta+);
    the returned magnitude is the integrand of the barrier actions.
    """
    window.well("im_kappa_gap")
    zeta = float(zeta)
    if segment not in ("left", "right"):
        raise DomainError("segment must be 'left' or 'right', got %r" % (segment,))
    lo, hi = window.barriers[segment == "right"]
    if not lo < zeta < hi:
        raise DomainError("zeta=%.12g outside the open %s segment (%.12g, %.12g)"
                          % (zeta, segment, lo, hi))
    gamma = bands.gamma_fast(window.energy - profile(zeta))
    if not gamma > 0.0:
        raise InternalConsistencyError(
            "vanishing gap momentum at zeta=%.12g" % zeta)
    return float(gamma)


class BranchPoint:
    """One solution of E - W(zeta) = E_j."""

    def __init__(self, zeta, edge_index):
        self.zeta = complex(zeta)
        self.edge_index = int(edge_index)

    def __repr__(self):
        return "BranchPoint(zeta=%r, edge_index=%d)" % (self.zeta, self.edge_index)


class BranchPointSet:
    """All branch points of kappa(., E) inside a search box."""

    def __init__(self, energy, points, box):
        self.energy = float(energy)
        self.points = tuple(points)
        self.box = tuple(float(v) for v in box)

    @property
    def zetas(self):
        return tuple(p.zeta for p in self.points)

    def real_points(self):
        return tuple(p for p in self.points if abs(p.zeta.imag) <= 1e-8)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return "BranchPointSet(E=%.8g, %d points, box=%r)" % (
            self.energy, len(self.points), self.box)


def _boundary_path(box, n):
    re_lo, re_hi, im_lo, im_hi = box
    t = np.linspace(0.0, 1.0, n)
    sides = [re_lo + t * (re_hi - re_lo) + 1j * im_lo,
             re_hi + 1j * (im_lo + t * (im_hi - im_lo)),
             re_hi - t * (re_hi - re_lo) + 1j * im_hi,
             re_lo + 1j * (im_hi - t * (im_hi - im_lo))]
    return sides


def _winding_count(profile, energy, edge, box, n):
    """Zeros of E - W(zeta) - edge inside the box, by the argument principle."""
    total = 0.0
    min_abs = math.inf
    for side in _boundary_path(box, n):
        f = energy - profile(side) - edge
        min_abs = min(min_abs, float(np.abs(f).min()))
        g = -profile.derivative(side) / f
        total += np.trapezoid(g, side)
    count = total / (2j * math.pi)
    return count, min_abs


def find_branch_points(profile, bands, energy, box):
    """All solutions of E - W(zeta) = E_j inside a rectangle.

    box = (re_lo, re_hi, im_lo, im_hi), required to stay strictly inside
    the analyticity strip |Im zeta| < h of the profile. Each edge's root
    list is certified by an argument-principle count; a count that stays
    ambiguous under refinement means a root sits on the boundary.
    """
    energy = float(energy)
    if not math.isfinite(energy):
        raise DomainError("energy E=%r is not finite" % energy)
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in box)
    if not all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi))):
        raise DomainError("search box %r is not finite" % (box,))
    if not (re_lo < re_hi and im_lo < im_hi):
        raise DomainError("degenerate search box %r" % (box,))
    h = profile.analyticity_height
    if max(abs(im_lo), abs(im_hi)) >= h:
        raise DomainError(
            "box reaches |Im zeta| >= %g, outside the analyticity strip" % h)

    edges = list(bands.edges)
    if bands.next_band_start is not None:
        edges.append(bands.next_band_start)

    sr = np.linspace(re_lo, re_hi, _NEWTON_SEEDS[0] + 2)[1:-1]
    si = np.linspace(im_lo, im_hi, _NEWTON_SEEDS[1] + 2)[1:-1]
    seeds = (sr[:, None] + 1j * si[None, :]).ravel()

    points = []
    for j, edge in enumerate(edges, start=1):
        z = seeds.copy()
        alive = np.ones(z.shape, dtype=bool)
        for _ in range(_NEWTON_STEPS):
            try:
                f = energy - profile(z[alive]) - edge
                df = -profile.derivative(z[alive])
            except NearSingularityError:
                break
            bad = np.abs(df) < 1e-14
            step = np.where(bad, 0.0, f / np.where(bad, 1.0, df))
            z[alive] = z[alive] - step
            alive[alive] = ~bad
            if not alive.any():
                break
        f = energy - profile(z) - edge
        ok = np.abs(f) <= 1e-10 * (1.0 + abs(edge))
        ok &= (z.real > re_lo) & (z.real < re_hi)
        ok &= (z.imag > im_lo) & (z.imag < im_hi)
        roots = []
        for zz in z[ok]:
            if all(abs(zz - r) > _DEDUP_RADIUS for r in roots):
                roots.append(complex(zz))

        count, min_abs = _winding_count(profile, energy, edge, box,
                                        _BOUNDARY_SAMPLES)
        check, _ = _winding_count(profile, energy, edge, box,
                                  2 * _BOUNDARY_SAMPLES)
        if min_abs < 1e-7 * (1.0 + abs(edge)) or abs(count - check) > 0.2:
            raise BoundaryCollisionError(
                "branch point of edge %d on or near the box boundary; "
                "enlarge the box" % j)
        n_expected = int(round(check.real))
        if abs(check - n_expected) > 0.2:
            raise BoundaryCollisionError(
                "non-integer winding count %r for edge %d; enlarge the box"
                % (check, j))
        if n_expected != len(roots):
            raise RootCountError(
                "edge %d: argument principle counts %d roots, Newton found %d"
                % (j, n_expected, len(roots)))
        points.extend(BranchPoint(r, j) for r in roots)

    _check_conjugation(points)
    return BranchPointSet(energy, points, (re_lo, re_hi, im_lo, im_hi))


def _check_conjugation(points):
    for p in points:
        mate = min((abs(q.zeta - p.zeta.conjugate())
                    for q in points if q.edge_index == p.edge_index),
                   default=math.inf)
        if mate > 1e-8:
            raise InternalConsistencyError(
                "branch points not conjugation-symmetric near %r" % p.zeta)


def isoenergy_portrait(profile, bands, energy, zeta_range, n_samples):
    """Real iso-energy curve samples (zeta, momentum branches mod 2*pi).

    Emits, for each sampled zeta with E - W(zeta) inside a band, the two
    branch values {kappa0, 2*pi - kappa0}; gap samples are skipped. Within
    the fold resolution of a band edge the branches merge to the single
    edge value. Two vertical periods of the momentum are covered by
    construction since the output lies in [0, 2*pi). Each band's samples
    are read from the discriminant table in one call.
    """
    energy = float(energy)
    if not math.isfinite(energy):
        raise DomainError("energy E=%r is not finite" % energy)
    lo, hi = (float(v) for v in zeta_range)
    n_samples = int(n_samples)
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("zeta range [%g, %g] is not finite" % (lo, hi))
    if not hi > lo:
        raise DomainError("empty zeta range [%g, %g]" % (lo, hi))
    zs = np.linspace(lo, hi, n_samples)
    es = energy - profile(zs)
    band_of = np.array([n if kind == "band" else 0
                        for kind, n in map(bands.locate, es)])
    on = band_of > 0
    zs, es, band_of = zs[on], es[on], band_of[on]
    k0 = np.empty(es.shape)
    for n in sorted(set(band_of.tolist())):
        mine = band_of == n
        k0[mine] = reduced_momentum(bands.k_band_fast(es[mine], n), n)
    # the snap also clamps: folds below 0 or above pi land on the edge value
    k0 = np.where(k0 < _EDGE_SNAP, 0.0, np.where(math.pi - k0 < _EDGE_SNAP, math.pi, k0))
    at_edge = (k0 == 0.0) | (k0 == math.pi)
    return [(z, (k,) if edge else (k, k2))
            for z, k, k2, edge in zip(zs.tolist(), k0.tolist(),
                                      (2.0 * math.pi - k0).tolist(), at_edge.tolist())]
