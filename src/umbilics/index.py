"""Winding index of isolated umbilics and the index-sum check.

The index is the winding number of the principal line field around a small
chart-coordinate circuit.  With (A, B, C) the curvature-line quadratic
(:func:`umbilics.forms.line_quadratic`), the angle psi = arg(beta) / 2 of
beta = (A - C) + iB bisects the principal directions and winds as they do,
so the index is the winding of beta over 4 pi.  That winding is counted
from signs alone (Kearfott, Numer. Math. 1979): each sample's (sign(A - C),
sign(B)) (:func:`beta_signs`) puts beta on one of the eight multiples of
pi/4, and the hops between consecutive samples, each reduced to [-pi, pi),
sum to the winding.  A sign needs no precision beyond its rounding scale,
so a swing of psi across a window far narrower than the sample spacing --
the principal directions next to the flat umbilics of high-power surfaces
-- counts as long as no hop is ambiguous.

Each ring is drawn at its cap, the largest admissible circle
(:func:`umbilic_index`).  The ring's own samples decide whether it fits in
the chart: each must keep the radicand margin DELTA_VALID that every other
chart-validity test of the finder and the index uses, or the ring is
redrawn at half the radius.  The fitted ring's 720 samples, and its first
sample again to close the circuit, take their signs once.  A sample where
both signs are 0, or a hop of +-pi (beta crossing to the opposite octant,
whose sense the signs cannot tell), leaves the ring unresolved, and its
index raises NonConvergentLift.  There is no bisection.

:func:`attach_indices` draws each distinct ring once: the records of a root
at its mirror images (sign flips) and at its swap images (two axes with
equal terms trading coordinates) share one ring.  All rings are drawn
together: the caps of all rings are one array step, each fit pass takes
one radicand call, and the fitted (rings, samples) array takes one kernel
call on a ChartLane of shape (rings, 1).  :func:`umbilic_index` is that
pass on one ring.

Sums of half-integers are formed in doubled-integer arithmetic, so the
Euler-characteristic comparison (sum == 2) is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import forms as fm
from . import surface as sf
from . import umbilic as um
from .errors import CircleInvalid, MissingIndex, NonConvergentLift, NotIsolated

RING_SAMPLES = 720


@dataclass(frozen=True)
class WindingResult:
    index: float              # half-integer
    samples: int              # total direction evaluations on the final ring
    radius: float             # chart-coordinate circle radius


def beta_signs(E, F, G, e, f, g):
    """Signs (sD, sB) of the real and imaginary parts of beta = (A - C) + iB,
    (A, B, C) the curvature-line quadratic, as float arrays in {-1, 0, 1}.

    Each part is judged against its own rounding scale, the sum of its
    products' magnitudes: A - C against |fE| + |eF| + |gF| + |fG| and B
    against |gE| + |eG|.  A part within ROUNDING_FLOOR of its scale (or
    NaN) has sign 0.
    """
    A, B, C = fm.line_quadratic(E, F, G, e, f, g)
    d_scale = np.abs(f * E) + np.abs(e * F) + np.abs(g * F) + np.abs(f * G)
    b_scale = np.abs(g * E) + np.abs(e * G)
    return (np.where(np.abs(A - C) > um.ROUNDING_FLOOR * d_scale, np.sign(A - C), 0.0),
            np.where(np.abs(B) > um.ROUNDING_FLOOR * b_scale, np.sign(B), 0.0))


def _windings(spec, rings, records):
    """Winding of each record in ``rings``, all drawn together: a WindingResult
    or the error its ring raised; each ring's radius is as in umbilic_index.

    Each ring's cap is the largest admissible circle: half the smallest
    nonzero gap to the umbilic preimages in its chart, and half the smaller
    half-width of the chart rectangle.  Each half of these even, convex
    surfaces is a graph over its chart, so the preimages are the records
    on the chart's side over valid (u, v).  A preimage at zero gap is the
    ring's own point: the finder writes each point once.
    """
    out = [None if rec.kind == um.ISOLATED
           else NotIsolated("index is defined for isolated umbilics only") for rec in rings]
    centre = np.array([rec.uv for rec in rings], float).reshape(-1, 2)
    lane = np.array([sf.ATLAS.index(rec.chart) for rec in rings], int)
    charts = sf.ChartLane(spec, lane[:, None])
    place = np.array([sf.placement(rec.chart) for rec in rings], int).reshape(-1, 3)
    pts = np.array([other.ambient for other in records], float).reshape(-1, 3)
    pu, pv, ph = pts.T[place].transpose(1, 0, 2)      # (rings, records) each
    gap = np.hypot(pu - centre[:, :1], pv - centre[:, 1:])
    seen = (ph * charts.sign >= 0.0) & sf.chart_valid(spec, charts, pu, pv) & (gap > 0.0)
    half = np.array([min(sf.chart_bounds(spec, chart)) for chart in sf.ATLAS])[lane]
    radius = 0.5 * np.minimum(half, np.where(seen, gap, np.inf).min(axis=1, initial=np.inf))
    # The 721st sample is the first again: the circuit closes exactly.
    ts = np.append(np.linspace(0.0, 2.0 * math.pi, RING_SAMPLES, endpoint=False), 0.0)
    uu, vv = np.empty((2, len(rings), ts.size))
    cos, sin = np.cos(ts), np.sin(ts)
    test = np.flatnonzero([res is None for res in out])
    while test.size:                           # halve each ring that leaves its chart
        uu[test] = centre[test, :1] + radius[test, None] * cos
        vv[test] = centre[test, 1:] + radius[test, None] * sin
        fits = sf.chart_valid(spec, sf.ChartLane(spec, lane[test, None]), uu[test], vv[test])
        test = test[~fits.all(axis=1)]
        for i in test:
            if radius[i] <= 1e-9:
                rec = rings[i]
                out[i] = CircleInvalid(f"no valid sampling circle around {rec.uv} on {rec.chart.label}")
            radius[i] *= 0.5
        test = np.array([i for i in test if out[i] is None], int)
    live = np.flatnonzero([res is None for res in out])
    if not live.size:
        return out
    rows = sf.ChartLane(spec, lane[live, None])
    sd, sb = beta_signs(*fm.closed_forms_arrays(spec, rows, uu[live], vv[live]))
    # theta = atan2(sB, sD) in units of pi/4, each hop reduced to [-4, 4): -4 is
    # a hop of +-pi, whose sense the signs cannot tell.  The last sample is the
    # first, so the hops sum to a multiple of 8 (2 pi).
    hops = (np.diff(np.rint(np.arctan2(sb, sd) / (0.25 * math.pi)).astype(int), axis=1) + 4) % 8 - 4
    resolved = (hops != -4).all(axis=1) & ((sd != 0.0) | (sb != 0.0)).all(axis=1)
    for j, i in enumerate(live):
        out[i] = (WindingResult(int(hops[j].sum()) / 16.0, ts.size, float(radius[i])) if resolved[j]
                  else NonConvergentLift(f"line field unresolved on the ring of radius {radius[i]:.3e}"))
    return out


def umbilic_index(spec, rec, records) -> WindingResult:
    """Winding index of one isolated umbilic record.

    The circle starts at its cap, the largest admissible radius: half the
    smallest chart gap to another umbilic of ``records`` and at most half
    the smaller chart half-width; a record at the ring's centre is the
    ring's own point.  ``records`` should hold every umbilic of the surface
    (the finder's output): the cap keeps the ring clear only of the points
    it lists.  The radius halves while a ring sample leaves the chart
    (CircleInvalid once it is 1e-9 or less); the ring's signs are then
    counted once, and an unresolved ring raises NonConvergentLift.
    """
    [res] = _windings(spec, [rec], records)
    if isinstance(res, Exception):
        raise res
    return res


def attach_indices(spec, records):
    """Copy of the record list with winding indices filled in.

    A ring's index depends only on the chart's forms, its centre and its
    radius cap, and is unchanged by an isometry of the surface.  The sign
    flips of the coordinates are such isometries, and so is the swap of
    two axes whose terms are equal (``AxisTerm ==``), as x and y on the
    perturbed ellipsoids; the finder's record set is closed under both.
    So the records of one key share one ring, drawn for the first of
    them: the |ambient| coordinates, sorted within each group of axes
    with equal terms, and the kind.  All rings are drawn and counted
    together; when rings fail, the error of the first record's ring is
    raised.
    """
    group = [spec.terms.index(term) for term in spec.terms]     # first axis with an equal term
    keys = [(tuple(sorted(zip(group, map(abs, rec.ambient)))), rec.kind) for rec in records]
    rings = {}
    for key, rec in zip(keys, records):
        rings.setdefault(key, rec)
    results = dict(zip(rings, _windings(spec, list(rings.values()), records)))
    for res in results.values():             # rings in the order of their first records
        if isinstance(res, Exception):
            raise res
    return [replace(rec, index=results[key].index) for key, rec in zip(keys, records)]


@dataclass(frozen=True)
class IndexSumReport:
    total: float
    passed: bool               # total == 2 exactly (Euler characteristic)


def poincare_hopf_check(spec, records) -> IndexSumReport:
    """Exact half-integer index sum versus the Euler characteristic 2."""
    doubled = 0
    for rec in records:
        if rec.kind != um.ISOLATED:
            raise NotIsolated("non-isolated record in index sum")
        if rec.index is None:
            raise MissingIndex("record without a computed index")
        doubled += round(2.0 * rec.index)
    return IndexSumReport(doubled / 2.0, doubled == 4)


def index_multiset(records):
    """Sorted (index, count) pairs of the records' indices."""
    counts = {}
    for rec in records:
        if rec.index is None:
            raise MissingIndex("record without a computed index")
        counts[rec.index] = counts.get(rec.index, 0) + 1
    return sorted(counts.items())


@dataclass(frozen=True)
class SweepRow:
    spec: sf.SurfaceSpec
    count: int
    multiset: tuple            # ((index, count), ...)
    index_sum: float
    error: str = None


def conjecture_sweep(specs):
    """Umbilic index multisets across a parameter grid.

    Per-spec failures are recorded in the row, not raised, so one bad run
    cannot abort a sweep.  Returns (rows, constant) where ``constant`` says
    whether every successful row shares one multiset.
    """
    rows = []
    for spec in specs:
        try:
            recs = um.find_umbilics(spec)
            recs = attach_indices(spec, recs)
            ph = poincare_hopf_check(spec, recs)
            rows.append(
                SweepRow(spec, len(recs), tuple(index_multiset(recs)), ph.total)
            )
        except Exception as exc:  # noqa: BLE001 - sweep must survive any row
            rows.append(SweepRow(spec, 0, (), math.nan, f"{type(exc).__name__}: {exc}"))
    good = [r.multiset for r in rows if r.error is None]
    constant = len(set(good)) <= 1
    return rows, constant
