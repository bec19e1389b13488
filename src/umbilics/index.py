"""Winding index of isolated umbilics and the index-sum check.

The index is the winding number of the principal line field around a small
chart-coordinate circuit.  A sample's angle psi = atan2(B, A - C) / 2, from
the curvature-line quadratic (A, B, C) (:func:`umbilics.forms.line_angle`),
bisects the principal directions and winds as they do.  Angles are taken
modulo pi (a line field has no orientation), lifted continuously by nearest
representative; closing the loop then yields an integer multiple of pi,
i.e. a half-integer index.

Each ring is drawn at its cap, the largest admissible circle
(:func:`umbilic_index`).  The ring's own samples decide whether it fits in
the chart: each must keep the radicand margin DELTA_VALID that every other
chart-validity test of the finder and the index uses, or the ring is
redrawn at half the radius.

The fitted ring is then lifted once by :func:`umbilics.forms.lift_lines`,
a level-wise bisection of every ring together.  Segments whose hop (the
mod-pi distance between their endpoint angles) reaches pi/4 are bisected
until none does -- near planar (flat) umbilics the principal directions
swing by ~pi/2 inside angular windows far narrower than any fixed sample
count resolves.  A sample where hypot(A - C, B) (k1 - k2 in a principal
orthonormal frame) is within a couple of decades of the rounding scale of
A, B and C, or a segment still hopping at the bisection floor, leaves the
ring unresolved, and its index raises NonConvergentLift.

:func:`attach_indices` draws each distinct ring once: the records of a root
in both charts of an axis, and of its mirror images (+-u, +-v) in them,
share one ring.  All rings are drawn together: the caps of all rings are
one array step, each fit pass takes one radicand call, and the fitted
(rings, samples) array takes one kernel call on a ChartLane of shape
(rings, 1) and one lift.  :func:`umbilic_index` is that pass on one ring.

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
RING_DEPTH = 37          # bisection levels: 2 pi / 720 / 2^37 = 6.3e-14 rad, the first width below 1e-13


@dataclass(frozen=True)
class WindingResult:
    index: float              # half-integer
    samples: int              # total direction evaluations on the final ring
    radius: float             # chart-coordinate circle radius


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
    ts = np.append(np.linspace(0.0, 2.0 * math.pi, RING_SAMPLES, endpoint=False), 2.0 * math.pi)

    def ring(ids, t):
        return centre[ids, 0] + radius[ids] * np.cos(t), centre[ids, 1] + radius[ids] * np.sin(t)

    uu, vv = np.empty((2, len(rings), ts.size))
    test = np.flatnonzero([res is None for res in out])
    while test.size:                           # halve each ring that leaves its chart
        uu[test], vv[test] = ring(test[:, None], ts)
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
    psi = fm.line_angle(*fm.closed_forms_arrays(spec, rows, uu[live], vv[live]))
    total, mids, resolved = fm.lift_lines(spec, lane[live], np.broadcast_to(ts, psi.shape), psi,
                                          lambda j, t: ring(live[j], t), RING_DEPTH)
    for j, i in enumerate(live):
        if not resolved[j]:
            out[i] = NonConvergentLift(f"line field unresolved on the ring of radius {radius[i]:.3e}")
            continue
        index = float(total[j]) / (2.0 * math.pi)
        doubled = round(2.0 * index)
        out[i] = (WindingResult(doubled / 2.0, ts.size + int(mids[j]), float(radius[i]))
                  if abs(2.0 * index - doubled) <= 1e-3 else NonConvergentLift(
                      f"winding {index:.6f} is not a half-integer; radius {radius[i]:.3e}"))
    return out


def umbilic_index(spec, rec, records) -> WindingResult:
    """Winding index of one isolated umbilic record.

    The circle starts at its cap, the largest admissible radius: half the
    smallest chart gap to another umbilic of ``records`` and at most half
    the smaller chart half-width; a record at the ring's centre is the
    ring's own point.  ``records`` should hold every umbilic of the surface
    (the finder's output): the cap keeps the ring clear only of the points
    it lists.  The radius halves while a ring sample leaves the chart
    (CircleInvalid once it is 1e-9 or less); the ring is then lifted once
    by :func:`umbilics.forms.lift_lines`, and an unresolved lift -- the
    situation at nearly planar umbilics of high-power surfaces -- raises
    NonConvergentLift.
    """
    [res] = _windings(spec, [rec], records)
    if isinstance(res, Exception):
        raise res
    return res


def attach_indices(spec, records):
    """Copy of the record list with winding indices filled in.

    A ring's index depends only on the chart's forms, its centre and its
    radius cap, and is unchanged by a reflection.  The two charts of an
    axis share their forms, the forms at (+-u, +-v) are mirror images and
    the finder's records are mirror-symmetric, so the records of one
    ``(axis, |u|, |v|, kind)`` key share one ring, drawn for the first of
    them.  All rings are drawn together and lifted once; when rings fail,
    the error of the first record's ring is raised.
    """
    keys = [(rec.chart.axis, abs(rec.uv[0]), abs(rec.uv[1]), rec.kind) for rec in records]
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
