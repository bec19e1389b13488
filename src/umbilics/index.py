"""Winding index of isolated umbilics and the index-sum check.

The index is the winding number of the principal line field around a small
chart-coordinate circuit.  A sample's angle psi = atan2(B, A - C) / 2, from
the curvature-line quadratic (A, B, C) (:func:`umbilics.forms.line_angle`),
bisects the principal directions and winds as they do.  Angles are taken
modulo pi (a line field has no orientation), lifted continuously by nearest
representative; closing the loop then yields an integer multiple of pi,
i.e. a half-integer index.

The ring is lifted by :func:`umbilics.forms.lift_lines`, the level-wise
bisection the finder's cell scan also uses.  Two robustness measures beyond
plain uniform sampling:

* segments whose hop (the mod-pi distance between their endpoint angles)
  reaches pi/4 are bisected until none does -- near planar (flat) umbilics
  the principal directions swing by ~pi/2 inside angular windows far
  narrower than any fixed sample count resolves;
* a sample where hypot(A - C, B) (k1 - k2 in a principal orthonormal frame)
  is within a couple of decades of the rounding scale of A, B and C fails
  the lift, and the ring is redrawn at twice the radius.

The ring's own samples decide whether it fits in the chart: each must keep
the radicand margin DELTA_VALID that every other chart-validity test of
the finder and the index uses, or the ring is redrawn at half the radius.

:func:`attach_indices` draws each distinct ring once: the records of a root
in both charts of an axis, and of its mirror images (+-u, +-v) in them,
share one ring.  All rings are drawn together, round by round, in one
radicand call, one kernel call and one lift; :func:`umbilic_index` is that
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

RING_RADIUS = 0.01       # before clipping
RING_SAMPLES = 720
RING_DEPTH = 37          # bisection levels: 2 pi / 720 / 2^37 = 6.3e-14 rad, the first width below 1e-13


@dataclass(frozen=True)
class WindingResult:
    index: float              # half-integer
    samples: int              # total direction evaluations on the final ring
    radius: float             # chart-coordinate circle radius


def _radius_clip(spec, rec, records):
    """Largest admissible circle: half the gap to other umbilic preimages
    in this chart, and well inside the chart rectangle.

    A record within the finder's dedup radius of ``rec`` is the same point.
    Each half of these even, convex surfaces is a graph over its chart, so
    the preimages are the records on the chart's side over valid (u, v).
    """
    chart = rec.chart
    umax, vmax = sf.chart_bounds(spec, chart)
    clip = 0.5 * min(umax, vmax)
    pts = np.array([other.ambient for other in records or []], dtype=float).reshape(-1, 3)
    pts = pts[np.linalg.norm(pts - rec.ambient, axis=1) >= um.DEDUP_REL * sf.surface_diameter(spec)]
    iu, iv, ih = sf.placement(chart)
    pts = pts[pts[:, ih] * chart.sign >= 0.0]
    pts = pts[sf.chart_valid(spec, chart, pts[:, iu], pts[:, iv])]
    if pts.size:
        clip = min(clip, 0.5 * float(np.hypot(pts[:, iu] - rec.uv[0], pts[:, iv] - rec.uv[1]).min()))
    return clip


def _windings(spec, rings, records):
    """Winding of each record in ``rings``, all drawn together: a WindingResult
    or the error its ring raised; each ring's radii are as in umbilic_index.
    """
    out = [None if rec.kind == um.ISOLATED
           else NotIsolated("index is defined for isolated umbilics only") for rec in rings]
    centre = np.array([rec.uv for rec in rings], float).reshape(-1, 2)
    lane = np.array([sf.ATLAS.index(rec.chart) for rec in rings], int)
    cap = np.array([_radius_clip(spec, rec, records) for rec in rings], float)
    radius = np.minimum(RING_RADIUS, cap)
    ts = np.append(np.linspace(0.0, 2.0 * math.pi, RING_SAMPLES, endpoint=False), 2.0 * math.pi)
    pending = np.flatnonzero([res is None for res in out])
    while pending.size:
        cu, cv, r = centre[pending, :1], centre[pending, 1:], radius[pending, None]
        uu, vv = cu + r * np.cos(ts), cv + r * np.sin(ts)
        fits = sf.chart_valid(spec, sf.ChartLane(spec, np.repeat(lane[pending], ts.size)),
                              uu.ravel(), vv.ravel()).reshape(uu.shape).all(axis=1)
        for i in pending[~fits]:
            if radius[i] <= 1e-9:
                rec = rings[i]
                out[i] = CircleInvalid(f"no valid sampling circle around {rec.uv} on {rec.chart.label}")
            radius[i] = cap[i] = 0.5 * radius[i]      # a ring that has shrunk never grows again
        live = pending[fits]
        if live.size:
            cu, cv, r = cu[fits, 0], cv[fits, 0], r[fits, 0]
            rows = sf.ChartLane(spec, np.repeat(lane[live], ts.size))
            psi = fm.line_angle(*fm.closed_forms_arrays(spec, rows, uu[fits].ravel(), vv[fits].ravel()))
            psi = psi.reshape(live.size, ts.size)
            total, mids, resolved = fm.lift_lines(
                spec, lane[live], np.repeat(np.arange(live.size), RING_SAMPLES),
                np.tile(np.stack([ts[:-1], ts[1:]], axis=1), (live.size, 1)),
                np.stack([psi[:, :-1], psi[:, 1:]], axis=2).reshape(-1, 2),
                lambda j, t: (cu[j] + r[j] * np.cos(t), cv[j] + r[j] * np.sin(t)), RING_DEPTH,
            )
            for j, i in enumerate(live):
                if not resolved[j]:
                    if 2.0 * radius[i] > cap[i]:
                        out[i] = NonConvergentLift(
                            f"line field unresolved on the ring of radius {radius[i]:.3e}")
                    radius[i] *= 2.0
                    continue
                index = float(total[j]) / (2.0 * math.pi)
                doubled = round(2.0 * index)
                out[i] = (WindingResult(doubled / 2.0, ts.size + int(mids[j]), float(radius[i]))
                          if abs(2.0 * index - doubled) <= 1e-3 else NonConvergentLift(
                              f"winding {index:.6f} is not a half-integer; radius {radius[i]:.3e}"))
        pending = np.array([i for i in pending if out[i] is None], int)
    return out


def umbilic_index(spec, rec, records=None) -> WindingResult:
    """Winding index of one isolated umbilic record.

    The circle radius adapts.  It starts at RING_RADIUS, clipped to stay
    clear of other umbilics and inside the chart rectangle.  It halves while
    a ring sample leaves the chart (CircleInvalid once it is 1e-9 or less),
    and doubles up to the clip while :func:`umbilics.forms.lift_lines`
    leaves the ring unresolved (NonConvergentLift past the clip) -- the
    situation at nearly planar umbilics of high-power surfaces.  A ring that
    has shrunk never grows again: doubling would only return to a radius
    that left the chart.
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
    them.  All rings are drawn together (one pass per round); when rings
    fail, the error of the first record's ring is raised.
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
