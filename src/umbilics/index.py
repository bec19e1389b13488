"""Winding index of isolated umbilics and the index-sum check.

The index is the winding number of the principal line field around a small
chart-coordinate circuit.  Directions are angles modulo pi (a line field has
no orientation), lifted continuously by nearest representative; closing the
loop then yields an integer multiple of pi, i.e. a half-integer index.

Two robustness measures beyond plain uniform sampling:

* segments whose lifted jump reaches pi/4 are bisected recursively -- near
  planar (flat) umbilics the major-curvature direction swings by ~pi/2
  inside angular windows far narrower than any fixed sample count resolves;
* a sample where the two curvatures are indistinguishable at floating-point
  noise level fails the lift, and the ring is redrawn at twice the radius.

The ring's own samples decide whether it fits in the chart (it is redrawn
at half the radius when one does not), and they take their forms in one
kernel call; only the bisection samples are evaluated one at a time.

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

MAX_JUMP = math.pi / 4.0
MAX_BISECT = 48               # recursion budget per over-jump segment
RING_RADIUS = 1e3 * math.sqrt(um.FindConfig.tol_find)   # 0.01, before clipping
RING_SAMPLES = 720


@dataclass(frozen=True)
class WindingResult:
    index: float              # half-integer
    samples: int              # total direction evaluations on the final ring
    max_jump: float           # largest lifted angle step (radians)
    radius: float             # chart-coordinate circle radius


def _major_angle(forms, t):
    """Major-principal-direction angle mod pi from a ring sample's six forms.

    Raises NonConvergentLift only when the curvature separation is within a
    couple of decades of floating-point noise on the curvatures -- near
    planar umbilics the separation is tiny yet still carries many accurate
    digits, and those samples are exactly the informative ones.
    """
    k1, k2, theta1, _ = fm.principal_frame(*forms)
    if k1 - k2 <= 1e3 * np.finfo(float).eps * (abs(k1) + abs(k2)):
        raise NonConvergentLift(f"degenerate sample at ring angle {t:.6f}")
    return theta1


def _ring_point(cu, cv, radius, t):
    return cu + radius * math.cos(t), cv + radius * math.sin(t)


def _ring_angle(spec, chart, cu, cv, radius, t):
    """Major-principal-direction angle mod pi at ring angle t."""
    forms = fm.closed_forms_arrays(spec, chart, *_ring_point(cu, cv, radius, t))
    return _major_angle([float(x) for x in forms], t)


def _nearest_rep(theta, prev):
    """Representative of theta (mod pi) closest to prev."""
    return theta + math.pi * round((prev - theta) / math.pi)


def _lift_ring(spec, chart, cu, cv, radius):
    """Continuously lift the direction angle around the circle.

    Returns (total change, evaluations, max jump).  Raises CircleInvalid
    when a ring sample's radicand is below 100 DELTA_VALID, and
    NonConvergentLift on a degenerate sample or when a segment cannot be
    subdivided below the jump bound.  The ring samples take their forms in
    one kernel call; bisection samples are evaluated one at a time.
    """
    ts = np.linspace(0.0, 2.0 * math.pi, RING_SAMPLES, endpoint=False).tolist()
    ts.append(2.0 * math.pi)
    uu, vv = np.array([_ring_point(cu, cv, radius, t) for t in ts]).T
    if not np.all(sf.chart_valid(spec, chart, uu, vv, margin=100.0 * sf.DELTA_VALID)):
        raise CircleInvalid(f"ring of radius {radius:.3e} leaves chart {chart.label}")
    forms = zip(*(a.tolist() for a in fm.closed_forms_arrays(spec, chart, uu, vv)))
    thetas = [_major_angle(f, t) for f, t in zip(forms, ts)]
    evals = len(thetas)
    lifted = [thetas[0]]
    t_done = [ts[0]]
    for t_target, theta in zip(ts[1:], thetas[1:]):
        # Bisect until the hop from the previous lifted angle is small.
        stack = [(t_target, theta)]
        budget = MAX_BISECT
        while stack:
            t_next, th_next = stack[-1]
            rep = _nearest_rep(th_next, lifted[-1])
            if abs(rep - lifted[-1]) < MAX_JUMP:
                lifted.append(rep)
                t_done.append(t_next)
                stack.pop()
                continue
            if budget <= 0 or (t_next - t_done[-1]) < 1e-13:
                raise NonConvergentLift(
                    f"jump {abs(rep - lifted[-1]):.3f} rad at ring angle {t_next:.6f}"
                )
            t_mid = 0.5 * (t_done[-1] + t_next)
            stack.append((t_mid, _ring_angle(spec, chart, cu, cv, radius, t_mid)))
            evals += 1
            budget -= 1
    total = lifted[-1] - lifted[0]
    jumps = [abs(b - a) for a, b in zip(lifted, lifted[1:])]
    return total, evals, max(jumps) if jumps else 0.0


def _radius_clip(spec, rec, records):
    """Largest admissible circle: half the gap to other umbilic preimages
    in this chart, and well inside the chart rectangle."""
    chart = rec.chart
    umax, vmax = sf.chart_bounds(spec, chart)
    clip = 0.5 * min(umax, vmax)
    for other in records or []:
        if other is rec or np.allclose(other.ambient, rec.ambient):
            continue
        pre = sf.ambient_to_chart(spec, chart, np.array(other.ambient))
        if pre is None:
            continue
        d = math.hypot(pre[0] - rec.uv[0], pre[1] - rec.uv[1])
        clip = min(clip, 0.5 * d)
    return clip


def umbilic_index(spec, rec, records=None) -> WindingResult:
    """Winding index of one isolated umbilic record.

    The circle radius adapts: it shrinks to stay clear of other umbilics and
    inside the chart, and grows (doubling, within those same limits) when
    the principal directions on the ring are too degenerate to resolve --
    the situation at nearly planar umbilics of high-power surfaces.
    """
    if rec.kind != um.ISOLATED:
        raise NotIsolated("index is defined for isolated umbilics only")
    chart = rec.chart
    cu, cv = rec.uv
    cap = _radius_clip(spec, rec, records)
    radius = min(RING_RADIUS, cap)

    tried = 0
    while True:
        try:
            if radius <= 0.0:
                raise CircleInvalid("zero ring radius")
            total, evals, max_jump = _lift_ring(spec, chart, cu, cv, radius)
            break
        except CircleInvalid:
            tried += 1
            if radius > 1e-9 and tried < 40:
                radius *= 0.5
                continue
            raise CircleInvalid(
                f"no valid sampling circle around ({cu}, {cv}) on {chart.label}"
            ) from None
        except NonConvergentLift:
            tried += 1
            if 2.0 * radius <= cap and tried < 40:
                radius *= 2.0
                continue
            raise

    index = total / (2.0 * math.pi)
    doubled = round(2.0 * index)
    if abs(2.0 * index - doubled) > 1e-3:
        raise NonConvergentLift(
            f"winding {index:.6f} is not a half-integer; radius {radius:.3e}"
        )
    return WindingResult(doubled / 2.0, evals, max_jump, radius)


def attach_indices(spec, records):
    """Copy of the record list with winding indices filled in."""
    out = []
    for rec in records:
        res = umbilic_index(spec, rec, records)
        out.append(replace(rec, index=res.index))
    return out


@dataclass(frozen=True)
class IndexSumReport:
    total: float
    passed: bool               # total == 2 exactly (Euler characteristic)

    def to_json(self):
        return {"sum": self.total, "pass": self.passed}


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


def conjecture_sweep(specs, find_cfg=None):
    """Umbilic index multisets across a parameter grid.

    Per-spec failures are recorded in the row, not raised, so one bad run
    cannot abort a sweep.  Returns (rows, constant) where ``constant`` says
    whether every successful row shares one multiset.
    """
    rows = []
    for spec in specs:
        try:
            recs = um.find_umbilics(spec, find_cfg)
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
