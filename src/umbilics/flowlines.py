"""Lines of curvature: adaptive tracing of the principal line field.

A curvature line satisfies the homogeneous quadratic of
:func:`umbilics.forms.line_quadratic`, the one line-field kernel

    (fE - eF) u'^2 + (gE - eG) u'v' + (gF - fG) v'^2 = 0

Its two roots, from :func:`umbilics.forms.principal_directions`, are the
field directions.  Tracing integrates the unit-speed direction field with
an embedded Fehlberg 4(5) pair, continuing with the principal axis at the
smallest surface angle to the previous direction (largest first-form
|I(w, prev)|, signed to agree).  Each accepted step logs a discretization
residual: the same quadratic evaluated on the cubic-Hermite midpoint
derivative of the step, i.e. a measure of how well the numerical curve
satisfies the defining equation between nodes.

Every field evaluation is one scalar :func:`umbilics.forms.closed_forms_arrays`
call with a radicand margin, so one pass of the axis-term jets gives both
the covered-zone test and the forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import surface as sf
from . import umbilic as um
from .errors import InvalidChartPoint, StartsAtUmbilic

LENGTH_REACHED = "length_reached"
NEAR_UMBILIC = "near_umbilic"
CHART_BOUNDARY = "chart_boundary"
STEP_UNDERFLOW = "step_underflow"

MIN_STEP = 1e-12
MAX_STEP = 1e-2
UMB_STOP = 1e-6                # umbilic-residual stop radius
EXCURSION_FRAC = 0.02          # share of steps allowed above the residual bound
ABS_TOL = 1e-10                # step error tolerance: absolute part
REL_TOL = 1e-8                 # and relative part
RES_BOUND = 1e-5               # advertised per-step residual bound
# Step-rejection threshold for the per-step residual.  Tied to REL_TOL so
# tightening the integrator tolerance tightens the realized residuals too;
# 250 x 1e-8 sits at a quarter of RES_BOUND.
RES_TARGET = 250.0 * REL_TOL


@dataclass(frozen=True)
class CurveTrace:
    chart: sf.ChartId
    points: tuple              # ChartPoint tuples as (u, v)
    arclengths: tuple
    residuals: tuple           # per accepted step (len(points) - 1 entries)
    stop_reason: str

    def within_residual_bound(self, res_bound=RES_BOUND) -> bool:
        bad = sum(1 for r in self.residuals if r >= res_bound)
        return bad <= EXCURSION_FRAC * len(self.residuals)


def _field_direction(spec, chart, u, v, prev):
    """Principal direction at (u, v) continuing prev (unit in first form),
    and the forms there; (None, None) outside the covered zone, which the
    kernel call itself tests, and where the first form is singular.  A
    chart dot product would pick the other family's axis where the first
    form is anisotropic."""
    forms = fm.closed_forms_arrays(spec, chart, u, v, sf.DELTA_COVER)
    if forms is None:
        return None, None
    E, F, G = forms[:3]
    try:
        (au, av), (bu, bv) = fm.principal_directions(*forms)
    except InvalidChartPoint:
        return None, None
    pu, pv = prev
    da = E * au * pu + F * (au * pv + av * pu) + G * av * pv
    db = E * bu * pu + F * (bu * pv + bv * pu) + G * bv * pv
    if abs(da) < abs(db):
        au, av, da = bu, bv, db
    return ((au, av) if da > 0.0 else (-au, -av)), forms


# Fehlberg 4(5) embedded pair; the line field is autonomous, so no stage
# reads the nodes c_i.
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def _combine(x, h, weights, ks):
    """The node x + h * sum(w_i k_i) of (u, v) float pairs, summed in
    stage order."""
    su = sv = 0.0
    for w, (ku, kv) in zip(weights, ks):
        su += w * ku
        sv += w * kv
    return x[0] + h * su, x[1] + h * sv


def trace_line(spec, start: sf.ChartPoint, branch: int, arclen_max, sign=1):
    """Integrate one line of curvature from a non-umbilic start point.

    ``branch`` selects between the two principal directions at the start
    (ordered by angle); ``sign`` (+-1) flips the traversal sense.
    Stops at the requested arclength, near an umbilic, at the chart
    validity margin, or on step underflow.  The node, the stage slopes and
    the field directions are (u, v) pairs of Python floats, so the scalar
    kernel calls each step makes run without numpy dispatch.
    """
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    chart = start.chart
    # check_valid raises InvalidChartPoint outside the chart; a start inside
    # the umbilic stop radius would stop before its first step.
    margin = sf.check_valid(spec, start)
    forms = fm.closed_forms_arrays(spec, chart, start.u, start.v)
    umb = um.scaled_residual(*forms)
    if umb < UMB_STOP:
        raise StartsAtUmbilic(
            f"({start.u}, {start.v}) on {chart.label} is an umbilic point"
        )

    # Direction (None: start outside the covered zone) and umbilic residual
    # of the current node, each evaluated once; a rejected step reuses both.
    f0 = None
    if margin >= sf.DELTA_COVER:
        du, dv = fm.principal_directions(*forms)[branch]
        f0 = (sign * du, sign * dv)
    x = (float(start.u), float(start.v))
    s = 0.0
    h = min(MAX_STEP, max(arclen_max / 16.0, 4.0 * MIN_STEP))
    pts = [x]
    arcs = [0.0]
    residuals = []
    stop = LENGTH_REACHED

    while s < arclen_max - MIN_STEP:
        if umb < UMB_STOP:
            stop = NEAR_UMBILIC
            break
        h = min(h, arclen_max - s)
        if h < MIN_STEP:
            stop = STEP_UNDERFLOW
            break
        if f0 is None:
            stop = CHART_BOUNDARY
            break

        ks = [f0]
        for i in range(1, 6):
            y = _combine(x, h, _RKF_A[i], ks)
            fi, _ = _field_direction(spec, chart, *y, f0)
            if fi is None:
                break
            ks.append(fi)
        if len(ks) < 6:
            h *= 0.5
            if h < MIN_STEP:
                stop = CHART_BOUNDARY
                break
            continue

        x5 = _combine(x, h, _RKF_B5, ks)
        x4 = _combine(x, h, _RKF_B4, ks)
        err = math.hypot(x5[0] - x4[0], x5[1] - x4[1])
        tol = ABS_TOL + REL_TOL * math.hypot(*x5)
        if err > tol:
            h = max(MIN_STEP, 0.9 * h * (tol / err) ** 0.2)
            continue

        f1, forms1 = _field_direction(spec, chart, *x5, f0)
        if f1 is None:
            stop = CHART_BOUNDARY
            break
        res = _step_residual(spec, chart, x, x5, f0, f1, h)
        if res > RES_TARGET:
            if h > 4.0 * MIN_STEP:
                # The (u, v) error estimate missed fast direction-field
                # variation; retry the step at half size.
                h *= 0.5
                continue
            # Direction field effectively discontinuous here (a degenerate
            # curvature band): refuse to emit garbage steps.
            stop = STEP_UNDERFLOW
            break
        residuals.append(res)
        x, f0 = x5, f1
        umb = um.scaled_residual(*forms1)
        s += h
        pts.append(x)
        arcs.append(s)
        if err > 0.0:
            h = min(MAX_STEP, 0.9 * h * (tol / err) ** 0.2)
        else:
            h = MAX_STEP

    return CurveTrace(chart, tuple(pts), tuple(arcs), tuple(residuals), stop)


def _step_residual(spec, chart, x0, x1, f0, f1, h):
    """Defining-quadratic residual of the step's Hermite midpoint derivative.

    Scale-free: normalized by the coefficient magnitudes and the squared
    derivative, so a perfectly integrated step scores ~ solver error.  The
    forms come from the midpoint, or from the chord midpoint where the
    Hermite one is not usable.
    """
    chord = [0.5 * (a + b) for a, b in zip(x0, x1)]
    mid = [c + (h / 8.0) * (a - b) for c, a, b in zip(chord, f0, f1)]
    du, dv = (1.5 * (b - a) / h - 0.25 * (p + q) for a, b, p, q in zip(x0, x1, f0, f1))
    forms = fm.closed_forms_arrays(spec, chart, *mid, sf.DELTA_VALID)
    if forms is None:
        forms = fm.closed_forms_arrays(spec, chart, *chord)
    A, B, C = fm.line_quadratic(*forms)
    q = A * du * du + B * du * dv + C * dv * dv
    scale = (abs(A) + abs(B) + abs(C)) * (du * du + dv * dv) + 1e-300
    return abs(q) / scale


def residual_log(trace: CurveTrace):
    """(arclength, log10 residual) pairs for plotting."""
    if not trace.points:
        raise ValueError("empty trace")
    out = []
    for s, r in zip(trace.arclengths[1:], trace.residuals):
        out.append((s, math.log10(max(r, 1e-300))))
    return out


def trace_to_csv(spec, trace: CurveTrace, path):
    """Write a trace as CSV: arclength, u, v, x, y, z, residual."""
    uv = np.array(trace.points)
    xyz = sf.chart_points(spec, trace.chart, uv[:, 0], uv[:, 1]).tolist()
    rows = zip(trace.arclengths, trace.points, xyz, (0.0,) + trace.residuals)
    # The rows csv.writer gives: no field holds a comma, quote or newline.
    with open(path, "w", newline="") as fh:
        fh.write("arclength,u,v,x,y,z,residual\r\n")
        for s, (u, v), (x, y, z), res in rows:
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n" % (s, u, v, x, y, z, res))
