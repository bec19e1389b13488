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

Each line builds its chart's :func:`umbilics.forms.scalar_kernel` once.
Every field evaluation is one call of it with a radicand margin, so one
pass of the axis-term jets gives both the covered-zone test and the forms,
bit for bit those of :func:`umbilics.forms.closed_forms_arrays`.  The
Fehlberg stages and their sums are written out in one function per step.
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


def _field_direction(kernel, u, v, prev):
    """Principal direction at (u, v) continuing prev (unit in first form),
    and the forms there, from the chart's scalar form kernel; (None, None)
    outside the covered zone, which the kernel call itself tests, and where
    the first form is singular.  A chart dot product would pick the other
    family's axis where the first form is anisotropic."""
    forms = kernel(u, v, sf.DELTA_COVER)
    if forms is None:
        return None, None
    E, F, G, e, f, g = forms
    try:
        (au, av), (bu, bv) = fm.principal_directions(E, F, G, e, f, g)
    except InvalidChartPoint:
        return None, None
    pu, pv = prev
    da = E * au * pu + F * (au * pv + av * pu) + G * av * pv
    db = E * bu * pu + F * (bu * pv + bv * pu) + G * bv * pv
    if abs(da) < abs(db):
        au, av, da = bu, bv, db
    return ((au, av) if da > 0.0 else (-au, -av)), forms


def _fehlberg_step(kernel, xu, xv, h, f0):
    """One step of the embedded Fehlberg 4(5) pair from the node (xu, xv)
    with first stage slope f0: the fifth-order node and its distance to the
    fourth-order one, or None where a stage leaves the covered zone.

    The line field is autonomous, so no stage reads the nodes c_i.  Each
    slope sum runs in stage order from its first term, and the zero
    weights of the fifth- and fourth-order sums are left out.  Such a sum
    differs from a running sum from 0.0 only where it is -0.0 and that is
    +0.0, which gives the same point from any node but -0.0;
    :func:`trace_line` keeps its node off -0.0.
    """
    k0u, k0v = f0
    k1, _ = _field_direction(kernel, xu + h * (1 / 4 * k0u), xv + h * (1 / 4 * k0v), f0)
    if k1 is None:
        return None
    k1u, k1v = k1
    k2, _ = _field_direction(kernel, xu + h * (3 / 32 * k0u + 9 / 32 * k1u),
                             xv + h * (3 / 32 * k0v + 9 / 32 * k1v), f0)
    if k2 is None:
        return None
    k2u, k2v = k2
    k3, _ = _field_direction(
        kernel, xu + h * (1932 / 2197 * k0u + -7200 / 2197 * k1u + 7296 / 2197 * k2u),
        xv + h * (1932 / 2197 * k0v + -7200 / 2197 * k1v + 7296 / 2197 * k2v), f0)
    if k3 is None:
        return None
    k3u, k3v = k3
    k4, _ = _field_direction(
        kernel, xu + h * (439 / 216 * k0u + -8.0 * k1u + 3680 / 513 * k2u + -845 / 4104 * k3u),
        xv + h * (439 / 216 * k0v + -8.0 * k1v + 3680 / 513 * k2v + -845 / 4104 * k3v), f0)
    if k4 is None:
        return None
    k4u, k4v = k4
    k5, _ = _field_direction(
        kernel,
        xu + h * (-8 / 27 * k0u + 2.0 * k1u + -3544 / 2565 * k2u + 1859 / 4104 * k3u + -11 / 40 * k4u),
        xv + h * (-8 / 27 * k0v + 2.0 * k1v + -3544 / 2565 * k2v + 1859 / 4104 * k3v + -11 / 40 * k4v),
        f0)
    if k5 is None:
        return None
    k5u, k5v = k5
    x5u = xu + h * (16 / 135 * k0u + 6656 / 12825 * k2u + 28561 / 56430 * k3u + -9 / 50 * k4u
                    + 2 / 55 * k5u)
    x5v = xv + h * (16 / 135 * k0v + 6656 / 12825 * k2v + 28561 / 56430 * k3v + -9 / 50 * k4v
                    + 2 / 55 * k5v)
    x4u = xu + h * (25 / 216 * k0u + 1408 / 2565 * k2u + 2197 / 4104 * k3u + -1 / 5 * k4u)
    x4v = xv + h * (25 / 216 * k0v + 1408 / 2565 * k2v + 2197 / 4104 * k3v + -1 / 5 * k4v)
    return x5u, x5v, math.hypot(x5u - x4u, x5v - x4v)


def trace_line(spec, start: sf.ChartPoint, branch: int, arclen_max, sign=1):
    """Integrate one line of curvature from a non-umbilic start point.

    ``branch`` selects between the two principal directions at the start
    (ordered by angle); ``sign`` (+-1) flips the traversal sense.
    Stops at the requested arclength, near an umbilic, at the chart
    validity margin, or on step underflow.  The node, the stage slopes and
    the field directions are (u, v) pairs of Python floats, and every form
    evaluation is a call of the chart's :func:`umbilics.forms.scalar_kernel`,
    built once per line.
    """
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    chart = start.chart
    # check_valid raises InvalidChartPoint outside the chart; a start inside
    # the umbilic stop radius would stop before its first step.
    margin = sf.check_valid(spec, start)
    kernel = fm.scalar_kernel(spec, chart)
    forms = kernel(start.u, start.v)
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
    pts = [x]
    # x + 0.0 turns a -0.0 start coordinate into +0.0 and keeps any other
    # (see _fehlberg_step); no later node is -0.0.
    x = (x[0] + 0.0, x[1] + 0.0)
    s = 0.0
    h = min(MAX_STEP, max(arclen_max / 16.0, 4.0 * MIN_STEP))
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

        step = _fehlberg_step(kernel, *x, h, f0)
        if step is None:
            h *= 0.5
            if h < MIN_STEP:
                stop = CHART_BOUNDARY
                break
            continue

        x5u, x5v, err = step
        tol = ABS_TOL + REL_TOL * math.hypot(x5u, x5v)
        if err > tol:
            h = max(MIN_STEP, 0.9 * h * (tol / err) ** 0.2)
            continue

        f1, forms1 = _field_direction(kernel, x5u, x5v, f0)
        if f1 is None:
            stop = CHART_BOUNDARY
            break
        res = _step_residual(kernel, *x, x5u, x5v, f0, f1, h)
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
        x, f0 = (x5u, x5v), f1
        umb = um.scaled_residual(*forms1)
        s += h
        pts.append(x)
        arcs.append(s)
        if err > 0.0:
            h = min(MAX_STEP, 0.9 * h * (tol / err) ** 0.2)
        else:
            h = MAX_STEP

    return CurveTrace(chart, tuple(pts), tuple(arcs), tuple(residuals), stop)


def _step_residual(kernel, u0, v0, u1, v1, f0, f1, h):
    """Defining-quadratic residual of the step's Hermite midpoint derivative.

    Scale-free: normalized by the coefficient magnitudes and the squared
    derivative, so a perfectly integrated step scores ~ solver error.  The
    forms come from the midpoint, or from the chord midpoint where the
    Hermite one is not usable.
    """
    (pu, pv), (qu, qv) = f0, f1
    cu, cv = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
    du = 1.5 * (u1 - u0) / h - 0.25 * (pu + qu)
    dv = 1.5 * (v1 - v0) / h - 0.25 * (pv + qv)
    forms = kernel(cu + h / 8.0 * (pu - qu), cv + h / 8.0 * (pv - qv), sf.DELTA_VALID)
    if forms is None:
        forms = kernel(cu, cv)
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
