"""Umbilic point detection, closed-form locations, and epsilon thresholds.

Umbilics are the points where the curvature-line quadratic
A du^2 + B du dv + C dv^2 (:func:`umbilics.forms.line_quadratic`) vanishes
identically.  The finder seeds from the line field itself: it cuts each
chart into 63 x 63 cells, lifts the line angle psi along every cell edge
(:func:`umbilics.forms.lift_lines`, the bisection the index ring uses) and
reads psi's change around each cell, 2 pi times the index sum inside it
(Poincare-Hopf).  One Newton lane starts at the centre of every cell with a
nonzero winding and of every cell with an unresolved edge: one that meets a
degenerate sample or still hops after EDGE_DEPTH bisection levels, as near
flat umbilics.  No residual threshold picks the seeds.  A pair of index
+1/2 and -1/2 inside one cell sums to zero, so the cell size is the finder's
resolution.  The scan, the refiner and the index ring share one chart
margin: a point is usable when its radicand is at least surface.DELTA_VALID.

The lanes are refined by a damped Newton iteration on the two-equation
system (C, B), accepted where the line field is degenerate by the scan's own
rule (:func:`umbilics.forms.line_angle` is NaN), and deduplicated across charts.
Every family is even in every coordinate, and the finder does each piece of
mirrored work once.  The two charts of an axis give bit-identical forms at
the same (u, v), and within a chart the forms at (+-u, +-v) are those at
(u, v) with F and f negated, bit for bit.  So each axis is scanned in its +
chart, on the cells with u, v >= 0 only, and those seeds of all three +
charts are refined in lockstep as rows of one
:class:`umbilics.surface.ChartLane`, one kernel call per evaluation, by the
rules of a scalar refiner.  Flat umbilics (the axis points of the power
family are planar points) make that system vanish to high order, so the
refiner accelerates the resulting geometric step decay by extrapolation,
and every root is then snapped to its exact symmetry-line representative,
all roots in one kernel call.  The accepted roots are folded onto
u, v >= 0 and deduplicated there; each kept root is recorded at its
distinct images (+-u, +-v) in both charts of its axis.  A chart whose every
grid vertex is degenerate is an umbilic continuum (a sphere), reported as
one record.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import surface as sf
from .errors import NotApplicable

log = logging.getLogger(__name__)

ISOLATED = "isolated"
NON_ISOLATED = "non_isolated"


@dataclass(frozen=True)
class UmbilicRecord:
    ambient: tuple            # (x, y, z)
    chart: sf.ChartId         # chart the point was refined in
    uv: tuple                 # chart coordinates there
    residual: float
    kind: str = ISOLATED
    index: float = None       # half-integer winding index, filled in later

    def to_json(self) -> dict:
        d = {
            "xyz": list(self.ambient),
            "chart": self.chart.label,
            "uv": list(self.uv),
            "residual": self.residual,
            "kind": self.kind,
        }
        if self.index is not None:
            d["index"] = self.index
        return d


@dataclass(frozen=True)
class ThresholdReport:
    regime: str               # "a_greater_b" or "a_less_b"
    epsilon_critical: float
    predicted_count_below: int
    predicted_count_above: int

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "epsilon_critical": self.epsilon_critical,
            "count_below": self.predicted_count_below,
            "count_above": self.predicted_count_above,
        }


CELLS = 63                           # scan cells per chart axis (odd)
EDGE_DEPTH = 30                      # bisection levels of a scan-cell edge
DEDUP_REL = 1e-6                     # dedup radius over the surface diameter
MAX_NEWTON = 100


def scaled_residual(E, F, G, e, f, g):
    """Scale-invariant umbilic residual of a coefficient set (scalars or arrays).

    Norm of the line-quadratic coefficients (A, B, C) over
    (EG - F^2)(1 + |e| + |f| + |g|).  Squares by multiplying, as numpy's
    array ``** 2`` does (libm ``pow(x, 2)`` is not always correctly
    rounded), so float and array inputs give the same bits.
    """
    A, B, C = fm.line_quadratic(E, F, G, e, f, g)
    s2 = C * C + A * A + B * B
    s = math.sqrt(s2) if isinstance(s2, float) else np.sqrt(s2)
    return s / ((E * G - F * F) * (1.0 + abs(e) + abs(f) + abs(g)))


def umbilic_residual(spec, cp) -> float:
    """Scale-invariant umbilic residual; zero exactly at umbilic points."""
    sf.check_valid(spec, cp)
    return float(scaled_residual(*fm.closed_forms_arrays(spec, cp.chart, cp.u, cp.v)))


# ---------------------------------------------------------------------------
# Newton refinement


_SIDES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])   # u+h, u-h, v+h, v-h


def _norm(a):
    return np.linalg.norm(a, axis=-1)


def _system(spec, lane, X):
    """Unscaled umbilic system (C, B) at the rows (u, v) of X, row i taken in
    chart ``surface.ATLAS[lane[i]]``, and the mask of valid rows (the other
    rows are NaN).  One radicand call and one kernel call."""
    out = np.full(X.shape, np.nan)
    ok = sf.chart_valid(spec, sf.ChartLane(spec, lane), X[:, 0], X[:, 1])
    if ok.any():
        forms = fm.closed_forms_arrays(spec, sf.ChartLane(spec, lane[ok]), X[ok, 0], X[ok, 1])
        _, out[ok, 1], out[ok, 0] = fm.line_quadratic(*forms)
    return out, ok


def _newton_refine(spec, lane, seeds):
    """Damped Newton with geometric-step extrapolation from (n, 2) seeds,
    seed i in chart ``surface.ATLAS[lane[i]]``.

    The seeds run in lockstep as independent lanes, the active lanes'
    evaluations batched into one kernel call.  A lane stops when a
    Jacobian side point leaves the chart, its Jacobian is singular, seven
    halvings fail to lower |(C, B)|, or its step falls below 1e-14 relative.  Flat umbilics
    make Newton converge only linearly (ratio (m-1)/m for a root of
    multiplicity m); when three consecutive undamped steps decay
    geometrically the remaining tail is summed in one jump.  Returns the best
    point each lane reached; acceptance is the caller's degeneracy test.
    """
    x = np.array(seeds, float).reshape(-1, 2)
    fx, active = _system(spec, lane, x)
    steps = np.zeros((len(x), 3, 2))      # a lane's last undamped steps, newest last
    nsteps = np.zeros(len(x), int)
    for _ in range(MAX_NEWTON):
        lanes = np.flatnonzero(active)
        if lanes.size == 0:
            break
        xa = x[lanes]
        h = 1e-7 * (1.0 + np.abs(xa[:, 0]) + np.abs(xa[:, 1]))
        side = xa[:, None, :] + h[:, None, None] * _SIDES
        fs, ok = _system(spec, np.repeat(lane[lanes], 4), side.reshape(-1, 2))
        jac = np.stack([fs[0::4] - fs[1::4], fs[2::4] - fs[3::4]], axis=-1) / (2.0 * h)[:, None, None]
        ok = ok.reshape(-1, 4).all(axis=1)
        # np.linalg.solve raises for the whole stack if one matrix is
        # singular; det comes from the same LU and is zero where a pivot is.
        ok[ok] = np.linalg.det(jac[ok]) != 0.0
        active[lanes[~ok]] = False
        lanes, jac = lanes[ok], jac[ok]
        step = np.linalg.solve(jac, -fx[lanes][:, :, None])[:, :, 0]
        nf = _norm(fx[lanes])
        lam = np.ones(lanes.size)
        searching = np.ones(lanes.size, bool)
        for _ in range(7):
            s = np.flatnonzero(searching)
            if s.size == 0:
                break
            xt = x[lanes[s]] + lam[s, None] * step[s]
            ft, ok = _system(spec, lane[lanes[s]], xt)
            ok &= (_norm(ft) < nf[s]) | (_norm(lam[s, None] * step[s]) < 1e-15)
            x[lanes[s[ok]]], fx[lanes[s[ok]]] = xt[ok], ft[ok]
            searching[s[ok]] = False
            lam[s[~ok]] *= 0.5
        active[lanes[searching]] = False
        lanes, lam, step = lanes[~searching], lam[~searching], step[~searching]
        full = lam == 1.0
        steps[lanes[full]] = np.concatenate([steps[lanes[full], 1:], step[full, None]], axis=1)
        nsteps[lanes] = np.where(full, np.minimum(nsteps[lanes] + 1, 3), 0)
        c = lanes[full & (nsteps[lanes] == 3)]
        n1, n2, n3 = _norm(steps[c]).T
        with np.errstate(divide="ignore", invalid="ignore"):
            r1, r2 = n2 / n1, n3 / n2
        cos = np.sum(steps[c, 1] * steps[c, 2], axis=1) / np.maximum(n2 * n3, 1e-300)
        go = (n1 > 0) & (n2 > 0) & (0.2 < r2) & (r2 < 0.98) & (abs(r1 - r2) < 0.1) & (cos > 0.99)
        if go.any():
            c, r2 = c[go], r2[go]
            xe = x[c] + steps[c, 2] * (r2 / (1.0 - r2))[:, None]
            fe, ok = _system(spec, lane[c], xe)
            ok &= _norm(fe) <= _norm(fx[c])
            x[c[ok]], fx[c[ok]] = xe[ok], fe[ok]
            nsteps[c[ok]] = 0
        done = _norm(lam[:, None] * step) < 1e-14 * (1.0 + _norm(x[lanes]))
        active[lanes[done]] = False
    return x


def _snap_symmetry(spec, lane, x):
    """Try exact symmetry-line representatives of the (n, 2) roots ``x``,
    root i in chart ``surface.ATLAS[lane[i]]``; keep whichever residual wins.

    The families are mirror-symmetric in each chart coordinate and, when the
    in-plane coefficients coincide, under u <-> v; converged points that are
    numerically on a symmetry locus are replaced by the exact one.  A later
    candidate wins a tie, and the centre (0, 0) comes last: next to a flat
    axis point the forms can underflow to a residual of exactly 0 along a
    whole symmetry line.  The roots and their candidates are the rows of
    one ChartLane: one radicand call and one kernel call.  Returns the kept
    points, their residuals and whether the line field is degenerate there.
    """
    u, v = x.T
    near = 1e-5 * np.array([sum(sf.chart_bounds(spec, chart)) / 2.0 for chart in sf.ATLAS])[lane]
    m, n, zero = 0.5 * (u + v), 0.5 * (u - v), np.zeros_like(u)
    cu = np.concatenate([u, zero, u, m, n, zero])
    cv = np.concatenate([v, v, zero, m, 0.0 - n, zero])   # not -n: (0, -0.0) would print as -0.0
    on_u, on_v = np.abs(u) < near, np.abs(v) < near
    tried = np.concatenate([np.ones_like(on_u), on_u, on_v, np.abs(u - v) < near, np.abs(u + v) < near,
                            on_u & on_v])
    lanes = np.tile(lane, 6)
    tried[tried] = sf.chart_valid(spec, sf.ChartLane(spec, lanes[tried]), cu[tried], cv[tried])
    forms = fm.closed_forms_arrays(spec, sf.ChartLane(spec, lanes[tried]), cu[tried], cv[tried])
    res, umbilic = np.full(cu.shape, np.nan), np.zeros(cu.shape, bool)
    res[tried], umbilic[tried] = scaled_residual(*forms), np.isnan(fm.line_angle(*forms))
    rows = np.arange(len(x))
    best = rows.copy()                   # row of the kept point; NaN never wins
    for k in range(1, 6):
        best = np.where(res[k * len(x) + rows] <= res[best], k * len(x) + rows, best)
    return np.column_stack([cu[best], cv[best]]), res[best], umbilic[best]


def _cell_seeds(spec, charts):
    """Centres of the scan cells with u, v >= 0 that may hold an umbilic,
    one (n, 2) array per chart in grid order; None when a chart is an
    umbilic continuum.

    Each chart rectangle is cut into CELLS x CELLS cells.  A cell is a seed
    when the line angle lifted around it (:func:`umbilics.forms.lift_lines`)
    turns by 2 pi times a nonzero index sum, or when an edge of it is
    unresolved.  The forms are taken in one kernel call per chart, at the
    32 x 32 vertices with u, v > 0, and mirrored (F and f negated) onto the
    vertices just across the axes; the edges of the cells i, j >= CELLS // 2
    of all charts are lifted together.  The other cells are their mirror
    images, which hold the mirror images of their umbilics.
    """
    n, h = CELLS, CELLS // 2                 # cell h straddles both axes
    fold = np.r_[0, 0:h + 1]                 # block vertex -> quadrant vertex
    sign = np.r_[-1.0, np.ones(h + 1)]       # block vertex 0 lies across the axis
    offsets = np.arange(h, n + 1) - 0.5 * n  # block vertices: h..n of the whole grid
    shape = (len(charts), h + 2, h + 2)
    uu, vv, psi, valid = np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, bool)
    for i, chart in enumerate(charts):
        umax, vmax = sf.chart_bounds(spec, chart)
        uu[i], vv[i] = np.meshgrid(offsets * (2.0 * umax / n), offsets * (2.0 * vmax / n), indexing="ij")
        quad = sf.chart_valid(spec, chart, uu[i, 1:, 1:], vv[i, 1:, 1:])
        forms = np.full((6,) + quad.shape, np.nan)
        forms[:, quad] = fm.closed_forms_arrays(spec, chart, uu[i, 1:, 1:][quad], vv[i, 1:, 1:][quad])
        forms = forms[:, fold][:, :, fold]
        forms[[1, 4]] *= np.multiply.outer(sign, sign)
        valid[i], psi[i] = quad[fold][:, fold], fm.line_angle(*forms)
        if np.all(np.isnan(psi[i][valid[i]])):
            return None
    # Edges along u, from block vertex (i, j) to (i + 1, j), then along v,
    # from (i, j) to (i, j + 1), as flat vertex indices over all blocks.
    k = np.arange(uu.size).reshape(shape)
    starts = np.concatenate([k[:, :-1].ravel(), k[:, :, :-1].ravel()])
    ends = np.concatenate([k[:, 1:].ravel(), k[:, :, 1:].ravel()])
    uu, vv, valid, psi = uu.ravel(), vv.ravel(), valid.ravel(), psi.ravel()
    live = np.flatnonzero(valid[starts] & valid[ends])
    a, b = starts[live], ends[live]
    u0, v0, du, dv = uu[a], vv[a], uu[b] - uu[a], vv[b] - vv[a]
    change, _, resolved = fm.lift_lines(
        spec, np.array([sf.ATLAS.index(chart) for chart in charts])[a // k[0].size],
        np.arange(live.size), np.tile([0.0, 1.0], (live.size, 1)), np.stack([psi[a], psi[b]], axis=1),
        lambda i, t: (u0[i] + t * du[i], v0[i] + t * dv[i]), EDGE_DEPTH,
    )
    total = np.full(starts.size, np.nan)            # NaN: unresolved, or an end invalid
    total[live] = np.where(resolved, change, np.nan)
    c = h + 1                                       # block cells per axis
    tu = total[: total.size // 2].reshape(-1, c, c + 1)
    tv = total[total.size // 2:].reshape(-1, c + 1, c)
    # Counter-clockwise around cell (i, j): bottom, right, top, left.
    winding = tu[:, :, :-1] + tv[:, 1:, :] - tu[:, :, 1:] - tv[:, :-1, :]
    corners = valid.reshape(shape)
    inside = corners[:, :-1, :-1] & corners[:, 1:, :-1] & corners[:, :-1, 1:] & corners[:, 1:, 1:]
    seeds = []
    for chart, quad in zip(charts, inside & ~(np.abs(winding) < 0.5 * math.pi)):   # nonzero or NaN
        umax, vmax = sf.chart_bounds(spec, chart)
        seeds.append(np.argwhere(quad) * (2.0 * umax / n, 2.0 * vmax / n))   # block cell 0 is cell h
    return seeds


def find_umbilics(spec):
    """Locate umbilic points across the whole atlas.

    Returns deduplicated :class:`UmbilicRecord` entries sorted by rounded
    ambient coordinates.  An umbilic continuum (a sphere) gives a single
    record flagged ``non_isolated``, at the centre of the X+ chart.
    """
    pluses = [chart for chart in sf.ATLAS if chart.sign > 0]
    seeds = _cell_seeds(spec, pluses)
    if seeds is None:                         # a sphere: every chart is a continuum
        plus = pluses[0]
        res = float(scaled_residual(*fm.closed_forms_arrays(spec, plus, 0.0, 0.0)))
        point = tuple(float(c) for c in sf.chart_points(spec, plus, 0.0, 0.0))
        return [UmbilicRecord(point, plus, (0.0, 0.0), res, NON_ISOLATED)]
    lane = np.repeat([sf.ATLAS.index(plus) for plus in pluses], [len(cells) for cells in seeds])
    seeds = np.concatenate(seeds)
    if not len(seeds):
        return []
    # Snap first: a flat axis point is degenerate only where exactly symmetric.
    roots, residual, umbilic = _snap_symmetry(spec, lane, _newton_refine(spec, lane, seeds))
    for i, (u, v), res in zip(lane[~umbilic], seeds[~umbilic], residual[~umbilic]):
        log.debug("seed (%.3f, %.3f) on %s: line field not degenerate at the kept point"
                  " (residual %.2e)", u, v, sf.ATLAS[i].label, res)

    # Greedy dedup of the roots folded onto u, v >= 0 (so into the octant
    # x, y, z >= 0), in residual order: a root is kept unless it lies within
    # the dedup radius of one kept before it.  Folded points are the closest
    # of their mirror images, and a root's own images are distinct points.
    order = np.flatnonzero(umbilic)[np.argsort(residual[umbilic], kind="stable")]
    lane, roots, residual = lane[order], np.abs(roots[order]), residual[order].tolist()
    # One scalar chart_points call per root (numpy's scalar and array powers
    # may round apart); each image's ambient point is a sign flip of it.
    pts = np.array([sf.chart_points(spec, sf.ATLAS[i], u, v)
                    for i, (u, v) in zip(lane.tolist(), roots.tolist())]).reshape(-1, 3)
    far = _norm(pts[:, None, :] - pts[None, :, :]) >= DEDUP_REL * sf.surface_diameter(spec)
    kept = []
    for i in range(len(order)):
        if far[i, kept].all():
            kept.append(i)

    # Record each kept root's distinct images (+-u, +-v) in both charts of
    # its axis: the forms, and so the residual, are the same bits at all.
    found = []
    for i in kept:
        plus, (u, v) = sf.ATLAS[lane[i]], roots[i].tolist()
        signs = [(1.0, -1.0) if c else (1.0,) for c in (u, v)]
        for sign, su, sv in itertools.product((1, -1), *signs):
            flip = np.empty(3)
            flip[list(sf.placement(plus))] = su, sv, sign
            point = tuple((pts[i] * flip).tolist())
            found.append(UmbilicRecord(point, sf.ChartId(plus.axis, sign), (su * u, sv * v), residual[i]))
    return sorted(found, key=lambda r: tuple(round(c, 9) for c in r.ambient))


# ---------------------------------------------------------------------------
# Closed-form locations and thresholds


def closed_form_umbilics(spec):
    """Umbilic locations known in closed form, as ambient points.

    * superquadric: all 14 (six axis points, and eight diagonal points
      where a_i x_i^(2k-2) is the same for every axis i).
    * perturbed ellipsoid, a != b: the two poles, plus for epsilon above the
      critical value the eight mid-latitude (a > b) or eight diagonal
      (a < b) points.  The a < b equator octet has no closed form and is
      found numerically only.
    * ellipsoid with distinct coefficients: the classical four points.

    Raises NotApplicable where the dichotomy is silent (a = b perturbed
    surfaces with epsilon > 0, ellipsoids with repeated coefficients).
    """
    if spec.family == sf.SUPERQUADRIC:
        coefs, k = (spec.a, spec.b, spec.c), spec.k
        pts = []
        for i, coef in enumerate(coefs):
            for s in (1.0, -1.0):
                p = [0.0, 0.0, 0.0]
                p[i] = s * coef ** (-1.0 / (2 * k))
                pts.append(np.array(p))
        # Off the coordinate planes the Hessian diag(a_i x_i^(2k-2)) must be
        # isotropic: x_i = a_i^(-1/(2k-2)) (sum_j a_j^(-1/(k-1)))^(-1/(2k)).
        ssum = sum(coef ** (-1.0 / (k - 1)) for coef in coefs)
        base = np.array([coef ** (-1.0 / (2 * k - 2)) for coef in coefs]) * ssum ** (-1.0 / (2 * k))
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                for sz in (1.0, -1.0):
                    pts.append(base * (sx, sy, sz))
        return pts

    if spec.family == sf.PERTURBED_ELLIPSOID:
        a, b, eps = spec.a, spec.b, spec.epsilon
        if eps == 0.0:
            if a == b:
                raise NotApplicable("sphere: every point is umbilic")
            zp = math.sqrt(1.0 / b)
            return [np.array([0.0, 0.0, zp]), np.array([0.0, 0.0, -zp])]
        if a == b:
            raise NotApplicable(
                "a = b with epsilon > 0 is outside the threshold dichotomy"
            )
        zp = math.sqrt(1.0 / b)
        pts = [np.array([0.0, 0.0, zp]), np.array([0.0, 0.0, -zp])]
        thr = critical_epsilon(a, b)
        if eps <= thr.epsilon_critical:
            return pts
        # Just above eps_c a squared coordinate can round below 0; the
        # clamp puts the newborn octet at the pole (a > b) or on the
        # equator (a < b), its limit there.
        if a > b:
            v2 = (-a + math.sqrt(3.0 * b * (a * a + 4.0 * eps) / (2.0 * a + b))) / (
                2.0 * eps
            )
            z2 = (a - b) * (a * a + 4.0 * eps) / (2.0 * b * eps * (2.0 * a + b))
            vs, zs = math.sqrt(max(v2, 0.0)), math.sqrt(z2)
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    pts.append(np.array([0.0, s1 * vs, s2 * zs]))
                    pts.append(np.array([s1 * vs, 0.0, s2 * zs]))
        else:
            u2 = (b - a) / (6.0 * eps)
            z2 = (5.0 * a * a - 4.0 * a * b - b * b + 18.0 * eps) / (18.0 * b * eps)
            us, zs = math.sqrt(u2), math.sqrt(max(z2, 0.0))
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    for s3 in (1.0, -1.0):
                        pts.append(np.array([s1 * us, s2 * us, s3 * zs]))
        return pts

    # Ellipsoid: umbilics lie in the plane of the middle coefficient.
    a, b, c = spec.a, spec.b, spec.c
    if len({a, b, c}) != 3:
        raise NotApplicable("ellipsoid umbilic formula needs distinct a, b, c")
    order = sorted(range(3), key=lambda i: (a, b, c)[i])
    lo, mid, hi = order
    cs = (a, b, c)
    ci, cj, cl = cs[lo], cs[mid], cs[hi]
    x2 = cl * (cj - ci) / (ci * cj * (cl - ci))
    z2 = ci * (cl - cj) / (cj * cl * (cl - ci))
    pts = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            p = [0.0, 0.0, 0.0]
            p[lo] = s1 * math.sqrt(x2)
            p[hi] = s2 * math.sqrt(z2)
            pts.append(np.array(p))
    return pts


A_GREATER_B = "a_greater_b"
A_LESS_B = "a_less_b"


def critical_epsilon(a, b) -> ThresholdReport:
    """Critical quartic perturbation separating the umbilic-count regimes.

    For a > b the count jumps 2 -> 10 at eps = a^2 (a/b - 1) / 6; for a < b
    it jumps 2 -> 18 at eps = (5a + b)(b - a) / 18.
    """
    if not (a > 0 and b > 0):
        raise NotApplicable("coefficients must be positive")
    if a == b:
        raise NotApplicable("a = b has no threshold (no count dichotomy)")
    if a > b:
        return ThresholdReport(A_GREATER_B, a * a * (a / b - 1.0) / 6.0, 2, 10)
    return ThresholdReport(A_LESS_B, (5.0 * a + b) * (b - a) / 18.0, 2, 18)


def expected_count(spec):
    """Umbilic count implied by the closed-form results, or None where
    :func:`closed_form_umbilics` is silent.  The a < b equator octet above
    eps_c has no closed form and adds 8 to the points it lists."""
    try:
        pts = closed_form_umbilics(spec)
    except NotApplicable:
        return None
    octet = spec.family == sf.PERTURBED_ELLIPSOID and spec.a < spec.b and len(pts) > 2
    return len(pts) + (8 if octet else 0)


def match_distance(points_a, points_b) -> float:
    """Directed Hausdorff distance from set A to set B (max-min)."""
    if not points_a:
        return 0.0
    if not points_b:
        return math.inf
    pa = np.array([np.asarray(p, float) for p in points_a])
    pb = np.array([np.asarray(p, float) for p in points_b])
    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1)
    return float(d.min(axis=1).max())
