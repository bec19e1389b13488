"""Fundamental forms, line field, principal directions and curvatures, convexity scan.

Two independent evaluation paths are provided and cross-checked in tests:

* :func:`forms_closed` evaluates the analytic second-order jet of the chart
  height function (see :func:`umbilics.surface.height_jet`) and assembles
  the coefficients through the Monge-patch identities;
* :func:`forms_numeric` differentiates the chart map with 4th-order central
  stencils and assembles through explicit ambient frame vectors, knowing
  nothing about the analytic derivatives.

Second-form coefficients use the unit normal, oriented so the principal
curvatures of these convex surfaces come out positive; this fixes the
magnitudes of K, H, k1, k2 while leaving every umbilic/line-of-curvature
equation's zero set unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import surface as sf
from .errors import MarginTooSmall

# Step for 4th-order difference stencils, scaled by (1 + |u| + |v|).
H_FD = float(np.finfo(float).eps) ** 0.2

CONVEXITY_TOL = 1e-10

LINE_DEGENERATE = 1e3 * float(np.finfo(float).eps)   # line-quadratic separation at noise level
MAX_JUMP = math.pi / 4.0       # a lifted hop at least this large splits its segment

# R2 low-discrepancy sequence: n (1/g, 1/g^2) mod 1, g the plastic number
# (the real root of x^3 = x + 1).
_PLASTIC = 1.324717957244746
_R2_STEP = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])


@dataclass(frozen=True)
class FundamentalForms:
    E: float
    F: float
    G: float
    e: float
    f: float
    g: float

    @property
    def det_first(self):
        return self.E * self.G - self.F * self.F


@dataclass(frozen=True)
class CurvatureSummary:
    K: float
    H: float
    k1: float                 # larger principal curvature
    k2: float
    dir1: tuple               # chart (du, dv), unit in the first form, angle in [0, pi)
    dir2: tuple
    degenerate: bool          # |k1 - k2| below tol_umb: dirs are arbitrary


def tol_umb(k1, k2) -> float:
    """Curvature-separation threshold below which a point counts as umbilic."""
    return 1e-9 * (abs(k1) + abs(k2) + 1.0)


def _assemble(su, sv, suu, suv, svv, grad):
    """E, F, G, e, f, g from chart-map derivative vectors (arrays of (..., 3)).

    The unit normal is oriented outward via the implicit gradient and the
    second form is taken against the inward normal, making it positive
    definite on convex surfaces.
    """
    E = np.sum(su * su, axis=-1)
    F = np.sum(su * sv, axis=-1)
    G = np.sum(sv * sv, axis=-1)
    n = np.cross(su, sv)
    w = np.linalg.norm(n, axis=-1)
    sigma = np.where(np.sum(n * grad, axis=-1) >= 0.0, 1.0, -1.0)
    nu = n * (sigma / w)[..., None]
    e = -np.sum(nu * suu, axis=-1)
    f = -np.sum(nu * suv, axis=-1)
    g = -np.sum(nu * svv, axis=-1)
    return E, F, G, e, f, g


def closed_forms_arrays(spec, chart, u, v):
    """Vectorized closed-form coefficients (E, F, G, e, f, g) at (u, v).

    Uses the Monge-patch identities E = 1 + hu^2, F = hu hv, G = 1 + hv^2
    and |Su x Sv| = sqrt(1 + hu^2 + hv^2); the second form is the height
    Hessian over that norm, signed by the chart sign so it is positive
    definite on convex surfaces (the outward normal's height component has
    the sign of the height).  ``chart`` may be a ChartLane (rows in several
    charts).  Caller guarantees validity; no checks.
    """
    _, hu, hv, huu, huv, hvv = sf.height_jet(spec, chart, u, v)
    E = 1.0 + hu * hu
    F = hu * hv
    G = 1.0 + hv * hv
    w2 = 1.0 + hu * hu + hv * hv
    # Both square roots are correctly rounded; a float ** 0.5 (libm pow) is not.
    w = math.sqrt(w2) if isinstance(w2, float) else np.sqrt(w2)
    e = -chart.sign * huu / w
    f = -chart.sign * huv / w
    g = -chart.sign * hvv / w
    return E, F, G, e, f, g


def forms_closed(spec, cp) -> FundamentalForms:
    """Fundamental form coefficients from the analytic chart jet."""
    sf.check_valid(spec, cp)
    vals = closed_forms_arrays(spec, cp.chart, cp.u, cp.v)
    return FundamentalForms(*(float(x) for x in vals))


def boundary_distance(spec, chart, u, v) -> float:
    """Estimated (u, v)-distance to the chart boundary: radicand over its
    own finite-difference slope.  Infinite where the radicand is flat."""
    r0 = float(sf.radicand(spec, chart, u, v))
    d = 1e-6 * (1.0 + abs(u) + abs(v))
    ru = float(sf.radicand(spec, chart, u + d, v)) - float(sf.radicand(spec, chart, u - d, v))
    rv = float(sf.radicand(spec, chart, u, v + d)) - float(sf.radicand(spec, chart, u, v - d))
    slope = (abs(ru) + abs(rv)) / (2.0 * d)
    if slope <= 0.0:
        return math.inf
    return r0 / slope


def fd_step(spec, chart, u, v) -> float:
    """Difference step: eps^(1/5) position-scaled, shrunk near the boundary.

    Near the chart boundary the height derivatives grow like inverse powers
    of the boundary distance, so the step is clamped to a fraction of that
    distance to keep the relative truncation error at the 1e-6 level.  The
    clamp trades away absolute accuracy on near-zero coefficients (stencil
    rounding grows as the step shrinks); both tolerances hold wherever the
    clamp is inactive, i.e. at boundary distance >= 64 base steps.
    """
    base = H_FD * (1.0 + abs(u) + abs(v))
    return min(base, boundary_distance(spec, chart, u, v) / 64.0)


def forms_numeric(spec, cp) -> FundamentalForms:
    """Fundamental forms by 4th-order central differencing of the chart map.

    Independent of the analytic jet: only the chart map itself is evaluated.
    Raises MarginTooSmall when the stencil would leave the chart domain or
    sit too close to the boundary for the advertised accuracy.
    """
    sf.check_valid(spec, cp)
    u, v = float(cp.u), float(cp.v)
    h = fd_step(spec, cp.chart, u, v)
    if h < 1e-7:
        raise MarginTooSmall(
            f"point ({u}, {v}) too close to the {cp.chart.label} boundary"
        )
    offs = np.arange(-2, 3) * h
    uu, vv = np.meshgrid(u + offs, v + offs, indexing="ij")
    if not np.all(sf.chart_valid(spec, cp.chart, uu, vv)):
        raise MarginTooSmall(
            f"difference stencil leaves chart {cp.chart.label} near ({u}, {v})"
        )
    grid = sf.chart_points(spec, cp.chart, uu, vv)   # (5, 5, 3), center (2, 2)

    # Pairwise antisymmetric differences: on a mirror-symmetric chart slice
    # the opposing samples cancel exactly, so F and f vanish bit-exactly on
    # the symmetry loci just like the closed forms.
    def d1(plus1, minus1, plus2, minus2):
        return (8.0 * (plus1 - minus1) - (plus2 - minus2)) / (12.0 * h)

    def d2(center, plus1, minus1, plus2, minus2):
        return (16.0 * (plus1 + minus1) - (plus2 + minus2) - 30.0 * center) / (
            12.0 * h * h
        )

    su = d1(grid[3, 2], grid[1, 2], grid[4, 2], grid[0, 2])
    sv = d1(grid[2, 3], grid[2, 1], grid[2, 4], grid[2, 0])
    suu = d2(grid[2, 2], grid[3, 2], grid[1, 2], grid[4, 2], grid[0, 2])
    svv = d2(grid[2, 2], grid[2, 3], grid[2, 1], grid[2, 4], grid[2, 0])
    sv_at = [d1(grid[i, 3], grid[i, 1], grid[i, 4], grid[i, 0]) for i in range(5)]
    suv = d1(sv_at[3], sv_at[1], sv_at[4], sv_at[0])

    vals = _assemble(su, sv, suu, suv, svv, sf.implicit_gradient(spec, grid[2, 2]))
    return FundamentalForms(*(float(x) for x in vals))


def line_quadratic(E, F, G, e, f, g):
    """Coefficients (fE - eF, gE - eG, gF - fG) of the curvature-line
    equation A du^2 + B du dv + C dv^2 = 0; all three vanish exactly at
    umbilics.  Scalars or arrays."""
    return f * E - e * F, g * E - e * G, g * F - f * G


def principal_directions(E, F, G, e, f, g):
    """Both principal directions: the roots psi -+ delta of the curvature-line
    quadratic, as chart (du, dv) float pairs unit in the first form and
    ordered by chart angle in [0, pi).

    On unit chart directions the quadratic is (A + C)/2 + R cos(2 phi - 2 psi)
    with 2R = hypot(A - C, B), so its roots sit at psi -+ delta with
    cos 2 delta = -(A + C) / 2R and sin 2 delta = sqrt(B^2 - 4AC) / 2R.
    Scalars in.  At (near-)umbilic points the pair is arbitrary: callers
    apply their own degeneracy rule.
    """
    A, B, C = line_quadratic(E, F, G, e, f, g)
    psi = 0.5 * math.atan2(B, A - C)
    delta = 0.5 * math.atan2(math.sqrt(max(B * B - 4.0 * A * C, 0.0)), -(A + C))
    t0, t1 = (psi - delta) % math.pi, (psi + delta) % math.pi
    if t1 < t0:
        t0, t1 = t1, t0
    return (first_form_unit(E, F, G, math.cos(t0), math.sin(t0)),
            first_form_unit(E, F, G, math.cos(t1), math.sin(t1)))


def line_angle(E, F, G, e, f, g):
    """Line angle psi = atan2(B, A - C) / 2 of the curvature-line quadratic
    (A, B, C), as an array; NaN at degenerate points.

    On the unit circle of chart directions the quadratic is
    (A + C)/2 + |beta| cos(2 phi - arg beta), beta = ((A - C) + iB)/2, so its
    roots lie symmetric about psi: psi bisects the principal directions and
    winds as they do.  A point is degenerate when hypot(A - C, B) (k1 - k2
    in a principal orthonormal frame) is within LINE_DEGENERATE of the
    rounding scale of A, B and C, the sum of their products' magnitudes.
    """
    A, B, C = line_quadratic(E, F, G, e, f, g)
    scale = sum(np.abs(x * y) for x, y in ((f, E), (e, F), (g, E), (e, G), (g, F), (f, G)))
    return np.where(np.hypot(A - C, B) > LINE_DEGENERATE * scale, 0.5 * np.arctan2(B, A - C), np.nan)


def lift_lines(spec, charts, ts, psi, points, max_depth):
    """Lift the line angle continuously along polylines, each in its own chart.

    The index rings are such polylines, all lifted together; the finder
    does not lift (it solves the umbilic strata directly).  Polyline k lies
    in chart ``surface.ATLAS[charts[k]]`` and runs through its samples:
    row k of ``ts`` and ``psi``, of shape (polylines, samples), holds the
    curve parameter and :func:`line_angle` at each.  Angles are taken
    modulo pi (a line field has no orientation): a segment's hop is the
    mod-pi distance from its first angle to the nearest representative of
    its second.  Every segment whose hop reaches MAX_JUMP is split at its
    midpoint, level by level: ``points(ids, ts)`` gives the (u, v) arrays of
    a level's midpoints on polylines ``ids``, and they all take their forms
    in one kernel call.  The split test reads only a segment's two end
    angles, so the sample set is the one any splitting order would reach.

    A polyline with a degenerate sample, or one still hopping over a
    segment ``max_depth`` levels deep, is unresolved and split no further.
    Returns per polyline (total lifted change, midpoints taken, resolved)
    as arrays; every hop of a resolved polyline is below MAX_JUMP.
    """
    n, m = psi.shape
    total = np.zeros(n)
    mids_taken = np.zeros(n, int)
    resolved = ~np.isnan(psi).any(axis=1)
    # Segment j of polyline k joins its samples j and j + 1.
    line = np.repeat(np.arange(n), m - 1)
    ts = np.stack([ts[:, :-1], ts[:, 1:]], axis=2).reshape(-1, 2)
    psi = np.stack([psi[:, :-1], psi[:, 1:]], axis=2).reshape(-1, 2)
    for depth in range(max_depth + 1):
        hops = psi[:, 1] - psi[:, 0]
        hops -= math.pi * np.round(hops / math.pi)
        split = np.abs(hops) >= MAX_JUMP
        done = ~split
        total += np.bincount(line[done], hops[done], n)
        if depth == max_depth:
            resolved[line[split]] = False
        keep = split & resolved[line]
        if not keep.any():
            break
        line, ts, psi = line[keep], ts[keep], psi[keep]
        mid = 0.5 * (ts[:, 0] + ts[:, 1])
        lane = sf.ChartLane(spec, charts[line])
        mid_psi = line_angle(*closed_forms_arrays(spec, lane, *points(line, mid)))
        resolved[line[np.isnan(mid_psi)]] = False
        mids_taken += np.bincount(line, minlength=n)
        # Each split segment becomes its two halves.
        line = np.repeat(line, 2)
        ts = np.stack([ts[:, 0], mid, mid, ts[:, 1]], axis=1).reshape(-1, 2)
        psi = np.stack([psi[:, 0], mid_psi, mid_psi, psi[:, 1]], axis=1).reshape(-1, 2)
    return total, mids_taken, resolved


def first_form_unit(E, F, G, du, dv):
    """Chart direction (du, dv) scaled to unit length in the first form."""
    norm = math.sqrt(E * du * du + 2.0 * F * du * dv + G * dv * dv)
    return (du / norm, dv / norm)


def curvature_summary(spec, cp) -> CurvatureSummary:
    """Curvatures and principal directions at a chart point.

    At (near-)umbilic points the directions are arbitrary; a chart-axis
    aligned first-form-orthonormal basis is returned with ``degenerate``
    set so downstream code can detect rather than consume them.
    """
    ff = forms_closed(spec, cp)
    E, F, G, e, f, g = ff.E, ff.F, ff.G, ff.e, ff.f, ff.g
    det = ff.det_first
    K = (e * g - f * f) / det
    H = (e * G - 2.0 * f * F + g * E) / (2.0 * det)
    # k1 >= k2: the normal curvatures along the unit principal directions
    d1, d2 = principal_directions(E, F, G, e, f, g)
    k1, k2 = (e * du * du + 2.0 * f * du * dv + g * dv * dv for du, dv in (d1, d2))
    if k1 < k2:
        k1, k2, d1, d2 = k2, k1, d2, d1
    degenerate = abs(k1 - k2) < tol_umb(k1, k2)
    if degenerate:
        d1 = first_form_unit(E, F, G, 1.0, 0.0)
        # Gram-Schmidt of the v axis against the u axis in the first form
        d2 = first_form_unit(E, F, G, -F / E, 1.0)
    return CurvatureSummary(K, H, k1, k2, d1, d2, degenerate)


def gaussian_curvature_arrays(spec, chart, u, v):
    """Vectorized Gaussian curvature at valid (u, v) arrays.

    Where E G - F^2 overflows (the Z charts of pe(1, 1e-200, 0.1), where E,
    F and G reach 1e203), it is taken as E + G - 1, equal to it for these
    Monge forms (both are 1 + hu^2 + hv^2); every other point keeps the
    plain quotient, bit for bit.
    """
    E, F, G, e, f, g = closed_forms_arrays(spec, chart, u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        det = E * G - F * F
    return (e * g - f * f) / np.where(np.isfinite(det), det, E + G - 1.0)


@dataclass(frozen=True)
class ConvexityReport:
    min_K: float
    argmin_chart: str
    argmin_uv: tuple
    samples: int
    passed: bool


def convexity_scan(spec, n_samples, seed=0) -> ConvexityReport:
    """Scan quasi-random valid chart points for the minimum Gaussian curvature.

    The points come from the R2 sequence, shifted by a seeded random offset;
    its index runs on from one chart to the next, and all charts take one
    kernel call.  The first minimum in that order is reported.  Passes when
    min K >= -CONVEXITY_TOL, i.e. the sampled surface is convex up to
    floating-point noise.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    charts = sf.ATLAS
    per_chart = max(1, n_samples // len(charts))
    shift = np.random.default_rng(seed).random(2)
    pts = shift + np.arange(len(charts) * per_chart)[:, None] * _R2_STEP
    # x - floor(x) is x mod 1 exactly for x >= 0, at a fraction of np.remainder's cost.
    pts = (pts - np.floor(pts)).reshape(len(charts), per_chart, 2)
    half = np.array([sf.chart_bounds(spec, chart) for chart in charts])
    uu = (2.0 * pts[..., 0] - 1.0) * half[:, :1]
    vv = (2.0 * pts[..., 1] - 1.0) * half[:, 1:]
    mask = sf.chart_valid(spec, sf.ChartLane(spec, np.arange(len(charts))[:, None]), uu, vv,
                          margin=sf.DELTA_COVER)
    lane, u, v = np.nonzero(mask)[0], uu[mask], vv[mask]
    if not lane.size:
        return ConvexityReport(math.inf, charts[0].label, (0.0, 0.0), 0, True)
    K = gaussian_curvature_arrays(spec, sf.ChartLane(spec, lane), u, v)
    i = int(np.argmin(K))
    best = float(K[i])
    return ConvexityReport(best, charts[lane[i]].label, (float(u[i]), float(v[i])), lane.size,
                           best >= -CONVEXITY_TOL)
