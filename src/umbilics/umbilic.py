"""Umbilic point detection, closed-form locations, and epsilon thresholds.

Umbilics are the points where the curvature-line quadratic
A du^2 + B du dv + C dv^2 (:func:`umbilics.forms.line_quadratic`) vanishes
identically.  Every family is F = T_x(x) + T_y(y) + T_z(z) - 1 with even
axis terms, so the Hessian of F is diagonal, d_i = T_i''(x_i), and a point
is umbilic exactly when that Hessian projected onto the tangent plane is
isotropic (the implicit shape operator; Goldman, "Curvature formulas for
implicit curves and surfaces", CAGD 22, 2005).  With g_i = T_i'(x_i) the
umbilic set splits into strata, each a root problem in one variable at
most:

* axis of x_i: umbilic exactly when T_j''(0) = T_k''(0);
* face x_k = 0, x_i, x_j != 0: (d_i - d_k) g_j^2 + (d_j - d_k) g_i^2 = 0
  on the curve T_i + T_j = 1, sampled and refined by regula falsi;
* off the coordinate planes: d_x = d_y = d_z = lambda, solved per axis
  in closed form, one point per octant or none.

The finder solves each stratum in the octant x, y, z >= 0 from the axis
terms (``spec.terms``) alone, and records every point at its distinct
mirror images (sign flips), each in its home chart: the chart of the axis
with the largest |dF/dx_i|, on that coordinate's side.  The strata are
disjoint, so no point is found twice.  All residuals come from one kernel
call.  A face sample whose value is within ROUNDING_FLOOR of its magnitude
sum has no known sign, so roots that rounding cannot resolve are not
reported.  When every axis term is c s^2 with the same c the surface is a
sphere, an umbilic continuum, reported as one record.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import surface as sf
from .errors import NotApplicable

ISOLATED = "isolated"
NON_ISOLATED = "non_isolated"


@dataclass(frozen=True)
class UmbilicRecord:
    ambient: tuple            # (x, y, z)
    chart: sf.ChartId         # home chart: the axis of largest |dF/dx_i|, signed
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


FACE_SAMPLES = 2000                  # linear samples of a face curve's parameter
END_SAMPLES = 600                    # log-spaced samples toward each end, down to 1e-300
# A face sample whose value is at most this fraction of its magnitude sum has no known sign.
ROUNDING_FLOOR = 64.0 * float(np.finfo(float).eps)
MAX_FALSI = 100                      # regula falsi steps; brackets collapse in far fewer


def scaled_residual(E, F, G, e, f, g):
    """Scale-invariant umbilic residual of a coefficient set (scalars or arrays).

    Norm of the line-quadratic coefficients (A, B, C) over
    (EG - F^2)(1 + |e| + |f| + |g|).  Squares by multiplying, as numpy's
    array ``** 2`` does (libm ``pow(x, 2)`` is not always correctly
    rounded), so float and array inputs give the same bits.  Where the sum
    of squares overflows, the norm is taken of (A, B, C) over its largest
    magnitude, times that magnitude.
    """
    A, B, C = fm.line_quadratic(E, F, G, e, f, g)
    den = (E * G - F * F) * (1.0 + abs(e) + abs(f) + abs(g))
    if isinstance(A, float):
        s2 = C * C + A * A + B * B
        if s2 == math.inf:
            m = max(abs(A), abs(B), abs(C))
            if m < math.inf:
                A, B, C = A / m, B / m, C / m
                return m * math.sqrt(C * C + A * A + B * B) / den
        return math.sqrt(s2) / den
    with np.errstate(over="ignore"):
        s2 = C * C + A * A + B * B
    if np.isinf(s2).any():
        m = np.maximum(np.maximum(np.abs(A), np.abs(B)), np.abs(C))
        over = np.isinf(s2) & np.isfinite(m)
        m = np.where(over, m, 1.0)               # x / 1.0 and 1.0 * x keep x's bits
        A, B, C = A / m, B / m, C / m
        return m * np.sqrt(np.where(over, C * C + A * A + B * B, s2)) / den
    return np.sqrt(s2) / den


def umbilic_residual(spec, cp) -> float:
    """Scale-invariant umbilic residual; zero exactly at umbilic points."""
    sf.check_valid(spec, cp)
    return float(scaled_residual(*fm.closed_forms_arrays(spec, cp.chart, cp.u, cp.v)))


# ---------------------------------------------------------------------------
# Stratified finder


def _at_zero(term):
    """T''(0) of an axis term: 2c where m = 2, else 0."""
    return term.scales[2][0] if term.m == 2 else 0.0


def _slope_rise(term, s):
    """T'(s) and the curvature's rise T''(s) - T''(0) at s >= 0, both sums
    of nonnegative monomials: the rise taken from its monomials stays exact
    where s is small, where T''(s) - T''(0) would cancel."""
    _, first, second = term.jet(s)
    if term.m > 2:
        return first, second
    d2 = term.scales[2][1]
    return first, 0.0 if d2 is None else d2 * (s * s)


def _face_values(spec, lane, ti, tj):
    """Face function of the face x_k = 0 at T_i(x_i) = ti, T_j(x_j) = tj.

    Row r lies on the face of the height axis k of the ChartLane ``lane``'s
    chart, whose u and v slots are i and j.  Returns the face function
    (d_i - d_k) g_j^2 + (d_j - d_k) g_i^2, its magnitude sum (every
    curvature at 0 and rise counted positive) and x_i, x_j.
    """
    tu, tv, th = lane.terms(spec)
    xi, xj = tu.root(ti), tv.root(tj)
    (gi, ei), (gj, ej) = _slope_rise(tu, xi), _slope_rise(tv, xj)
    ci, cj, ck = _at_zero(tu), _at_zero(tv), _at_zero(th)
    gi, gj = gi * gi, gj * gj
    phi = ((ci - ck) + ei) * gj + ((cj - ck) + ej) * gi
    mag = (ci + ck + ei) * gj + (cj + ck + ej) * gi
    return phi, mag, xi, xj


def _falsi(spec, lane, a, b, fa, fb):
    """Illinois regula falsi on face brackets.

    Row r brackets a sign change of the face function of the face of chart
    ``surface.ATLAS[lane[r]]``'s height axis between the face parameters
    a[r] and b[r], rows (ti, tj), where it takes the values fa[r] and fb[r].
    The rows run in lockstep, one face evaluation per step over all of
    them, and do not interact.  A row stops where the face function is 0
    or the new point is an end of its bracket.  Returns x_i and x_j at each
    row's last point.
    """
    lane = sf.ChartLane(spec, lane)
    side = np.zeros(len(a), int)             # end replaced last: -1 for a, +1 for b
    active = np.ones(len(a), bool)
    for _ in range(MAX_FALSI):
        x = a + (fa / (fa - fb))[:, None] * (b - a)
        phi, _, xi, xj = _face_values(spec, lane, x[:, 0], x[:, 1])
        active &= (phi != 0.0) & (x != a).any(axis=1) & (x != b).any(axis=1)
        if not active.any():
            break
        to_a = active & ((phi > 0.0) == (fa > 0.0))
        to_b = active & ~to_a
        # Illinois: an end kept twice in a row has its value halved.
        fb = np.where(to_a & (side < 0), 0.5 * fb, fb)
        fa = np.where(to_b & (side > 0), 0.5 * fa, fa)
        a, fa = np.where(to_a[:, None], x, a), np.where(to_a, phi, fa)
        b, fb = np.where(to_b[:, None], x, b), np.where(to_b, phi, fb)
        side = np.where(to_a, -1, np.where(to_b, 1, side))
    return xi, xj


def _face_grid():
    """Face parameters (ti, tj), ti + tj = 1, ascending in ti: FACE_SAMPLES
    linear steps and END_SAMPLES log-spaced ones toward each end, the
    smaller parameter of each pair exact.  A read-only (2, n) array."""
    lin = np.linspace(0.0, 0.5, FACE_SAMPLES // 2 + 1)[1:]
    low = np.concatenate([np.logspace(-300.0, math.log10(lin[0]), END_SAMPLES, endpoint=False), lin])
    high = low[-2::-1]
    grid = np.stack([np.concatenate([low, 1.0 - high]), np.concatenate([1.0 - low, high])])
    grid.flags.writeable = False
    return grid


FACE_GRID = _face_grid()
# Ambient slots (u, v, height) of the + chart of each axis, surface.ATLAS[2 k]:
# the face x_k = 0 is sampled as that chart's (u, v) slots.
_PLACE = np.array([sf.placement(sf.ATLAS[2 * k]) for k in range(3)])
_PLACE.flags.writeable = False


def _face_umbilics(spec):
    """Umbilics on the open quarter arcs x_k = 0 < x_i, x_j, as (n, 3) rows.

    Where both curvature differences at 0, d_i - d_k and d_j - d_k, are
    nonnegative, the face function is positive (the rises are
    nonnegative) and the face is skipped.  The other faces are sampled on
    FACE_GRID in one pass.  A sample within ROUNDING_FLOOR of its magnitude
    sum has no known sign; every sign change between consecutive samples of
    known sign is refined by :func:`_falsi`.
    """
    c0 = [_at_zero(term) for term in spec.terms]
    lane = np.array([2 * k for k in range(3) if min(c0[i] for i in _PLACE[k, :2]) < c0[k]], int)
    if not lane.size:
        return np.empty((0, 3))
    phi, mag, _, _ = _face_values(spec, sf.ChartLane(spec, lane[:, None]), *FACE_GRID)
    sign = np.where(np.abs(phi) > ROUNDING_FLOOR * mag, np.sign(phi), 0.0)
    row, col = np.nonzero(sign)
    known = sign[row, col]
    cut = np.flatnonzero((row[1:] == row[:-1]) & (known[1:] != known[:-1]))
    if not cut.size:
        return np.empty((0, 3))
    row, lo, hi = row[cut], col[cut], col[cut + 1]
    xi, xj = _falsi(spec, lane[row], FACE_GRID[:, lo].T, FACE_GRID[:, hi].T, phi[row, lo], phi[row, hi])
    place, rows = _PLACE[lane[row] // 2], np.arange(row.size)
    out = np.zeros((row.size, 3))
    out[rows, place[:, 0]], out[rows, place[:, 1]] = xi, xj
    return out


def _interior_umbilic(spec):
    """The umbilic off the coordinate planes in the octant x, y, z > 0, as a
    (0 or 1, 3) array: d_x = d_y = d_z = lambda.

    A term c s^2 with no quartic part is free: its curvature is 2c
    everywhere, which fixes lambda, and its coordinate follows from
    F = 0.  A term c s^2 + d s^4 takes s^2 = (lambda - 2c) / 12d, and a
    monomial c s^m, m > 2, s = (lambda / c_2)^(1/(m-2)) with
    c_2 = m (m - 1) c.  With no free term every term is such a monomial,
    s_i = w_i r with w_i = c_2i^(-1/(m-2)), and F = 0 gives
    r = (sum_i T_i(w_i))^(-1/m).  With several free terms there is a
    continuum (equal curvatures, a sphere) or no interior point.
    """
    terms = spec.terms
    free = [i for i, term in enumerate(terms) if term.m == 2 and not term.d]
    if not free:
        w = [term.scales[2][0] ** (-1.0 / (term.m - 2)) for term in terms]
        r = sum(term(wi) for term, wi in zip(terms, w)) ** (-1.0 / terms[0].m)
        return np.array([[wi * r for wi in w]])
    if len(free) > 1:
        return np.empty((0, 3))
    [f] = free
    lam, point = _at_zero(terms[f]), [0.0, 0.0, 0.0]
    for i in (f - 2, f - 1):
        c2, d2 = terms[i].scales[2]
        s2 = (lam - c2) / d2 if terms[i].m == 2 else (lam / c2) ** (2.0 / (terms[i].m - 2))
        if not s2 > 0.0:
            return np.empty((0, 3))
        point[i] = math.sqrt(s2)
    rest = 1.0 - terms[f - 2](point[f - 2]) - terms[f - 1](point[f - 1])
    if not rest > 0.0:
        return np.empty((0, 3))
    point[f] = terms[f].root(rest)
    return np.array([point])


def find_umbilics(spec):
    """Locate umbilic points across the whole atlas.

    Returns :class:`UmbilicRecord` entries sorted by rounded ambient
    coordinates, each point in its home chart.  An umbilic continuum (a
    sphere) gives a single record flagged ``non_isolated``, at the centre
    of the X+ chart.
    """
    terms = spec.terms
    c0 = [_at_zero(term) for term in terms]
    continuum = all(term.m == 2 and not term.d for term in terms) and len(set(c0)) == 1
    if continuum:
        points = np.array([[terms[0].root(1.0), 0.0, 0.0]])
    else:
        axes = np.array([i for i in range(3) if c0[i - 2] == c0[i - 1]], int)    # T_j''(0) = T_k''(0)
        points = np.zeros((axes.size, 3))
        points[np.arange(axes.size), axes] = [terms[i].root(1.0) for i in axes]
        points = np.concatenate([points, _face_umbilics(spec), _interior_umbilic(spec)])
    if not len(points):
        return []
    # Home chart: the axis of largest |dF/dx_i| (every point is in its + chart).
    axis = np.argmax(sf.implicit_gradient(spec, points), axis=1)
    place = _PLACE[axis]
    rows = np.arange(len(points))
    u, v = points[rows, place[:, 0]], points[rows, place[:, 1]]
    residual = scaled_residual(*fm.closed_forms_arrays(spec, sf.ChartLane(spec, 2 * axis), u, v)).tolist()
    if continuum:
        return [UmbilicRecord(tuple(points[0].tolist()), sf.ATLAS[0], (0.0, 0.0), residual[0], NON_ISOLATED)]

    # Each point at its distinct mirror images: the forms, and so the
    # residual, are the same bits at all of them.
    found = []
    for p, i, (iu, iv, _), res in zip(points.tolist(), axis.tolist(), place.tolist(), residual):
        for signs in itertools.product(*[(1.0, -1.0) if c else (1.0,) for c in p]):
            q = tuple(c * s for c, s in zip(p, signs))
            found.append(UmbilicRecord(q, sf.ATLAS[2 * i + (signs[i] < 0)], (q[iu], q[iv]), res))
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
