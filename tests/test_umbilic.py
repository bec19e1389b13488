"""Umbilic detection, closed forms, thresholds, and cross-checks."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from umbilics import forms as fm
from umbilics import index as ix
from umbilics import surface as sf
from umbilics import umbilic as um
from umbilics.errors import NotApplicable
from umbilics.surface import ChartId, ChartPoint, SurfaceSpec

from conftest import BUNDLED, EPS_C_PLUS, PE_LT, SPHERE, SQ_1112, SQ_2352

Z_PLUS = ChartId("z", 1)
PLUSES = [chart for chart in sf.ATLAS if chart.sign > 0]
ENVELOPE = json.loads((Path(__file__).parent / "data" / "envelope_specs.json").read_text())


def test_residual_examples():
    assert um.umbilic_residual(SQ_1112, ChartPoint(Z_PLUS, 0.0, 0.0)) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(5):
        u, v = rng.uniform(-0.5, 0.5, size=2)
        assert um.umbilic_residual(SPHERE, ChartPoint(Z_PLUS, u, v)) < 1e-13
    assert um.umbilic_residual(SQ_1112, ChartPoint(Z_PLUS, 0.3, 0.1)) > 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scaled_residual_rescales_only_where_squares_overflow():
    """Where C^2 + A^2 + B^2 is finite the residual is the plain quotient,
    bit for bit; where it overflows, (A, B, C) are scaled by their largest
    magnitude first, with no warning.  Float and array inputs agree bit for
    bit on both rows."""
    rows = np.array([[1.3, 0.2, 2.1, 0.7, 0.05, 0.4], [1.0, 0.5, 1.0, 3e160, 1e160, -2e160]])
    arrays = um.scaled_residual(*rows.T)
    floats = [um.scaled_residual(*map(float, row)) for row in rows]
    assert arrays.tolist() == floats
    E, F, G, e, f, g = map(float, rows[0])
    A, B, C = fm.line_quadratic(E, F, G, e, f, g)
    den = (E * G - F * F) * (1.0 + abs(e) + abs(f) + abs(g))
    assert floats[0] == math.sqrt(C * C + A * A + B * B) / den
    E, F, G, e, f, g = map(float, rows[1])
    A, B, C = fm.line_quadratic(E, F, G, e, f, g)
    assert math.isinf(C * C + A * A + B * B)
    den = (E * G - F * F) * (1.0 + abs(e) + abs(f) + abs(g))
    assert math.isclose(floats[1], math.hypot(C, A, B) / den, rel_tol=1e-15)


def _chart_preimage(spec, p):
    best = None
    for chart in sf.ATLAS:
        pre = sf.ambient_to_chart(spec, chart, p)
        if pre is not None and (best is None or pre[2] > best[1][2]):
            best = (chart, pre)
    assert best is not None, f"no chart contains {p}"
    chart, (u, v, _) = best
    return ChartPoint(chart, u, v)


def test_closed_form_superquadric_2352():
    pts = um.closed_form_umbilics(SQ_2352)
    assert len(pts) == 14
    axis_expected = 2.0 ** -0.25
    xs = sorted(abs(p[0]) for p in pts if p[1] == 0 and p[2] == 0)
    assert np.allclose(xs, axis_expected)
    for p in pts:
        assert abs(sf.implicit_value(SQ_2352, p)) < 1e-9
        cp = _chart_preimage(SQ_2352, p)
        assert um.umbilic_residual(SQ_2352, cp) < 1e-7


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("coefs", [(1.0, 2.0, 3.0), (40.81, 6.646, 8.144), (1.0, 1.0, 100.0)])
def test_closed_form_superquadric_hessian(coefs, k):
    """Each diagonal point lies on the surface and makes the Hessian
    diag(a_i x_i^(2k-2)) isotropic, which is what an umbilic off the
    coordinate planes needs; checked without the finder."""
    spec = SurfaceSpec.superquadric(*coefs, k)
    diag = [p for p in um.closed_form_umbilics(spec) if np.all(p != 0.0)]
    assert len(diag) == 8
    for p in diag:
        assert abs(sf.implicit_value(spec, p)) < 1e-14
        hess = [a * x ** (2 * k - 2) for a, x in zip(coefs, p)]
        assert max(hess) - min(hess) < 1e-14 * max(hess)


def test_closed_form_perturbed_lt():
    pts = um.closed_form_umbilics(PE_LT)
    # poles + eight diagonal points; the equator octet has no closed form
    assert len(pts) == 10
    diag = [p for p in pts if p[0] != 0.0]
    assert len(diag) == 8
    for p in diag:
        assert abs(abs(p[0]) - 0.6) < 1e-15            # (b - a)/(6 eps) = 0.36
        assert abs(abs(p[1]) - 0.6) < 1e-15
        assert abs(abs(p[2]) - 1.2120838612990874) < 1e-13
        assert abs(sf.implicit_value(PE_LT, p)) < 1e-9
        cp = _chart_preimage(PE_LT, p)
        assert um.umbilic_residual(PE_LT, cp) < 1e-7


def test_closed_form_perturbed_gt():
    spec = SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 0.08)
    pts = um.closed_form_umbilics(spec)
    assert len(pts) == 10
    mid = [p for p in pts if abs(p[2]) != math.sqrt(5.0)]
    assert len(mid) == 8
    for p in mid:
        assert abs(sf.implicit_value(spec, p)) < 1e-9
        cp = _chart_preimage(spec, p)
        assert um.umbilic_residual(spec, cp) < 1e-7
        assert abs(max(abs(p[0]), abs(p[1])) - 0.4599858190855295) < 1e-13
        assert abs(abs(p[2]) - 2.1102428770167667) < 1e-13


def test_closed_form_not_applicable():
    with pytest.raises(NotApplicable):
        um.closed_form_umbilics(SurfaceSpec.perturbed_ellipsoid(1.0, 1.0, 0.1))
    with pytest.raises(NotApplicable):
        um.closed_form_umbilics(SurfaceSpec.ellipsoid(1.0, 1.0, 3.0))
    with pytest.raises(NotApplicable):
        um.closed_form_umbilics(SPHERE)


def test_closed_form_ellipsoid():
    pts = um.closed_form_umbilics(BUNDLED["ellipsoid_123"])
    assert len(pts) == 4
    for p in pts:
        assert p[1] == 0.0                             # middle-coefficient plane
        assert abs(abs(p[0]) - math.sqrt(3.0) / 2.0) < 1e-15
        assert abs(abs(p[2]) - math.sqrt(1.0 / 12.0)) < 1e-15
        assert abs(sf.implicit_value(BUNDLED["ellipsoid_123"], p)) < 1e-12
        cp = _chart_preimage(BUNDLED["ellipsoid_123"], p)
        assert um.umbilic_residual(BUNDLED["ellipsoid_123"], cp) < 1e-7


def test_critical_epsilon_values():
    thr = um.critical_epsilon(0.5, 0.2)
    assert thr.regime == um.A_GREATER_B
    assert math.isclose(thr.epsilon_critical, 0.0625, rel_tol=1e-15)
    assert (thr.predicted_count_below, thr.predicted_count_above) == (2, 10)

    thr = um.critical_epsilon(0.3, 0.516)
    assert thr.regime == um.A_LESS_B
    assert math.isclose(thr.epsilon_critical, 0.024192, rel_tol=1e-12)
    assert (thr.predicted_count_below, thr.predicted_count_above) == (2, 18)

    with pytest.raises(NotApplicable):
        um.critical_epsilon(1.0, 1.0)


def test_find_superquadric_1112(results):
    recs = results.records(SQ_1112)
    assert len(recs) == 14
    assert all(r.kind == um.ISOLATED for r in recs)
    assert all(r.residual < 1e-10 for r in recs)
    closed = um.closed_form_umbilics(SQ_1112)
    found = [r.ambient for r in recs]
    assert um.match_distance(closed, found) < 1e-7
    assert um.match_distance(found, closed) < 1e-7
    # axis points to 1e-8
    axis = [p for p in found if sum(1 for c in p if c != 0.0) == 1]
    assert len(axis) == 6
    for p in axis:
        assert abs(max(abs(c) for c in p) - 1.0) < 1e-8


def test_find_perturbed_small_eps_poles():
    spec = SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 0.01)
    recs = um.find_umbilics(spec)
    assert len(recs) == 2
    for r in recs:
        assert abs(r.ambient[0]) < 1e-10 and abs(r.ambient[1]) < 1e-10
        assert abs(abs(r.ambient[2]) - math.sqrt(5.0)) < 1e-8


def test_find_sphere_non_isolated():
    recs = um.find_umbilics(SPHERE)
    assert len(recs) == 1
    assert recs[0].kind == um.NON_ISOLATED


@pytest.mark.parametrize(
    "spec",
    [SurfaceSpec.ellipsoid(1.0, 1.0, 1.0), SurfaceSpec.perturbed_ellipsoid(0.4, 0.4, 0.0)],
    ids=["sphere", "pe_a_eq_b_eps0"],
)
def test_continuum_gives_one_record(spec):
    """Every axis term is c s^2 with one c (a sphere): one non_isolated
    record, at the centre of the X+ chart."""
    recs = um.find_umbilics(spec)
    assert [(r.kind, r.chart.label, r.uv) for r in recs] == [(um.NON_ISOLATED, "X+", (0.0, 0.0))]


CELLS = 63          # oracle scan cells per chart axis (odd: the centre cell straddles both axes)
EDGE_DEPTH = 30     # bisection levels of an oracle cell edge


def full_grid_cell_scan(spec, chart):
    """Line-field winding of every cell of a CELLS x CELLS grid over one
    chart's bounding rectangle: the line angle taken at all 64 x 64
    vertices and lifted along every edge between two valid vertices.  It
    knows nothing of the strata.  Returns the cell size (du, dv), each
    cell's winding over 2 pi, the index sum inside it by Poincare-Hopf (NaN
    where an edge is unresolved), and which cells have four valid corners."""
    n = CELLS
    umax, vmax = sf.chart_bounds(spec, chart)
    offsets = np.arange(n + 1) - 0.5 * n
    uu, vv = np.meshgrid(offsets * (2.0 * umax / n), offsets * (2.0 * vmax / n), indexing="ij")
    valid = sf.chart_valid(spec, chart, uu, vv)
    psi = np.full(uu.shape, np.nan)
    psi[valid] = fm.line_angle(*fm.closed_forms_arrays(spec, chart, uu[valid], vv[valid]))
    k = np.arange(uu.size).reshape(uu.shape)
    starts = np.concatenate([k[:-1, :].ravel(), k[:, :-1].ravel()])
    ends = np.concatenate([k[1:, :].ravel(), k[:, 1:].ravel()])
    valid, psi, uu, vv = valid.ravel(), psi.ravel(), uu.ravel(), vv.ravel()
    live = np.flatnonzero(valid[starts] & valid[ends])
    a, b = starts[live], ends[live]
    u0, v0, du, dv = uu[a], vv[a], uu[b] - uu[a], vv[b] - vv[a]
    change, _, resolved = fm.lift_lines(
        spec, np.full(live.size, sf.ATLAS.index(chart)),
        np.tile([0.0, 1.0], (live.size, 1)), np.stack([psi[a], psi[b]], axis=1),
        lambda i, t: (u0[i] + t * du[i], v0[i] + t * dv[i]), EDGE_DEPTH,
    )
    total = np.full(starts.size, np.nan)
    total[live] = np.where(resolved, change, np.nan)
    tu, tv = total[: n * (n + 1)].reshape(n, n + 1), total[n * (n + 1):].reshape(n + 1, n)
    winding = tu[:, :-1] + tv[1:, :] - tu[:, 1:] - tv[:-1, :]
    corners = valid.reshape(n + 1, n + 1)
    inside = corners[:-1, :-1] & corners[1:, :-1] & corners[:-1, 1:] & corners[1:, 1:]
    return (2.0 * umax / n, 2.0 * vmax / n), winding / (2.0 * math.pi), inside


@pytest.mark.parametrize(
    "spec",
    list(BUNDLED.values()) + [SurfaceSpec.from_json(e) for e in ENVELOPE],
    ids=list(BUNDLED) + [f"envelope{i}" for i in range(len(ENVELOPE))],
)
def test_quadrant_fold_matches_full_grid_scan(spec):
    """The finder solves the strata in the octant x, y, z >= 0 and records
    the sign flips; the records agree with a whole-grid line-field scan of
    every + chart.  Each record in a cell with four valid corners lies
    within two cells of a cell whose winding is nonzero or unresolved, and
    each cell whose winding is resolved and nonzero lies within two cells of
    a record.  The slack is the scan's: next to a flat axis point the line
    field turns too fast for the lift, and the nonzero windings land up to
    two cells from the point's (sq_c100's X+ and Y+ axis points)."""
    records = um.find_umbilics(spec)
    for chart in PLUSES:
        (du, dv), index_sum, inside = full_grid_cell_scan(spec, chart)
        pre = filter(None, (sf.ambient_to_chart(spec, chart, r.ambient) for r in records))
        cells = {(math.floor(u / du + 0.5 * CELLS), math.floor(v / dv + 0.5 * CELLS)) for u, v, _ in pre}
        cells = np.array([c for c in cells if max(c) < CELLS and min(c) >= 0 and inside[c]]).reshape(-1, 2)
        seeded = np.argwhere(inside & ~(np.abs(index_sum) < 0.25))
        nonzero = np.argwhere(inside & (np.abs(index_sum) >= 0.25))
        near = np.abs(cells[:, None, :] - seeded[None, :, :]).max(axis=2) <= 2
        assert near.any(axis=1).all(), chart
        near = np.abs(nonzero[:, None, :] - cells[None, :, :]).max(axis=2) <= 2
        assert near.any(axis=1).all(), chart


@pytest.mark.parametrize("name", ["ellipsoid_123", "pe_gt_eps_lo"])
def test_seedless_chart_takes_no_kernel_call(monkeypatch, name):
    """The finder makes no kernel call on zero points (ellipsoid_123 and
    pe_gt_eps_lo have no point in some + charts)."""
    kernel, sizes = fm.closed_forms_arrays, []

    def counted(*args):
        sizes.append(np.size(args[2]))
        return kernel(*args)

    monkeypatch.setattr(fm, "closed_forms_arrays", counted)
    um.find_umbilics(BUNDLED[name])
    assert 0 not in sizes


def test_snap_centre_wins_residual_ties():
    """Next to sq(1, 1, 1, 14)'s Z+ axis point the forms underflow: at
    (u, -u), u = 3.8e-7, the residual is exactly 0, as at the centre, so no
    residual comparison can pick the centre.  The axis stratum puts the
    point at (0, 0) exactly, and the finder gives the 14 points."""
    spec = SurfaceSpec.superquadric(1, 1, 1, 14)
    u = 3.8374616610113647e-07
    for point in ((u, -u), (0.0, 0.0)):
        assert um.scaled_residual(*fm.closed_forms_arrays(spec, Z_PLUS, *point)) == 0.0
    records = um.find_umbilics(spec)
    assert len(records) == 14
    [pole] = [r for r in records if r.chart == Z_PLUS]
    assert (pole.ambient[:2], pole.uv, pole.residual) == ((0.0, 0.0), (0.0, 0.0), 0.0)


@pytest.mark.parametrize("name", ["pe_gt", "pe_lt", "sq_c100"])
def test_newton_lanes_independent(monkeypatch, name):
    """The lockstep root refiner (regula falsi on the face brackets) keeps
    its rows apart: each bracket refined alone ends on the bits it ends on
    in the batch, and a collapsed bracket (both ends one point) stops where
    it starts without changing the others.  sq_c100 has no face bracket
    (every face function is positive), so only the collapsed one runs."""
    spec, calls, falsi = BUNDLED[name], [], um._falsi
    monkeypatch.setattr(um, "_falsi", lambda *args: calls.append(args) or falsi(*args))
    um.find_umbilics(spec)
    assert len(calls) == (name != "sq_c100")
    _, lane, a, b, fa, fb = calls[0] if calls else (spec, np.empty(0, int), *np.empty((2, 0, 2)),
                                                     *np.empty((2, 0)))
    assert len(lane) >= 2 or name == "sq_c100"
    start = np.array([[0.25, 0.75]])
    batch = np.column_stack(falsi(spec, np.append(lane, 4), np.vstack([a, start]), np.vstack([b, start]),
                                  np.append(fa, 1.0), np.append(fb, -1.0)))
    tu, tv, _ = sf.ChartLane(spec, np.array([4])).terms(spec)
    assert batch[-1].tolist() == [tu.root(start[:, 0])[0], tv.root(start[:, 1])[0]]
    if calls:
        assert np.array_equal(batch[:-1], np.column_stack(falsi(spec, lane, a, b, fa, fb)))
    for r in range(len(lane)):
        alone = falsi(spec, lane[r:r + 1], a[r:r + 1], b[r:r + 1], fa[r:r + 1], fb[r:r + 1])
        assert np.column_stack(alone).tolist() == [batch[r].tolist()]


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_mirror_fold_matches_six_chart_scan(name, results):
    """The finder solves one octant and records each point at its distinct
    sign flips: the record set is closed under every flip, no two records
    coincide, and each record evaluated alone in its own chart, one of all
    six, gives the residual bits of the finder's one lane call and a
    degenerate line field."""
    spec, records = BUNDLED[name], results.records(BUNDLED[name])
    points = {r.ambient for r in records}
    assert len(points) == len(records)
    for flip in itertools.product((1.0, -1.0), repeat=3):
        assert {tuple(c * s if c else c for c, s in zip(p, flip)) for p in points} == points
    for r in records:
        forms = fm.closed_forms_arrays(spec, r.chart, np.array(r.uv[:1]), np.array(r.uv[1:]))
        assert um.scaled_residual(*forms).tolist() == [r.residual]
        assert np.isnan(fm.line_angle(*forms)).all(), r


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_records_sit_in_home_chart(name, results):
    """Each record is in the chart of the axis with the largest |dF/dx_i|, on
    that coordinate's side, at its own coordinates.  Geometry picks the
    chart, not residual noise: sq_c100's diagonal points are in X+- and
    X-, whose |dF/dx| is about 10 times the others."""
    spec = BUNDLED[name]
    for r in results.records(spec):
        i = int(np.argmax(np.abs(sf.implicit_gradient(spec, np.array(r.ambient)))))
        assert r.chart == ChartId("xyz"[i], 1 if r.ambient[i] > 0.0 else -1)
        iu, iv, _ = sf.placement(r.chart)
        assert r.uv == (r.ambient[iu], r.ambient[iv])


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_finder_evaluates_arrays_and_each_root_once(monkeypatch, name):
    """The finder takes the form kernel once, on all its octant points
    together as rows of one ChartLane, and makes no 0-d kernel call and no
    radicand or chart_points call: a point's mirror images reuse its
    residual and are sign flips of its coordinates."""
    calls = {"kernel": [], "radicand": [], "chart_points": []}

    def counted(key, func):
        def wrapper(spec, chart, u, v):
            calls[key].append(np.ndim(u))
            return func(spec, chart, u, v)
        return wrapper

    monkeypatch.setattr(fm, "closed_forms_arrays", counted("kernel", fm.closed_forms_arrays))
    monkeypatch.setattr(sf, "radicand", counted("radicand", sf.radicand))
    monkeypatch.setattr(sf, "chart_points", counted("chart_points", sf.chart_points))
    assert um.find_umbilics(BUNDLED[name])
    assert calls == {"kernel": [1], "radicand": [], "chart_points": []}


@pytest.mark.parametrize("regime", sorted(EPS_C_PLUS))
def test_rounding_floor_one_ulp_above_eps_c(regime):
    """One ulp above eps_c the face function next to the newborn points is
    rounding noise.  Samples within the rounding floor have no sign, so the
    noise gives no roots: at most expected_count records (the a > b spec
    gave 1,970 without the floor)."""
    spec = EPS_C_PLUS[regime]
    assert 2 <= len(um.find_umbilics(spec)) <= um.expected_count(spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("b", [1e100, 1e160, 1e200])
def test_flat_ellipsoid_keeps_both_poles(b):
    """pe(1, b, 0.1) with a huge b is flat: its poles at z = +-b^(-1/2) lie
    far closer to each other than the x and y extent.  They are the mirror
    images of one point, both recorded, and the index sum is 2; no step
    overflows."""
    spec = SurfaceSpec.perturbed_ellipsoid(1.0, b, 0.1)
    records = ix.attach_indices(spec, um.find_umbilics(spec))
    poles = sorted((r.chart.label, r.ambient, r.uv, r.index) for r in records)
    z = b ** -0.5
    assert poles == [("Z+", (0.0, 0.0, z), (0.0, 0.0), 1.0), ("Z-", (0.0, 0.0, -z), (0.0, 0.0), 1.0)]
    assert ix.poincare_hopf_check(spec, records).passed


def test_find_ellipsoid(results):
    recs = results.records(BUNDLED["ellipsoid_123"])
    assert len(recs) == 4
    closed = um.closed_form_umbilics(BUNDLED["ellipsoid_123"])
    assert um.match_distance(closed, [r.ambient for r in recs]) < 1e-7


@pytest.mark.parametrize(
    "name", ["sq_1112", "sq_2352", "pe_gt_eps_hi", "pe_lt", "pe_gt", "ellipsoid_123"]
)
def test_closed_form_subset_of_found(name, results):
    spec = BUNDLED[name]
    recs = results.records(spec)
    closed = um.closed_form_umbilics(spec)
    assert um.match_distance(closed, [r.ambient for r in recs]) < 1e-7


@pytest.mark.parametrize(
    "name,eps,count",
    [
        ("pe_gt_eps_lo", 0.05, 2),
        ("pe_gt_eps_hi", 0.08, 10),
        ("pe_lt_eps_lo", 0.01, 2),
        ("pe_lt", 0.1, 18),
    ],
)
def test_threshold_count_transitions(name, eps, count, results):
    spec = BUNDLED[name]
    assert spec.epsilon == eps
    assert len(results.records(spec)) == count


@pytest.mark.parametrize("name", ["sq_2352", "pe_lt"])
def test_sign_flip_symmetry(name, results):
    recs = results.records(BUNDLED[name])
    pts = np.array([r.ambient for r in recs])
    for axis in range(3):
        flipped = pts.copy()
        flipped[:, axis] *= -1.0
        d = np.linalg.norm(pts[:, None, :] - flipped[None, :, :], axis=-1)
        assert d.min(axis=1).max() < 1e-9


def test_permutation_symmetry(results):
    # (x, y, z) -> (z, x, y) maps the (2,3,5) surface onto the (5,2,3) one.
    recs_a = results.records(SQ_2352)
    spec_b = SurfaceSpec.superquadric(5.0, 2.0, 3.0, 2)
    recs_b = um.find_umbilics(spec_b)
    mapped = [np.array([p[2], p[0], p[1]]) for p in (r.ambient for r in recs_a)]
    assert um.match_distance(mapped, [r.ambient for r in recs_b]) < 1e-9
    assert len(recs_b) == 14


@pytest.mark.parametrize("name", ["sq_1112", "pe_gt_eps_hi", "ellipsoid_123"])
def test_records_pass_numeric_path(name, results):
    """Residual recomputed through the independent derivative path.

    The bound is the rounding floor of double-precision second-derivative
    stencils (~1e-8 after assembly), two decades above the closed-path
    find tolerance: the numeric path confirms every record is an umbilic,
    it just cannot resolve residuals all the way down to 1e-9.
    """
    spec = BUNDLED[name]
    for rec in results.records(spec):
        cp = ChartPoint(rec.chart, *rec.uv)
        nf = fm.forms_numeric(spec, cp)
        assert um.scaled_residual(nf.E, nf.F, nf.G, nf.e, nf.f, nf.g) < 1e-8


def test_record_separation(results):
    """No two records of sq_1112 lie within 1e-6 of its diameter, 2."""
    recs = results.records(SQ_1112)
    pts = np.array([r.ambient for r in recs])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    d[np.diag_indices(len(pts))] = np.inf
    assert d.min() > 2e-6


def test_records_on_surface(results):
    for name in ("sq_1112", "pe_lt", "ellipsoid_123"):
        for rec in results.records(BUNDLED[name]):
            assert abs(sf.implicit_value(BUNDLED[name], np.array(rec.ambient))) < 1e-10


def _equator_condition(u, a, b, eps):
    """Umbilic condition along the z = 0 equator, y^2 = q(x) (independent oracle)."""
    q = (math.sqrt(a * a + 4.0 * eps * (1.0 - a * u * u - eps * u**4)) - a) / (2.0 * eps)
    return (
        u * u * (a + 2.0 * eps * u * u) ** 2 * (6.0 * eps * q + a - b)
        + (2.0 * eps * q + a) ** 2 * q * (a - b + 6.0 * eps * u * u)
    )


def test_equator_umbilics_match_independent_roots(results):
    a, b, eps = PE_LT.a, PE_LT.b, PE_LT.epsilon
    umax = math.sqrt((-a + math.sqrt(a * a + 4 * eps)) / (2 * eps))
    grid = np.linspace(1e-3, umax * 0.999, 1500)
    vals = [_equator_condition(t, a, b, eps) for t in grid]
    roots = []
    for x0, x1, f0, f1 in zip(grid, grid[1:], vals, vals[1:]):
        if f0 * f1 < 0:
            roots.append(brentq(_equator_condition, x0, x1, args=(a, b, eps)))
    assert len(roots) == 2
    equator = [r for r in results.records(PE_LT) if abs(r.ambient[2]) < 1e-9]
    assert len(equator) == 8
    values = sorted({round(abs(r.ambient[0]), 10) for r in equator})
    assert len(values) == 2
    for got, want in zip(values, sorted(roots)):
        assert abs(got - want) < 1e-7


def test_expected_count_helper():
    assert um.expected_count(SQ_1112) == 14
    assert um.expected_count(BUNDLED["ellipsoid_123"]) == 4
    assert um.expected_count(SurfaceSpec.ellipsoid(1, 1, 3)) is None
    assert um.expected_count(BUNDLED["pe_gt_eps_lo"]) == 2
    assert um.expected_count(BUNDLED["pe_lt"]) == 18
    assert um.expected_count(SPHERE) is None


def _regime_count(spec):
    """The count rule written out from the family and the eps_c dichotomy."""
    if spec.family == sf.SUPERQUADRIC:
        return 14
    if spec.family == sf.ELLIPSOID:
        return 4 if len({spec.a, spec.b, spec.c}) == 3 else None
    if spec.a == spec.b:
        return None
    if spec.epsilon == 0.0:
        return 2
    thr = um.critical_epsilon(spec.a, spec.b)
    if spec.epsilon <= thr.epsilon_critical:
        return thr.predicted_count_below
    return thr.predicted_count_above


def test_expected_count_matches_regime_rule():
    """expected_count reads closed_form_umbilics; it agrees with the eps_c
    dichotomy on every bundled and envelope spec and one ulp above eps_c."""
    envelope = json.loads((Path(__file__).parent / "data" / "envelope_specs.json").read_text())
    specs = list(BUNDLED.values())
    specs += [SurfaceSpec.from_json(e) for e in envelope]
    specs += list(EPS_C_PLUS.values())
    for spec in specs:
        assert um.expected_count(spec) == _regime_count(spec), spec


def test_records_json_sorted(results):
    recs = results.records(BUNDLED["ellipsoid_123"])
    blobs = [r.to_json() for r in recs]
    keys = [tuple(round(c, 9) for c in b["xyz"]) for b in blobs]
    assert keys == sorted(keys)
