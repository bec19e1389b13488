"""Umbilic detection, closed forms, thresholds, and cross-checks."""

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


def _chart_preimage(spec, p):
    best = None
    for chart in sf.chart_atlas(spec):
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
    """Every grid vertex of a sphere is degenerate: one non_isolated record,
    at the centre of the X+ chart."""
    recs = um.find_umbilics(spec)
    assert [(r.kind, r.chart.label, r.uv) for r in recs] == [(um.NON_ISOLATED, "X+", (0.0, 0.0))]


def test_cell_scan_evaluates_each_vertex_once(monkeypatch):
    """The scan takes the line angle at each chart's 32 x 32 vertices with
    u, v > 0 in one kernel call per chart, then lifts the cell edges of all
    three charts in one kernel call per bisection level."""
    kernel, calls = fm.closed_forms_arrays, []

    def counted(*args):
        calls.append((args[1], np.size(args[2])))
        return kernel(*args)

    monkeypatch.setattr(fm, "closed_forms_arrays", counted)
    um._cell_seeds(SQ_1112, PLUSES)
    blocks, levels = calls[:3], calls[3:]
    assert [chart for chart, _ in blocks] == PLUSES
    assert all(size <= (um.CELLS // 2 + 1) ** 2 for _, size in blocks)
    assert 0 < len(levels) <= um.EDGE_DEPTH
    assert all(isinstance(chart, sf.ChartLane) for chart, _ in levels)
    assert sum(size for _, size in levels) < sum(size for _, size in blocks)


def full_grid_cell_seeds(spec, chart):
    """The cell scan without the quadrant fold: the line angle taken at all
    64 x 64 vertices of one chart and lifted along every edge between two
    valid vertices; the seeds are the centres of the cells with a nonzero
    or unresolved winding, in grid order."""
    n = um.CELLS
    umax, vmax = sf.chart_bounds(spec, chart)
    offsets = np.arange(n + 1) - 0.5 * n
    uu, vv = np.meshgrid(offsets * (2.0 * umax / n), offsets * (2.0 * vmax / n), indexing="ij")
    valid = sf.chart_valid(spec, chart, uu, vv)
    psi = np.full(uu.shape, np.nan)
    psi[valid] = fm.line_angle(*fm.closed_forms_arrays(spec, chart, uu[valid], vv[valid]))
    if np.all(np.isnan(psi[valid])):
        return None
    k = np.arange(uu.size).reshape(uu.shape)
    starts = np.concatenate([k[:-1, :].ravel(), k[:, :-1].ravel()])
    ends = np.concatenate([k[1:, :].ravel(), k[:, 1:].ravel()])
    valid, psi, uu, vv = valid.ravel(), psi.ravel(), uu.ravel(), vv.ravel()
    live = np.flatnonzero(valid[starts] & valid[ends])
    a, b = starts[live], ends[live]
    u0, v0, du, dv = uu[a], vv[a], uu[b] - uu[a], vv[b] - vv[a]
    change, _, resolved = fm.lift_lines(
        spec, np.full(live.size, sf.ATLAS.index(chart)), np.arange(live.size),
        np.tile([0.0, 1.0], (live.size, 1)), np.stack([psi[a], psi[b]], axis=1),
        lambda i, t: (u0[i] + t * du[i], v0[i] + t * dv[i]), um.EDGE_DEPTH,
    )
    total = np.full(starts.size, np.nan)
    total[live] = np.where(resolved, change, np.nan)
    tu, tv = total[: n * (n + 1)].reshape(n, n + 1), total[n * (n + 1):].reshape(n + 1, n)
    winding = tu[:, :-1] + tv[1:, :] - tu[:, 1:] - tv[:-1, :]
    corners = valid.reshape(n + 1, n + 1)
    inside = corners[:-1, :-1] & corners[1:, :-1] & corners[:-1, 1:] & corners[1:, 1:]
    cells = np.argwhere(inside & ~(np.abs(winding) < 0.5 * math.pi))
    return (cells - 0.5 * (n - 1)) * (2.0 * umax / n, 2.0 * vmax / n)


@pytest.mark.parametrize(
    "spec",
    list(BUNDLED.values()) + [SurfaceSpec.from_json(e) for e in ENVELOPE],
    ids=list(BUNDLED) + [f"envelope{i}" for i in range(len(ENVELOPE))],
)
def test_quadrant_fold_matches_full_grid_scan(spec):
    """Scanning one quadrant per chart gives the whole-grid scan's seeds with
    u, v >= 0: the same bits in the same order, on every + chart.  The
    whole-grid seeds are mirror-symmetric, so those hold every seed's
    mirror image."""
    for chart, seeds in zip(PLUSES, um._cell_seeds(spec, PLUSES)):
        full = full_grid_cell_seeds(spec, chart)
        for flip in ((-1.0, 1.0), (1.0, -1.0)):
            assert set(map(tuple, (full * flip).tolist())) == set(map(tuple, full.tolist())), chart
        want = full[np.all(full >= 0.0, axis=1)]
        assert seeds.shape == want.shape and seeds.tobytes() == want.tobytes(), chart


@pytest.mark.parametrize("name", ["ellipsoid_123", "pe_gt_eps_lo"])
def test_seedless_chart_takes_no_kernel_call(monkeypatch, name):
    """A + chart without cell seeds makes no kernel call on zero points
    (ellipsoid_123 has one such chart, pe_gt_eps_lo two)."""
    kernel, sizes = fm.closed_forms_arrays, []

    def counted(*args):
        sizes.append(np.size(args[2]))
        return kernel(*args)

    monkeypatch.setattr(fm, "closed_forms_arrays", counted)
    um.find_umbilics(BUNDLED[name])
    assert 0 not in sizes


def test_cell_seeds_hold_the_umbilics():
    """sq_1112's Z+ chart holds five umbilics (the pole and four diagonal
    points); each, folded onto u, v >= 0, lies inside a seeded cell."""
    [seeds] = um._cell_seeds(SQ_1112, [Z_PLUS])
    half = np.array(sf.chart_bounds(SQ_1112, Z_PLUS)) / um.CELLS
    pre = [sf.ambient_to_chart(SQ_1112, Z_PLUS, p) for p in um.closed_form_umbilics(SQ_1112)]
    inside = [(u, v) for u, v, _ in filter(None, pre)]
    assert len(inside) == 5
    for uv in inside:
        assert np.any(np.all(np.abs(seeds - np.abs(uv)) <= half, axis=1))


def test_snap_centre_wins_residual_ties():
    """Next to sq(1, 1, 1, 14)'s Z+ axis point the forms underflow: a lane
    ending at (u, -u), u = 3.8e-7, has residual exactly 0, as its
    anti-diagonal candidate and the centre have.  The centre is tried last
    and wins the tie, so the axis point is recorded at (0, 0)."""
    spec = SurfaceSpec.superquadric(1, 1, 1, 14)
    u = 3.8374616610113647e-07
    for point in ((u, -u), (0.0, 0.0)):
        assert um.scaled_residual(*fm.closed_forms_arrays(spec, Z_PLUS, *point)) == 0.0
    lane = np.array([sf.ATLAS.index(Z_PLUS)])
    points, residuals, umbilic = um._snap_symmetry(spec, lane, np.array([[u, -u]]))
    assert (*points[0].tolist(), residuals[0], umbilic[0]) == (0.0, 0.0, 0.0, True)


def _refine_alone(spec, chart, seeds):
    """The refiner run on one chart's seeds."""
    return um._newton_refine(spec, np.full(len(seeds), sf.ATLAS.index(chart)), seeds)


@pytest.mark.parametrize("name", ["pe_gt", "pe_lt", "sq_c100"])
def test_newton_lanes_independent(name):
    """The lockstep refiner's lanes do not interact: each seed of a
    whole-grid scan refined alone ends on the same bits as in the whole
    batch, a seed inside the chart margin stops where it starts without
    changing the others, and the seeds of the three + charts refined
    together end on the same bits as each chart's seeds refined alone."""
    spec = BUNDLED[name]
    for chart in sf.chart_atlas(spec)[:3]:
        seeds = full_grid_cell_seeds(spec, chart)
        assert len(seeds) > 1
        umax, _ = sf.chart_bounds(spec, chart)
        edge = brentq(
            lambda u: float(sf.radicand(spec, chart, u, 0.0)) - 0.5 * sf.DELTA_VALID,
            0.0, umax, xtol=1e-300,
        )
        assert 0.0 < sf.radicand(spec, chart, edge, 0.0) < sf.DELTA_VALID
        batch = _refine_alone(spec, chart, np.vstack([seeds, [[edge, 0.0]]]))
        assert batch[-1].tolist() == [edge, 0.0]
        assert np.array_equal(batch[:-1], _refine_alone(spec, chart, seeds))
        for seed, got in zip(seeds, batch):
            assert _refine_alone(spec, chart, seed[None]).tolist() == [got.tolist()]
    seeds = um._cell_seeds(spec, PLUSES)
    lane = np.repeat([sf.ATLAS.index(chart) for chart in PLUSES], [len(s) for s in seeds])
    together = um._newton_refine(spec, lane, np.concatenate(seeds))
    for chart, alone in zip(PLUSES, seeds):
        assert np.array_equal(together[lane == sf.ATLAS.index(chart)], _refine_alone(spec, chart, alone))


def _snap_alone(spec, chart, u, v, res, umbilic):
    """The symmetry snap one root and one candidate at a time, each
    candidate evaluated as a one-element array: the arithmetic of the
    finder's batched snap.  A later candidate wins a tie; the centre comes
    last."""
    near = 1e-5 * (sum(sf.chart_bounds(spec, chart)) / 2.0)
    m, n = 0.5 * (u + v), 0.5 * (u - v)
    candidates = (
        (abs(u) < near, 0.0, v),
        (abs(v) < near, u, 0.0),
        (abs(u - v) < near, m, m),
        (abs(u + v) < near, n, 0.0 - n),
        (abs(u) < near and abs(v) < near, 0.0, 0.0),
    )
    best = (u, v, res, umbilic)
    for on_line, cu, cv in candidates:
        if not on_line or not sf.chart_valid(spec, chart, np.array([cu]), np.array([cv]))[0]:
            continue
        forms = fm.closed_forms_arrays(spec, chart, np.array([cu]), np.array([cv]))
        r = float(um.scaled_residual(*forms)[0])
        if r <= best[2]:
            best = (cu, cv, r, bool(np.isnan(fm.line_angle(*forms))[0]))
    return best


def six_chart_reference(spec):
    """The finder without the mirror folds: every chart scanned on its whole
    grid and refined on its own, each refined point snapped and accepted
    where the line field is degenerate, then the stable residual sort, dedup
    and ambient sort."""
    found = []
    for chart in sf.chart_atlas(spec):
        refined = _refine_alone(spec, chart, full_grid_cell_seeds(spec, chart))
        forms = fm.closed_forms_arrays(spec, chart, refined[:, 0], refined[:, 1])
        residuals, degenerate = um.scaled_residual(*forms), np.isnan(fm.line_angle(*forms))
        for (u, v), res, umbilic in zip(refined.tolist(), residuals.tolist(), degenerate.tolist()):
            u, v, res, umbilic = _snap_alone(spec, chart, u, v, res, umbilic)
            if umbilic:
                point = tuple(float(c) for c in sf.chart_points(spec, chart, u, v))
                found.append(um.UmbilicRecord(point, chart, (u, v), res))
    found.sort(key=lambda r: r.residual)
    r_dedup = um.DEDUP_REL * sf.surface_diameter(spec)
    kept = []
    for rec in found:
        if all(np.linalg.norm(np.subtract(rec.ambient, k.ambient)) >= r_dedup for k in kept):
            kept.append(rec)
    kept.sort(key=lambda r: tuple(round(c, 9) for c in r.ambient))
    return kept


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_mirror_fold_matches_six_chart_scan(name, results):
    """Refining each axis once, on its seeds with u, v >= 0, deduplicating
    the roots folded onto u, v >= 0, and recording each kept root's mirror
    images in both charts gives the six-chart finder's records, ties between
    charts broken the same way."""

    def bits(recs):
        return [
            (r.chart, r.kind, *map(float.hex, (*r.ambient, *r.uv, r.residual)))
            for r in recs
        ]

    spec = BUNDLED[name]
    assert bits(results.records(spec)) == bits(six_chart_reference(spec))


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_finder_evaluates_arrays_and_each_root_once(monkeypatch, name):
    """The finder makes no scalar (0-d) kernel or radicand call, and at most
    one chart_points call per root that the line-field test accepts: the
    mirror images of a root are sign flips of its one ambient point."""
    calls = {"kernel": [], "radicand": [], "chart_points": []}

    def counted(key, func):
        def wrapper(spec, chart, u, v):
            calls[key].append(np.ndim(u))
            return func(spec, chart, u, v)
        return wrapper

    monkeypatch.setattr(fm, "closed_forms_arrays", counted("kernel", fm.closed_forms_arrays))
    monkeypatch.setattr(sf, "radicand", counted("radicand", sf.radicand))
    monkeypatch.setattr(sf, "chart_points", counted("chart_points", sf.chart_points))
    snaps, snap = [], um._snap_symmetry
    monkeypatch.setattr(um, "_snap_symmetry", lambda *args: snaps.append(snap(*args)) or snaps[-1])
    assert um.find_umbilics(BUNDLED[name])
    assert 0 not in calls["kernel"] and 0 not in calls["radicand"]
    [(_, _, accepted)] = snaps
    assert 0 < len(calls["chart_points"]) <= accepted.sum()


@pytest.mark.parametrize("b", [1e100, 1e160, 1e200])
def test_flat_ellipsoid_keeps_both_poles(b):
    """pe(1, b, 0.1) with a huge b is flat: its poles at z = +-b^(-1/2) lie
    far inside the dedup radius of each other, which the x and y extent
    sets.  They are mirror images of one root, never merged, so both are
    recorded and the index sum is 2."""
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
    recs = results.records(SQ_1112)
    pts = np.array([r.ambient for r in recs])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    d[np.diag_indices(len(pts))] = np.inf
    assert d.min() > 1e-6 * sf.surface_diameter(SQ_1112)


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
