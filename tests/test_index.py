"""Winding indices, index sums, and the parameter sweep."""

import math
from dataclasses import replace

import numpy as np
import pytest

from umbilics import forms as fm
from umbilics import index as ix
from umbilics import surface as sf
from umbilics import umbilic as um
from umbilics.errors import CircleInvalid, MissingIndex, NonConvergentLift, NotIsolated
from umbilics.surface import ChartId, SurfaceSpec

from conftest import (
    BUNDLED, EPS_C_PLUS, PE_GT, PE_LT, SPHERE, SQ_1112, random_valid_chart_points, weingarten_eig,
)

SQ_123_K11 = SurfaceSpec.superquadric(1, 2, 3, 11)


def test_ellipsoid_indices(results):
    recs = results.indexed(BUNDLED["ellipsoid_123"])
    assert len(recs) == 4
    assert all(r.index == 0.5 for r in recs)
    ph = ix.poincare_hopf_check(BUNDLED["ellipsoid_123"], recs)
    assert ph.total == 2.0 and ph.passed


def _classify(rec):
    nz = sum(1 for c in rec.ambient if c != 0.0)
    return "axis" if nz == 1 else "diag"


def test_superquadric_indices(results):
    recs = results.indexed(SQ_1112)
    multiset = dict(ix.index_multiset(recs))
    # dense-lift oracle (samples=4096) fixed these values during design;
    # re-checked against the default sampling below
    assert multiset == {1.0: 6, -0.5: 8}
    for rec in recs:
        want = 1.0 if _classify(rec) == "axis" else -0.5
        assert rec.index == want
    assert ix.poincare_hopf_check(SQ_1112, recs).passed


def _index_with(monkeypatch, name, value, rec, recs):
    """umbilic_index of rec with one ring constant set to value."""
    with monkeypatch.context() as m:
        m.setattr(ix, name, value)
        return ix.umbilic_index(SQ_1112, rec, recs)


def test_index_sampling_oracle(results, monkeypatch):
    """Default sampling agrees with a dense 4096-sample lift exactly."""
    recs = results.records(SQ_1112)
    axis = next(r for r in recs if _classify(r) == "axis")
    diag = next(r for r in recs if _classify(r) == "diag")
    for rec in (axis, diag):
        dense = _index_with(monkeypatch, "RING_SAMPLES", 4096, rec, recs)
        co360 = _index_with(monkeypatch, "RING_SAMPLES", 360, rec, recs)
        default = ix.umbilic_index(SQ_1112, rec, recs)
        assert dense.index == co360.index == default.index


def _record_beside(spec, rec, du):
    """A record du from rec along its chart's u axis, in rec's chart."""
    u, v = rec.uv[0] + du, rec.uv[1]
    return um.UmbilicRecord(
        tuple(float(c) for c in sf.chart_points(spec, rec.chart, u, v)), rec.chart, (u, v), 0.0
    )


def test_index_radius_stability(results):
    """An extra record 0.02 or 0.04 away caps the diagonal ring at 0.01 or
    0.02, inside the radius 0.0625 it takes among the 14 points (its cap of
    0.5, halved three times to fit in the chart): the index stays."""
    recs = results.records(SQ_1112)
    diag = next(r for r in recs if _classify(r) == "diag")
    r1, r2 = (ix.umbilic_index(SQ_1112, diag, recs + [_record_beside(SQ_1112, diag, du)])
              for du in (0.04, 0.02))
    assert (r1.radius, r2.radius) == pytest.approx((0.02, 0.01), rel=1e-12)
    assert r1.index == r2.index == ix.umbilic_index(SQ_1112, diag, recs).index
    assert 2.0 * r1.index == round(2.0 * r1.index)


def test_index_chart_independent(results):
    """The same umbilic measured in two different charts."""
    recs = results.records(SQ_1112)
    diag = next(r for r in recs if _classify(r) == "diag")
    got = {}
    for chart in sf.ATLAS:
        pre = sf.ambient_to_chart(SQ_1112, chart, np.array(diag.ambient))
        if pre is None or pre[2] < 0.05:
            continue
        rec2 = replace(diag, chart=chart, uv=(pre[0], pre[1]))
        got[chart.label] = ix.umbilic_index(SQ_1112, rec2, recs).index
    assert len(got) >= 2
    assert len(set(got.values())) == 1


def test_equator_index_in_rotated_chart(results):
    """An equator umbilic measured in a second Monge chart gives the same index."""
    recs = results.records(PE_LT)
    eq = next(r for r in recs if abs(r.ambient[2]) < 1e-9 and r.ambient[1] > 0)
    base = ix.umbilic_index(PE_LT, eq, recs).index
    chart, pre = next(
        (c, pre) for c in sf.ATLAS
        if c != eq.chart
        and (pre := sf.ambient_to_chart(PE_LT, c, np.array(eq.ambient))) is not None
    )
    rec2 = replace(eq, chart=chart, uv=(pre[0], pre[1]))
    assert ix.umbilic_index(PE_LT, rec2, recs).index == base == 0.5


def test_perturbed_multisets(results):
    gt = dict(ix.index_multiset(results.indexed(PE_GT)))
    assert gt == {-1.0: 2, 0.5: 8}
    lt = dict(ix.index_multiset(results.indexed(PE_LT)))
    assert lt == {1.0: 2, -0.5: 8, 0.5: 8}
    for spec in (PE_GT, PE_LT):
        assert ix.poincare_hopf_check(spec, results.indexed(spec)).passed


def test_pole_index_below_threshold(results):
    recs = results.indexed(BUNDLED["pe_gt_eps_lo"])
    assert dict(ix.index_multiset(recs)) == {1.0: 2}


def _sq_c100_diagonal_from_z_minus():
    """sq_c100's diagonal umbilic near the Z- chart edge, as a Z- record."""
    spec, chart = BUNDLED["sq_c100"], ChartId("z", -1)
    p = next(p for p in um.closed_form_umbilics(spec) if p[0] < 0 < p[1] and p[2] < 0)
    u, v, _ = sf.ambient_to_chart(spec, chart, p)
    return spec, um.UmbilicRecord(tuple(p), chart, (u, v), 0.0)


def test_ring_leaving_chart_is_circle_invalid(results, monkeypatch):
    """A ring with samples past the chart edge is halved: the sq_c100
    diagonal point seen from Z- needs radius 2^-10, nine halvings down from
    its cap of 0.5, half the chart half-width.  A ring that never fits is
    CircleInvalid once the radius is 1e-9 or less (29 halvings), without a
    lift."""
    spec, rec = _sq_c100_diagonal_from_z_minus()
    records = results.records(spec)
    res = ix.umbilic_index(spec, rec, records)
    assert (res.index, res.radius) == (-0.5, 2.0 ** -10)

    rings = []

    def nowhere(spec, chart, u, v, margin=sf.DELTA_VALID):
        rings.append(np.size(u))
        return np.zeros(np.shape(u), bool)

    monkeypatch.setattr(sf, "chart_valid", nowhere)
    monkeypatch.setattr(fm, "lift_lines", None)
    with pytest.raises(CircleInvalid):
        ix.umbilic_index(spec, rec, records)
    assert rings.count(ix.RING_SAMPLES + 1) == 30


def test_unresolved_ring_raises_after_one_lift(results, monkeypatch):
    """An unresolved lift raises at once: the ring is lifted once, at the
    radius that fits in its chart, and never redrawn."""
    spec, rec = _sq_c100_diagonal_from_z_minus()
    lift, lifts = fm.lift_lines, []

    def unresolved(*args):
        lifts.append(args)
        *out, resolved = lift(*args)
        return (*out, np.zeros_like(resolved))

    monkeypatch.setattr(fm, "lift_lines", unresolved)
    with pytest.raises(NonConvergentLift):
        ix.umbilic_index(spec, rec, results.records(spec))
    assert len(lifts) == 1


@pytest.mark.parametrize("name", ["sq_c100", "pe_lt"])
def test_one_chart_margin(name, monkeypatch):
    """The index ring tests chart validity with the one margin DELTA_VALID
    (the finder tests none: its points are on the surface and each sits in
    its home chart)."""
    spec, valid, margins = BUNDLED[name], sf.chart_valid, set()

    def recorded(spec, chart, u, v, margin=sf.DELTA_VALID):
        margins.add(margin)
        return valid(spec, chart, u, v, margin)

    monkeypatch.setattr(sf, "chart_valid", recorded)
    ix.attach_indices(spec, um.find_umbilics(spec))
    assert margins == {sf.DELTA_VALID}


def test_bisection_one_kernel_call_per_level(results, monkeypatch):
    """All midpoints of one bisection level take their forms in one kernel
    call: sq_c100's X- axis ring (radius 0.158, its cap: half the smaller
    chart half-width) holds 40 bisection samples, 4 on each of 10 levels."""
    spec = BUNDLED["sq_c100"]
    records = results.records(spec)
    [rec] = [r for r in records
             if r.ambient[0] < 0.0 and abs(r.ambient[1]) < 1e-9 and abs(r.ambient[2]) < 1e-9]
    kernel, calls = fm.closed_forms_arrays, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(fm, "closed_forms_arrays", counted)
    res = ix.umbilic_index(spec, rec, records)
    assert (res.index, res.samples) == (1.0, 761)
    assert res.radius == pytest.approx(0.158113883, rel=1e-9)
    assert len(calls) == 11 < res.samples - (ix.RING_SAMPLES + 1)


def _ring_key(rec):
    return (rec.chart.axis, abs(rec.uv[0]), abs(rec.uv[1]), rec.kind)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_attach_indices_draws_each_ring_once(name, results, monkeypatch):
    """Mirrored records share one ring per (axis, |u|, |v|, kind) key: the
    first ring round's kernel call takes RING_SAMPLES + 1 rows per key
    (pe_lt's 18 records need 4 rings, and each superquadric's 14 need 4
    where the signed uv would need 7), and the shared results equal each
    record's own umbilic_index."""
    spec = BUNDLED[name]
    records, windings = results.records(spec), results.windings(spec)
    rings = {_ring_key(r) for r in records}
    kernel, rows = fm.closed_forms_arrays, []

    def counted(spec, chart, u, v):
        rows.append(np.size(u))
        return kernel(spec, chart, u, v)

    monkeypatch.setattr(fm, "closed_forms_arrays", counted)
    indexed = ix.attach_indices(spec, records)
    assert rows[0] == len(rings) * (ix.RING_SAMPLES + 1)
    if name == "pe_lt":
        assert (len(records), len(rings)) == (18, 4)
    if spec.family == sf.SUPERQUADRIC:
        assert (len({(r.chart.axis, r.uv, r.kind) for r in records}), len(rings)) == (7, 4)
    assert [r.index for r in indexed] == [w.index for w in windings]


@pytest.mark.parametrize("spec", [PE_LT, SQ_123_K11], ids=["pe_lt", "sq_123_k11"])
def test_ring_rounds_broadcast_lanes(spec, monkeypatch):
    """The rings evaluate their (rings, samples) arrays on a ChartLane of
    shape (rings, 1), whose coefficients broadcast against the samples
    rather than being gathered for every sample: the radius caps (against
    every record), each fit pass and the one kernel call alike."""
    records = um.find_umbilics(spec)
    valid, kernel, calls = sf.chart_valid, fm.closed_forms_arrays, []

    def valid_seen(spec, chart, u, v, margin=sf.DELTA_VALID):
        calls.append((np.shape(chart.sign), np.shape(u)))
        return valid(spec, chart, u, v, margin)

    def kernel_seen(spec, chart, u, v):
        calls.append((np.shape(chart.sign), np.shape(u)))
        return kernel(spec, chart, u, v)

    monkeypatch.setattr(sf, "chart_valid", valid_seen)
    monkeypatch.setattr(fm, "closed_forms_arrays", kernel_seen)
    ix.attach_indices(spec, records)
    calls_2d = [(lane, shape) for lane, shape in calls if len(shape) == 2]
    assert all(lane == (shape[0], 1) for lane, shape in calls_2d)
    widths = [shape[1] for _, shape in calls_2d]
    assert widths[0] == len(records) and widths.count(ix.RING_SAMPLES + 1) >= 2


def test_attach_indices_lifts_rings_together(results, monkeypatch):
    """All rings of a spec are drawn and lifted in one pass per round:
    attach_indices on sq_k4 makes fewer kernel calls than its rings drawn
    one at a time."""
    spec = BUNDLED["sq_k4"]
    records = results.records(spec)
    kernel, calls = fm.closed_forms_arrays, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(fm, "closed_forms_arrays", counted)
    ix.attach_indices(spec, records)
    together = len(calls)
    firsts = {}
    for rec in records:
        firsts.setdefault(_ring_key(rec), rec)
    calls.clear()
    for rec in firsts.values():
        ix.umbilic_index(spec, rec, records)
    assert 0 < together < len(calls)


def test_ring_cap_counts_every_other_record(results):
    """A record 5e-6 from a diagonal umbilic in chart coordinates is another
    point, so the diagonal ring clips to half that gap; a second record at
    the ring's centre (zero gap) is the ring's own point and leaves the
    ring at its cap."""
    recs = results.records(SQ_1112)
    diag = next(r for r in recs if _classify(r) == "diag")
    near = _record_beside(SQ_1112, diag, 5e-6)
    assert ix.umbilic_index(SQ_1112, diag, recs + [near]).radius == pytest.approx(2.5e-6, rel=1e-6)
    own = ix.umbilic_index(SQ_1112, diag, recs + [diag]).radius
    assert own == ix.umbilic_index(SQ_1112, diag, recs).radius == _cap(SQ_1112, diag, recs) / 8.0


def _cap(spec, rec, records):
    """Half the smallest nonzero chart gap to another record on rec's side
    of its chart, and at most half the smaller chart half-width."""
    iu, iv, ih = sf.placement(rec.chart)
    gaps = [math.hypot(p[iu] - rec.uv[0], p[iv] - rec.uv[1]) for p in (r.ambient for r in records)
            if p[ih] * rec.chart.sign >= 0.0 and sf.chart_valid(spec, rec.chart, p[iu], p[iv])]
    return 0.5 * min([g for g in gaps if g > 0.0] + list(sf.chart_bounds(spec, rec.chart)))


def test_ring_radius_is_cap_halved_and_lifted_once(monkeypatch):
    """Every ring of sq(1, 2, 3, 11) is drawn at its cap, halved only while
    it leaves its chart (radius = cap / 2^n), and attach_indices lifts all
    rings in one lift_lines call."""
    spec = SQ_123_K11
    records = um.find_umbilics(spec)
    for rec in records:
        res = ix.umbilic_index(spec, rec, records)
        halvings = math.log2(_cap(spec, rec, records) / res.radius)
        assert halvings == round(halvings) >= 0
    lift, lifts = fm.lift_lines, []

    def counted(*args):
        lifts.append(args)
        return lift(*args)

    monkeypatch.setattr(fm, "lift_lines", counted)
    ix.attach_indices(spec, records)
    assert len(lifts) == 1


def test_ring_clips_to_mirror_image_one_ulp_above_eps_c():
    """One ulp above eps_c with a < b the 8 interior points sit at
    z = +-4.9e-9, 9.8e-9 from their mirror images.  Each ring clips to half
    that gap, where the line field is unresolved, so attach_indices raises
    rather than enclose the mirror image and report index 0."""
    spec = EPS_C_PLUS["a_less_b"]
    with pytest.raises(NonConvergentLift, match="radius 4.88"):
        ix.attach_indices(spec, um.find_umbilics(spec))


def test_ring_angle_bisects_principal_frame():
    """The ring angle psi halves theta1 + theta2 mod pi, the angles of the
    Weingarten-matrix eigenvectors, wherever the curvatures are
    distinguishable."""
    rng = np.random.default_rng(10)
    checked = 0
    for spec in BUNDLED.values():
        for chart in sf.ATLAS:
            uu, vv = random_valid_chart_points(spec, chart, 200, rng)
            psi = fm.line_angle(*fm.closed_forms_arrays(spec, chart, uu, vv))
            forms = zip(*(a.tolist() for a in fm.closed_forms_arrays(spec, chart, uu, vv)))
            for p, ff in zip(psi.tolist(), forms):
                k1, k2, theta1, theta2 = weingarten_eig(*ff)
                if k1 - k2 < 1e-6 * (abs(k1) + abs(k2)):
                    continue
                gap = (theta1 + theta2 - 2.0 * p) % math.pi
                assert min(gap, math.pi - gap) < 1e-12
                checked += 1
    assert checked > 10_000


def test_not_isolated_rejected():
    recs = um.find_umbilics(SPHERE)
    with pytest.raises(NotIsolated):
        ix.umbilic_index(SPHERE, recs[0], recs)
    with pytest.raises(NotIsolated):
        ix.poincare_hopf_check(SPHERE, recs)


def test_missing_index_rejected(results):
    recs = results.records(BUNDLED["ellipsoid_123"])
    with pytest.raises(MissingIndex):
        ix.poincare_hopf_check(BUNDLED["ellipsoid_123"], recs)
    with pytest.raises(MissingIndex):
        ix.index_multiset(recs)


def test_winding_results_are_half_integers(results):
    recs = results.records(BUNDLED["pe_gt_eps_hi"])
    for rec in recs:
        res = ix.umbilic_index(BUNDLED["pe_gt_eps_hi"], rec, recs)
        assert 2.0 * res.index == round(2.0 * res.index)
        assert res.radius > 0


def test_conjecture_sweep_superquadric():
    grid = [
        SurfaceSpec.superquadric(1, 1, 1, 2),
        SurfaceSpec.superquadric(1, 1, 100, 2),
        SurfaceSpec.superquadric(1, 10, 10, 2),
        SurfaceSpec.superquadric(1, 1, 1, 3),
    ]
    rows, constant = ix.conjecture_sweep(grid)
    assert all(row.error is None for row in rows)
    assert all(row.count == 14 for row in rows)
    assert all(row.index_sum == 2.0 for row in rows)
    assert constant
    assert rows[0].multiset == ((-0.5, 8), (1.0, 6))


def test_conjecture_sweep_survives_bad_spec():
    rows, constant = ix.conjecture_sweep([SQ_1112, SPHERE])
    assert rows[0].error is None
    assert rows[1].error is not None
    assert constant  # judged over the successful rows only
