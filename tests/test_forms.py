"""Fundamental forms: dual-path agreement, curvatures, convexity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from zlib import crc32
import pytest

import umbilics
from umbilics import forms as fm
from umbilics import surface as sf
from umbilics import umbilic as um
from umbilics.errors import MarginTooSmall
from umbilics.surface import ChartId, ChartPoint, SurfaceSpec

from conftest import BUNDLED, PE_LT, SQ_1112, angle_gap, random_valid_chart_points, weingarten_eig

Z_PLUS = ChartId("z", 1)


def test_quartic_pole_is_flat():
    ff = fm.forms_closed(SQ_1112, ChartPoint(Z_PLUS, 0.0, 0.0))
    assert (ff.E, ff.F, ff.G) == (1.0, 0.0, 1.0)
    assert (ff.e, ff.f, ff.g) == (0.0, 0.0, 0.0)


def test_unit_sphere_pole():
    sphere = SurfaceSpec.perturbed_ellipsoid(1.0, 1.0, 0.0)
    ff = fm.forms_closed(sphere, ChartPoint(Z_PLUS, 0.0, 0.0))
    assert (ff.E, ff.F, ff.G) == (1.0, 0.0, 1.0)
    assert ff.f == 0.0
    assert abs(ff.e - 1.0) < 1e-15 and abs(ff.g - 1.0) < 1e-15
    cs = fm.curvature_summary(sphere, ChartPoint(Z_PLUS, 0.0, 0.0))
    assert cs.degenerate
    assert abs(cs.K - 1.0) < 1e-12 and abs(cs.H - 1.0) < 1e-12


def agreement_specs():
    """(spec, chart) pairs covering every family and chart kind."""
    pairs = []
    for name in ("sq_1112", "sq_2352", "sq_k4", "pe_gt", "pe_lt", "ellipsoid_123"):
        spec = BUNDLED[name]
        for chart in sf.ATLAS:
            pairs.append((name, spec, chart))
    return pairs


def check_forms_agreement(spec, chart, n, seed):
    """Closed vs numeric coefficients at n random interior points."""
    rng = np.random.default_rng(seed)
    us, vs = random_valid_chart_points(spec, chart, n, rng, interior=True)
    worst = 0.0
    for u, v in zip(us, vs):
        cp = ChartPoint(chart, float(u), float(v))
        a = fm.forms_closed(spec, cp)
        b = fm.forms_numeric(spec, cp)
        for x, y in zip(
            (a.E, a.F, a.G, a.e, a.f, a.g), (b.E, b.F, b.G, b.e, b.f, b.g)
        ):
            tol = max(1e-6 * abs(x), 1e-9)
            worst = max(worst, abs(x - y) / tol)
            assert abs(x - y) <= tol, (chart.label, u, v, x, y)
    return worst


@pytest.mark.parametrize(
    "name,spec,chart", agreement_specs(), ids=lambda p: p if isinstance(p, str) else ""
)
def test_closed_vs_numeric_agreement(name, spec, chart):
    check_forms_agreement(spec, chart, 40, seed=crc32(f"{name}/{chart.label}".encode()))


@pytest.mark.parametrize(
    "spec",
    [
        BUNDLED["sq_2352"],
        BUNDLED["sq_123_k3"],
        BUNDLED["pe_lt"],
        BUNDLED["pe_gt"],
        SurfaceSpec.perturbed_ellipsoid(0.3, 0.516, 0.0),
        BUNDLED["ellipsoid_123"],
    ],
    ids=["sq_k2", "sq_k3", "pe_a_lt_b", "pe_a_gt_b", "pe_eps0", "ellipsoid"],
)
def test_mirror_charts_bit_identical(spec):
    """The two charts of an axis are mirror images through the height: at
    the same (u, v) they give the same forms and radicand bit for bit, and
    negated heights.  The finder and the index rely on it to refine and
    draw rings once per axis."""
    rng = np.random.default_rng(23)
    for axis in "xyz":
        plus, minus = ChartId(axis, 1), ChartId(axis, -1)
        us, vs = random_valid_chart_points(spec, plus, 200, rng, margin=sf.DELTA_VALID)
        # array, np.float64 and Python-float kernel paths
        for uu, vv in ((us, vs), (us[0], vs[0]), (float(us[0]), float(vs[0]))):
            for a, b in zip(fm.closed_forms_arrays(spec, plus, uu, vv),
                            fm.closed_forms_arrays(spec, minus, uu, vv)):
                assert np.array_equal(a, b), axis
            assert np.array_equal(sf.radicand(spec, plus, uu, vv), sf.radicand(spec, minus, uu, vv))
        iu, iv, ih = sf.placement(plus)
        p, m = sf.chart_points(spec, plus, us, vs), sf.chart_points(spec, minus, us, vs)
        assert np.array_equal(m[:, ih], -p[:, ih])
        assert np.array_equal(m[:, [iu, iv]], p[:, [iu, iv]])


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_in_chart_reflections_bit_exact(name):
    """Every family is even in each chart coordinate, and the kernel is
    exactly so: at (-u, v), (u, -v) and (-u, -v) every chart gives the forms
    (E, +-F, G, e, +-f, g) and the radicand of (u, v) bit for bit, on the
    array and the Python-float paths."""
    spec = BUNDLED[name]
    rng = np.random.default_rng(37)
    for chart in sf.ATLAS:
        us, vs = random_valid_chart_points(spec, chart, 100, rng, margin=sf.DELTA_VALID)
        for uu, vv in ((us, vs), (float(us[0]), float(vs[0]))):
            want = fm.closed_forms_arrays(spec, chart, uu, vv)
            for su, sv in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
                got = fm.closed_forms_arrays(spec, chart, su * uu, sv * vv)
                for k, (a, b) in enumerate(zip(got, want)):
                    assert np.array_equal(a, b * su * sv if k in (1, 4) else b), (chart, su, sv, k)
                assert np.array_equal(sf.radicand(spec, chart, su * uu, sv * vv),
                                      sf.radicand(spec, chart, uu, vv))


@pytest.mark.parametrize(
    "spec",
    [BUNDLED["sq_2352"], BUNDLED["sq_123_k3"], BUNDLED["pe_lt"], BUNDLED["pe_gt"],
     SurfaceSpec.perturbed_ellipsoid(0.3, 0.516, 0.0), BUNDLED["ellipsoid_123"],
     SurfaceSpec.perturbed_ellipsoid(1.0, 1e-200, 0.1),
     pytest.param(SurfaceSpec.perturbed_ellipsoid(1.0, 1e200, 0.1),
                  marks=pytest.mark.filterwarnings("error::RuntimeWarning"))],
    ids=["sq_k2", "sq_k3", "pe_a_lt_b", "pe_a_gt_b", "pe_eps0", "ellipsoid", "pe_b_tiny", "pe_b_huge"],
)
def test_chart_lane_rows_bit_exact(spec):
    """Rows of a ChartLane, each in its own chart, get from the radicand,
    the height jet and the form kernel the bits their chart's own array
    call gives them; the radicand also on rows outside their chart.  A
    height coefficient b far outside 1e-154..1e154 over- or underflows b * b
    and a quartic z^4 on the X and Y charts: rows without a quartic part
    must not take their bits through either, and on pe_b_huge the lane
    takes no quartic root on them, so nothing overflows."""
    rng = np.random.default_rng(43)
    lane = rng.integers(0, 6, 600)
    uu, vv = np.zeros(600), np.zeros(600)
    for i, chart in enumerate(sf.ATLAS):
        rows = lane == i
        uu[rows], vv[rows] = random_valid_chart_points(spec, chart, rows.sum(), rng, margin=sf.DELTA_VALID)
    rows = sf.ChartLane(spec, lane)
    got = [*fm.closed_forms_arrays(spec, rows, uu, vv), *sf.height_jet(spec, rows, uu, vv)]
    outside = 1.5 * np.array([max(sf.chart_bounds(spec, chart)) for chart in sf.ATLAS])[lane]
    with np.errstate(over="ignore"):      # out of the chart a term may overflow (pe_b_tiny)
        radicands = [sf.radicand(spec, rows, x * uu, vv) for x in (1.0, outside)]
    for i, chart in enumerate(sf.ATLAS):
        u, v = uu[lane == i], vv[lane == i]
        want = [*fm.closed_forms_arrays(spec, chart, u, v), *sf.height_jet(spec, chart, u, v)]
        for a, b in zip(got, want):
            assert a[lane == i].tobytes() == b.tobytes(), chart
        for x, r in zip((1.0, outside[lane == i]), radicands):
            with np.errstate(over="ignore"):
                assert r[lane == i].tobytes() == sf.radicand(spec, chart, x * u, v).tobytes(), chart


SCALAR_SPECS = pytest.mark.parametrize(
    "spec",
    [SQ_1112, BUNDLED["sq_123_k3"], PE_LT, SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 0.0),
     BUNDLED["ellipsoid_123"]],
    ids=["sq_1112", "sq_123_k3", "pe_lt", "pe_eps0", "ellipsoid"],
)


@SCALAR_SPECS
def test_scalar_kernel_path(spec):
    """A Python float or np.float64 (u, v) gives scalars, not arrays, from
    the form kernel, the radicand and the height jet, within 1e-14 relative
    of the one-element array path.  They may differ in the last bit: a
    scalar power of |s| runs libm ``pow``, an array runs numpy's power
    loop, and the two may round differently."""
    rng = np.random.default_rng(31)

    def kernel(chart, u, v):
        return [*fm.closed_forms_arrays(spec, chart, u, v), sf.radicand(spec, chart, u, v),
                *sf.height_jet(spec, chart, u, v)]

    for chart in sf.ATLAS[::2]:
        us, vs = random_valid_chart_points(spec, chart, 40, rng, margin=sf.DELTA_VALID)
        for u, v in zip(us, vs):
            want = kernel(chart, [u], [v])
            for cu, cv in ((float(u), float(v)), (np.float64(u), np.float64(v))):
                for a, b in zip(kernel(chart, cu, cv), want):
                    assert not isinstance(a, np.ndarray) and np.ndim(a) == 0
                    assert abs(a - b[0]) <= 1e-14 * abs(b[0])


@SCALAR_SPECS
def test_scalar_kernel_float_clean(spec):
    """On Python-float (u, v), every chart, the quartic-height charts of the
    perturbed ellipsoids included, gives exact floats from the form kernel,
    the line quadratic and the umbilic residual.  The residual of those
    forms equals the one-element array result bit for bit: both paths
    square by multiplying and take a correctly rounded square root (libm
    ``pow(x, 2)`` is not always the correctly rounded x * x)."""
    rng = np.random.default_rng(41)
    for chart in sf.ATLAS:
        us, vs = random_valid_chart_points(spec, chart, 200, rng, margin=sf.DELTA_VALID)
        for u, v in zip(us, vs):
            forms = fm.closed_forms_arrays(spec, chart, float(u), float(v))
            res = um.scaled_residual(*forms)
            assert {type(x) for x in (*forms, *fm.line_quadratic(*forms), res)} == {float}
            assert res == um.scaled_residual(*(np.array([x]) for x in forms))[0]


def _crossing(spec, chart, v, margin):
    """Adjacent u (inside, outside) at row v of the chart between which the
    scalar radicand falls below ``margin``, by bisection from the chart
    centre outwards."""
    inside, outside = 0.0, 1.01 * sf.chart_bounds(spec, chart)[0]
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return inside, outside
        if sf.radicand(spec, chart, mid, v) >= margin:
            inside = mid
        else:
            outside = mid


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_margin_gated_kernel(name):
    """With a radicand margin, the per-chart scalar kernel returns None
    exactly where the radicand of the same point is below it (-inf
    included, where a quartic height term has no real root) and elsewhere
    the bits of the general kernel, as it does without a margin, on Python
    or numpy floats, as Python floats.  Random float points over each chart's bounding
    rectangle and up to three times beyond it, on all six charts, and the
    two floats either side of DELTA_COVER on two rows of each chart."""
    spec = BUNDLED[name]
    rng = np.random.default_rng(crc32(name.encode()))
    no_root = 0
    for chart in sf.ATLAS:
        kernel = fm.scalar_kernel(spec, chart)
        umax, vmax = sf.chart_bounds(spec, chart)
        points = [(float(u), float(v)) for x, n in ((1.1, 300), (3.0, 60)) for u, v in
                  zip(rng.uniform(-x * umax, x * umax, n), rng.uniform(-x * vmax, x * vmax, n))]
        for v in (0.0, 0.5 * vmax):
            points += [(u, v) for u in _crossing(spec, chart, v, sf.DELTA_COVER)]
        for u, v in points:
            r = sf.radicand(spec, chart, u, v)
            no_root += r == -math.inf
            if r < sf.DELTA_VALID:
                assert kernel(u, v, sf.DELTA_COVER) is kernel(u, v, sf.DELTA_VALID) is None, (chart, u, v)
                continue
            want = [x.hex() for x in fm.closed_forms_arrays(spec, chart, u, v)]
            for margin in (sf.DELTA_COVER, sf.DELTA_VALID, None):
                got = kernel(u, v, margin)
                if margin is not None and r < margin:
                    assert got is None, (chart, u, v, margin)
                else:
                    assert [x.hex() for x in got] == want, (chart, u, v, margin)
            got = kernel(np.float64(u), np.float64(v))
            assert [x.hex() for x in got] == want and {type(x) for x in got} == {float}, (chart, u, v)
    # Only the perturbed ellipsoids' X and Y charts have a quartic height term.
    assert (no_root > 0) == (spec.family == sf.PERTURBED_ELLIPSOID and spec.epsilon > 0.0)


def test_symmetry_locus_exact_zeros():
    rng = np.random.default_rng(3)
    for spec in (SQ_1112, BUNDLED["sq_2352"], PE_LT):
        for chart in sf.ATLAS[:6]:
            umax, vmax = sf.chart_bounds(spec, chart)
            for v in rng.uniform(-0.7 * vmax, 0.7 * vmax, size=5):
                ff = fm.forms_closed(spec, ChartPoint(chart, 0.0, float(v)))
                assert ff.F == 0.0 and ff.f == 0.0
                nf = fm.forms_numeric(spec, ChartPoint(chart, 0.0, float(v)))
                assert abs(nf.F) < 1e-12 and abs(nf.f) < 1e-12
            for u in rng.uniform(-0.7 * umax, 0.7 * umax, size=5):
                ff = fm.forms_closed(spec, ChartPoint(chart, float(u), 0.0))
                assert ff.F == 0.0 and ff.f == 0.0


def _normal_curvatures(E, F, G, e, f, g):
    """The second form along each kernel principal direction (unit in the
    first form), in the kernel's chart-angle order."""
    return [
        e * du * du + 2.0 * f * du * dv + g * dv * dv
        for du, dv in fm.principal_directions(E, F, G, e, f, g)
    ]


def test_shape_operator_sphere_identity():
    assert _normal_curvatures(1, 0, 1, 1, 0, 1) == [1.0, 1.0]


def test_shape_operator_diagonal():
    assert _normal_curvatures(1, 0, 1, 2, 0, 1) == [2.0, 1.0]
    dirs = fm.principal_directions(1, 0, 1, 2, 0, 1)
    assert [math.atan2(dv, du) for du, dv in dirs] == [0.0, math.pi / 2.0]


def test_shape_operator_general_entries():
    # Weingarten quotients transcribed for
    # E=1, F=0.5, G=2, e=0.3, f=0.1, g=0.7 (det I = 1.75).
    det = 1.75
    c00 = (0.3 * 2.0 - 0.1 * 0.5) / det
    c01 = (0.1 * 2.0 - 0.7 * 0.5) / det
    c10 = (0.1 * 1.0 - 0.3 * 0.5) / det
    c11 = (0.7 * 1.0 - 0.1 * 0.5) / det
    k1, k2 = _normal_curvatures(1.0, 0.5, 2.0, 0.3, 0.1, 0.7)
    assert k1 != k2  # two distinct real curvatures
    assert math.isclose(k1 + k2, c00 + c11, rel_tol=1e-15)
    assert math.isclose(k1 * k2, c00 * c11 - c01 * c10, rel_tol=1e-15)


@pytest.mark.parametrize("name", ["sq_2352", "pe_lt", "ellipsoid_123"])
def test_shape_operator_consistency(name):
    """k1 + k2 = 2H and k1 k2 = K = (eg - f^2)/(EG - F^2)."""
    spec = BUNDLED[name]
    rng = np.random.default_rng(17)
    chart = sf.ATLAS[0]
    us, vs = random_valid_chart_points(spec, chart, 200, rng)
    for u, v in zip(us, vs):
        cp = ChartPoint(chart, float(u), float(v))
        ff = fm.forms_closed(spec, cp)
        cs = fm.curvature_summary(spec, cp)
        assert cs.k1 >= cs.k2
        tr = cs.k1 + cs.k2
        det = cs.k1 * cs.k2
        assert abs(tr - 2.0 * cs.H) <= 1e-9 * max(abs(tr), 1.0)
        assert abs(det - cs.K) <= 1e-9 * max(abs(det), 1.0)
        direct = (ff.e * ff.g - ff.f**2) / ff.det_first
        assert abs(det - direct) <= 1e-12 * max(abs(det), 1e-30)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_principal_directions_match_weingarten_eig(name):
    """Kernel directions and curvatures against numpy.linalg.eig of I^-1 II,
    on every chart, wherever the curvatures are well separated."""
    spec = BUNDLED[name]
    rng = np.random.default_rng(29)
    checked = 0
    for chart in sf.ATLAS:
        us, vs = random_valid_chart_points(spec, chart, 200, rng)
        for u, v in zip(us, vs):
            cp = ChartPoint(chart, float(u), float(v))
            ff = fm.forms_closed(spec, cp)
            k1, k2, t1, t2 = weingarten_eig(ff.E, ff.F, ff.G, ff.e, ff.f, ff.g)
            if k1 - k2 < 1e-6 * (abs(k1) + abs(k2)):
                continue
            for du, dv in fm.principal_directions(ff.E, ff.F, ff.G, ff.e, ff.f, ff.g):
                t = math.atan2(dv, du)
                assert min(angle_gap(t, t1), angle_gap(t, t2)) < 1e-11
            # eig's error is relative to the operator's size, not to each
            # eigenvalue: a k2 near 0 beside k1 ~ 1 (superquadric flats)
            # carries its absolute error.
            cs = fm.curvature_summary(spec, cp)
            scale = abs(k1) + abs(k2)
            assert abs(cs.k1 - k1) <= 1e-11 * scale
            assert abs(cs.k2 - k2) <= 1e-11 * scale
            checked += 1
    assert checked > 0


def test_principal_directions_first_form_orthogonal():
    rng = np.random.default_rng(23)
    for name in ("sq_2352", "pe_gt", "ellipsoid_123"):
        spec = BUNDLED[name]
        chart = sf.ATLAS[0]
        us, vs = random_valid_chart_points(spec, chart, 150, rng)
        for u, v in zip(us, vs):
            cs = fm.curvature_summary(spec, ChartPoint(chart, float(u), float(v)))
            # eigenvector accuracy degrades as k1 -> k2; test clear separations
            if cs.degenerate or abs(cs.k1 - cs.k2) < 1e-6 * (abs(cs.k1) + abs(cs.k2) + 1):
                continue
            ff = fm.forms_closed(spec, ChartPoint(chart, float(u), float(v)))
            (du1, dv1), (du2, dv2) = cs.dir1, cs.dir2
            ip = ff.E * du1 * du2 + ff.F * (du1 * dv2 + du2 * dv1) + ff.G * dv1 * dv2
            assert abs(ip) < 1e-8


def test_eigenvalues_chart_independent():
    """The same ambient point seen from two overlapping charts."""
    spec = SQ_1112
    p = sf.chart_to_ambient(spec, ChartPoint(Z_PLUS, 0.55, 0.35))
    seen = 0
    vals = []
    for chart in sf.ATLAS:
        pre = sf.ambient_to_chart(spec, chart, p)
        if pre is None or pre[2] < sf.DELTA_COVER:
            continue
        cs = fm.curvature_summary(spec, ChartPoint(chart, pre[0], pre[1]))
        vals.append((cs.k1, cs.k2))
        seen += 1
    assert seen >= 2
    k1s = [k for k, _ in vals]
    k2s = [k for _, k in vals]
    assert max(k1s) - min(k1s) <= 1e-6 * max(abs(k) for k in k1s)
    assert max(k2s) - min(k2s) <= 1e-6 * max(abs(k) for k in k2s)


def test_superquadric_kurvature_nonnegative_sample():
    rng = np.random.default_rng(41)
    total = 0
    for chart in sf.ATLAS:
        us, vs = random_valid_chart_points(SQ_1112, chart, 350, rng, margin=sf.DELTA_COVER)
        K = fm.gaussian_curvature_arrays(SQ_1112, chart, us, vs)
        assert np.all(K >= -1e-10)
        total += us.size
    assert total >= 2000


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_convexity_scan_judges_overflowing_first_form():
    """On pe(1, 1e-200, 0.1) E G - F^2 overflows on every Z+ and Z- sample
    (E, F and G reach 1e203); K there comes from E + G - 1 instead, so each
    such sample is judged, finite and positive, without a RuntimeWarning."""
    spec = SurfaceSpec.perturbed_ellipsoid(1.0, 1e-200, 0.1)
    rng = np.random.default_rng(47)
    for chart in sf.ATLAS[4:]:
        us, vs = random_valid_chart_points(spec, chart, 500, rng)
        E, F, G, *_ = fm.closed_forms_arrays(spec, chart, us, vs)
        assert np.all(np.minimum(E, G) > 1e100)
        K = fm.gaussian_curvature_arrays(spec, chart, us, vs)
        assert np.all(np.isfinite(K) & (K > 0.0))
    rep = fm.convexity_scan(spec, 10_000)
    assert rep.passed and rep.min_K > 0.0


def test_convexity_scan_examples():
    assert fm.convexity_scan(SQ_1112, 10_000, seed=1).passed
    rep = fm.convexity_scan(SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 0.1), 10_000, seed=1)
    assert rep.passed and rep.min_K > 0.0
    rep = fm.convexity_scan(BUNDLED["ellipsoid_123"], 10_000, seed=1)
    assert rep.passed and rep.min_K > 0.0


def test_package_imports_without_scipy():
    """The runtime needs numpy only: importing the package loads no scipy."""
    code = "import sys, umbilics; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(umbilics.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_forms_numeric_margin_too_small():
    # Valid point, but the stencil crosses the chart boundary.
    u = 0.999999
    assert sf.chart_valid(SQ_1112, Z_PLUS, u, 0.0)
    with pytest.raises(MarginTooSmall):
        fm.forms_numeric(SQ_1112, ChartPoint(Z_PLUS, u, 0.0))
