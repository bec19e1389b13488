"""Surface families, charts, coverage, and spec serialization."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilics import surface as sf
from umbilics.errors import InvalidChartPoint, SpecError
from umbilics.surface import ChartId, ChartPoint, SurfaceSpec

from conftest import (
    BUNDLED, PE_LT, SQ_1112, random_surface_points, random_valid_chart_points,
)

Z_PLUS = ChartId("z", 1)


def test_implicit_value_examples():
    assert sf.implicit_value(SQ_1112, [1, 0, 0]) == 0.0
    assert sf.implicit_value(SQ_1112, [0, 0, 0]) == -1.0
    pe = SurfaceSpec.perturbed_ellipsoid(0.2, 0.5, 0.0)
    assert abs(sf.implicit_value(pe, [0, 0, math.sqrt(2)])) < 1e-15


def test_implicit_gradient_examples():
    assert np.allclose(sf.implicit_gradient(SQ_1112, [1, 0, 0]), [4, 0, 0])
    pe = SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 0.1)
    assert np.allclose(sf.implicit_gradient(pe, [0, 0, 0]), [0, 0, 0])
    # f_x = 2 a x + 4 eps x^3 at (1, 0, 0)
    assert np.allclose(sf.implicit_gradient(pe, [1, 0, 0]), [1.4, 0, 0])


@pytest.mark.parametrize("name", ["sq_2352", "pe_lt", "ellipsoid_123"])
def test_gradient_matches_finite_differences(name):
    spec = BUNDLED[name]
    rng = np.random.default_rng(11)
    pts = random_surface_points(spec, 1000, rng)
    h = 1e-6
    for axis in range(3):
        dp = np.zeros(3)
        dp[axis] = h
        fd = (sf.implicit_value(spec, pts + dp) - sf.implicit_value(spec, pts - dp)) / (
            2 * h
        )
        grad = sf.implicit_gradient(spec, pts)[:, axis]
        scale = np.maximum(np.abs(grad), 1.0)
        assert np.all(np.abs(fd - grad) <= 1e-7 * scale)


def test_chart_to_ambient_pole():
    p = sf.chart_to_ambient(SQ_1112, ChartPoint(Z_PLUS, 0.0, 0.0))
    assert np.allclose(p, [0, 0, 1], atol=0)


def test_chart_to_ambient_derived_height():
    # Independent oracle: root of f(0.7, 0, z) along z (bisected with brentq
    # during test design); frozen value below, re-verified here.
    from scipy.optimize import brentq

    z_oracle = brentq(
        lambda t: 0.7**4 + t**4 - 1.0, 0.5, 1.0, xtol=1e-15, rtol=8.9e-16
    )
    assert abs(z_oracle - 0.9336607697059465) < 1e-15
    p = sf.chart_to_ambient(SQ_1112, ChartPoint(Z_PLUS, 0.7, 0.0))
    assert abs(p[2] - z_oracle) < 1e-14
    assert abs(sf.implicit_value(SQ_1112, p)) < 1e-12


def test_rotated_equator_origin():
    """The Y charts contain the z = 0 equator; their origin lies on it."""
    chart = ChartId("y", 1)
    p = sf.chart_to_ambient(PE_LT, ChartPoint(chart, 0.0, 0.0))
    # (sqrt(a^2 + 4 eps) - a) / (2 eps) = 2 for a = 0.3, eps = 0.1
    assert abs(p[1] - math.sqrt(2.0)) < 1e-14
    assert abs(sf.implicit_value(PE_LT, p)) < 1e-12
    minus = ChartId("y", -1)
    pm = sf.chart_to_ambient(PE_LT, ChartPoint(minus, 0.0, 0.0))
    assert abs(pm[1] + math.sqrt(2.0)) < 1e-14


def test_chart_to_ambient_invalid():
    with pytest.raises(InvalidChartPoint):
        sf.chart_to_ambient(SQ_1112, ChartPoint(Z_PLUS, 2.0, 0.0))
    with pytest.raises(InvalidChartPoint):
        sf.chart_to_ambient(PE_LT, ChartPoint(ChartId("y", 1), 0.0, 5.0))
    # A Python-float power past the float range raises OverflowError where
    # numpy returns inf; the point is still rejected as invalid.
    with pytest.raises(InvalidChartPoint):
        sf.chart_to_ambient(SQ_1112, ChartPoint(Z_PLUS, 1e100, 0.0))


def test_atlas_counts():
    """One chart per axis and side: the same six for every spec."""
    assert len(set(sf.ATLAS)) == 6
    assert {(chart.axis, chart.sign) for chart in sf.ATLAS} == {
        (axis, sign) for axis in "xyz" for sign in (1, -1)}


@pytest.mark.parametrize("name", ["sq_1112", "sq_c100", "pe_lt", "pe_gt", "ellipsoid_123"])
def test_atlas_coverage(name):
    spec = BUNDLED[name]
    rng = np.random.default_rng(5)
    pts = random_surface_points(spec, 10_000, rng)
    charts = sf.ATLAS
    covered = np.zeros(len(pts), dtype=bool)
    for chart in charts:
        iu, iv, ih = sf.placement(chart)
        r = sf.radicand(spec, chart, pts[:, iu], pts[:, iv])
        right_side = pts[:, ih] * chart.sign >= 0
        covered |= (r >= sf.DELTA_COVER) & right_side
    assert covered.all()


def _spec_strategy():
    sq = st.tuples(
        st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
        st.integers(2, 4),
    ).map(lambda t: SurfaceSpec.superquadric(*t))
    pe = st.tuples(
        st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.0, 0.5)
    ).map(lambda t: SurfaceSpec.perturbed_ellipsoid(*t))
    el = st.tuples(
        st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0)
    ).map(lambda t: SurfaceSpec.ellipsoid(*t))
    return st.one_of(sq, pe, el)


@given(
    spec=_spec_strategy(),
    chart_i=st.integers(0, 7),
    fu=st.floats(-0.95, 0.95),
    fv=st.floats(-0.95, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_chart_roundtrip_property(spec, chart_i, fu, fv):
    charts = sf.ATLAS
    chart = charts[chart_i % len(charts)]
    umax, vmax = sf.chart_bounds(spec, chart)
    u, v = fu * umax, fv * vmax
    if not sf.chart_valid(spec, chart, u, v, margin=1e-6):
        return
    p = sf.chart_to_ambient(spec, ChartPoint(chart, u, v))
    assert abs(sf.implicit_value(spec, p)) < 1e-11
    back = sf.ambient_to_chart(spec, chart, p)
    assert back is not None
    assert abs(back[0] - u) < 1e-12 and abs(back[1] - v) < 1e-12


@given(
    spec=_spec_strategy(),
    chart_i=st.integers(0, 5),
    fu=st.floats(-0.9, 0.9),
    fv=st.floats(-0.9, 0.9),
)
@settings(max_examples=60, deadline=None)
def test_symmetry_orbit(spec, chart_i, fu, fv):
    """Negating (u, v) reflects the ambient point through the chart axis."""
    chart = sf.ATLAS[chart_i % 6]
    umax, vmax = sf.chart_bounds(spec, chart)
    u, v = fu * umax, fv * vmax
    if not sf.chart_valid(spec, chart, u, v, margin=1e-9):
        return
    p = sf.chart_to_ambient(spec, ChartPoint(chart, u, v))
    q = sf.chart_to_ambient(spec, ChartPoint(chart, -u, -v))
    iu, iv, ih = sf.placement(chart)
    expected = p.copy()
    expected[iu] *= -1.0
    expected[iv] *= -1.0
    assert np.allclose(q, expected, atol=1e-15, rtol=0)


def test_spec_json_roundtrip():
    for spec in BUNDLED.values():
        assert SurfaceSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize(
    "obj",
    [
        {"family": "superquadric", "a": 1, "b": 1, "c": 1},                 # no k
        {"family": "superquadric", "a": 1, "b": 1, "c": 1, "k": 2, "epsilon": 0.1},
        {"family": "perturbed_ellipsoid", "a": 1, "b": 1},                  # no eps
        {"family": "perturbed_ellipsoid", "a": 1, "b": 1, "epsilon": 0.1, "c": 2},
        {"family": "ellipsoid", "a": 1, "b": 2},                            # no c
        {"family": "torus", "a": 1, "b": 2},
        {"family": "ellipsoid", "a": -1, "b": 2, "c": 3},
        {"family": "perturbed_ellipsoid", "a": 1, "b": 1, "epsilon": -0.5},
        {"family": "superquadric", "a": 1, "b": 1, "c": 1, "k": 2.5},      # not truncated
        {"family": "superquadric", "a": math.inf, "b": 1, "c": 1, "k": 2},
        {"family": "ellipsoid", "a": 1, "b": math.inf, "c": 3},
        {"family": "ellipsoid", "a": 1, "b": 2, "c": math.inf},
        {"family": "perturbed_ellipsoid", "a": 1, "b": 1, "epsilon": math.nan},
        {"family": "perturbed_ellipsoid", "a": 1, "b": 1, "epsilon": math.inf},
        {"family": "ellipsoid", "a": "1", "b": 2, "c": 3},                 # not coerced
        {"family": "perturbed_ellipsoid", "a": 1, "b": 1, "epsilon": "0.1"},
        {"family": "ellipsoid", "a": 1, "b": True, "c": 3},
        {"family": "ellipsoid", "a": 10**400, "b": 2, "c": 3},             # float() overflows
        {"family": "superquadric", "a": 1, "b": 1, "c": 1, "k": 1e200},    # the term scales overflow
        {"family": ["superquadric"], "a": 1},                              # unhashable family
        "not an object",
    ],
)
def test_spec_json_rejected(obj):
    with pytest.raises(SpecError):
        SurfaceSpec.from_json(obj)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SurfaceSpec("ellipsoid", True, 2, 3),
        lambda: SurfaceSpec.ellipsoid("1", 2, 3),
        lambda: SurfaceSpec.perturbed_ellipsoid(1, 1, True),
        lambda: SurfaceSpec.superquadric(1, 1, 1, 10**200),
        lambda: SurfaceSpec("superquadric", 1, 1, 1, 2, 0.1),
        lambda: SurfaceSpec("ellipsoid", 1, 2),
        lambda: SurfaceSpec(["ellipsoid"], 1, 2, 3),
    ],
    ids=["bool", "string", "bool_epsilon", "huge_k", "extra_field", "missing_field", "unhashable_family"],
)
def test_python_constructors_apply_json_checks(make):
    """The constructor is where every field is checked, so the Python route
    rejects what the JSON route rejects instead of coercing it."""
    with pytest.raises(SpecError):
        make()


def test_spec_fields_stored_as_floats():
    """Coefficients are stored as floats and k as an int, whichever real
    type they came as, and the JSON route gives the same spec."""
    spec = SurfaceSpec("superquadric", 1, np.float64(2.5), Fraction(3), 2.0)
    assert [type(x) for x in (spec.a, spec.b, spec.c, spec.k)] == [float, float, float, int]
    assert spec.to_json() == {"family": "superquadric", "a": 1.0, "b": 2.5, "c": 3.0, "k": 2}
    assert SurfaceSpec.from_json({"family": "superquadric", "a": 1, "b": 2.5, "c": 3, "k": 2}) == spec
    assert type(SurfaceSpec("perturbed_ellipsoid", 1, 2, epsilon=0).epsilon) is float


@pytest.mark.parametrize(
    "content", [None, b'{"family": "\xff"}'], ids=["directory", "not_utf8"]
)
def test_load_spec_unreadable(tmp_path, content):
    """A directory or a non-UTF-8 file is a SpecError, not a traceback."""
    path = tmp_path / "spec"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(SpecError):
        sf.load_spec(path)


def test_k1_rejected_with_pointer():
    with pytest.raises(SpecError, match="ellipsoid"):
        SurfaceSpec.superquadric(1, 1, 1, 1)


@pytest.mark.parametrize("d", [None, 0.0, 0.1], ids=["single", "eps0", "eps"])
@pytest.mark.parametrize("m", range(2, 25, 2))
def test_axis_term_jet_exact(m, d):
    """AxisTerm.jet is within 4 ulp of exact rational arithmetic on the
    float inputs, relative to the summed magnitude of the term's parts, for
    array and scalar s of either sign; the term's value is jet(s)[0] bit for
    bit."""
    term = sf.AxisTerm(1.7, m, d)
    s = np.concatenate([np.random.default_rng(m).uniform(-1.5, 1.5, 40), [0.0, -0.0, 1.0, -1.0]])
    batch = term.jet(s)
    assert np.array_equal(term(s), batch[0])
    for i, x in enumerate(s.tolist()):
        scalar = term.jet(x)
        assert term(x) == scalar[0]
        for n in range(3):
            parts = [math.perm(m, n) * Fraction(term.c) * Fraction(x) ** (m - n)]
            if d is not None:
                parts.append(math.perm(2 * m, n) * Fraction(d) * Fraction(x) ** (2 * m - n))
            ulp = Fraction(math.ulp(float(sum(abs(p) for p in parts))))
            for got in (float(batch[n][i]), scalar[n]):
                assert abs(Fraction(got) - sum(parts)) <= 4 * ulp, (x, n)


def test_epsilon_zero_admitted():
    spec = SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 0.0)
    assert all(float(term.root(1.0)) > 0 for term in spec.terms)


def test_epsilon_zero_radicand_is_squared_height():
    """At eps = 0 the X/Y radicand is still the resolved squared height t / a."""
    spec = SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 0.0)
    rng = np.random.default_rng(23)
    for chart in sf.ATLAS:
        if chart.axis == "z":
            continue
        umax, vmax = sf.chart_bounds(spec, chart)
        u = rng.uniform(-umax, umax, 200)
        v = rng.uniform(-vmax, vmax, 200)
        cu, cv = (spec.a, spec.b) if chart.axis == "x" else (spec.b, spec.a)
        t = 1.0 - cu * u**2 - cv * v**2
        assert np.allclose(sf.radicand(spec, chart, u, v), t / spec.a, rtol=1e-15, atol=1e-16)


def test_epsilon_zero_height_jet_continuous():
    """The quartic-height jet at eps = 0 is the eps -> 0 limit.

    Points keep radicand >= 0.25: nearer the boundary the eps = 1e-14 term
    itself moves the jet by more than 1e-12.
    """
    rng = np.random.default_rng(29)
    zero = SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 0.0)
    tiny = SurfaceSpec.perturbed_ellipsoid(0.5, 0.2, 1e-14)
    for chart in sf.ATLAS:
        u, v = random_valid_chart_points(zero, chart, 200, rng, margin=0.25)
        for x, y in zip(sf.height_jet(zero, chart, u, v), sf.height_jet(tiny, chart, u, v)):
            assert np.all(np.abs(x - y) <= 1e-12 * np.maximum(np.abs(x), 1.0))


def test_chart_labels():
    assert ChartId("z", 1).label == "Z+"
    assert ChartId("x", -1).label == "X-"
    assert ChartId("y", -1).label == "Y-"
    assert ChartId.from_label("x-") == ChartId("x", -1)
    for bad in ("Q*", "E+"):
        with pytest.raises(SpecError):
            ChartId.from_label(bad)
