"""Principal directions and curvature-line tracing."""

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from umbilics import flowlines as fl
from umbilics import forms as fm
from umbilics import surface as sf
from umbilics import umbilic as um
from umbilics.errors import InvalidChartPoint, StartsAtUmbilic
from umbilics.surface import ChartId, ChartPoint

from conftest import (
    BUNDLED, ELL_123, PE_LT, SPHERE, SQ_1112, angle_gap, random_valid_chart_points, weingarten_eig,
)

Z_PLUS = ChartId("z", 1)


def _principal_dirs(ff):
    """Both principal directions from the kernel, unit in the first form."""
    return fm.principal_directions(ff.E, ff.F, ff.G, ff.e, ff.f, ff.g)


def _chart_angles(dirs):
    return [math.atan2(dv, du) for du, dv in dirs]


def test_axis_aligned_on_symmetry_line():
    ff = fm.forms_closed(SQ_1112, ChartPoint(Z_PLUS, 0.0, 0.5))
    # F = f = 0 on the symmetry line: the Weingarten matrix is diagonal.
    assert ff.F == 0.0 and ff.f == 0.0
    assert _chart_angles(_principal_dirs(ff)) == [0.0, math.pi / 2.0]


def test_root_angles_diagonal_operator():
    # E=1, F=0, G=1, e=2, f=0, g=1: A = 0, B = -1, C = 0 -> chart axes.
    dirs = fm.principal_directions(1.0, 0.0, 1.0, 2.0, 0.0, 1.0)
    assert _chart_angles(dirs) == [0.0, math.pi / 2.0]


def test_direction_pair_invariants():
    """Kernel directions are first-form orthogonal roots of the quadratic
    A du^2 + B du dv + C dv^2 that the step residual evaluates."""
    rng = np.random.default_rng(7)
    for spec in (SQ_1112, PE_LT):
        chart = sf.ATLAS[0]
        us, vs = random_valid_chart_points(spec, chart, 120, rng)
        for u, v in zip(us, vs):
            ff = fm.forms_closed(spec, ChartPoint(chart, float(u), float(v)))
            A = ff.f * ff.E - ff.e * ff.F
            B = ff.g * ff.E - ff.e * ff.G
            C = ff.g * ff.F - ff.f * ff.G
            assert fm.line_quadratic(ff.E, ff.F, ff.G, ff.e, ff.f, ff.g) == (A, B, C)
            size = (abs(ff.E) + abs(ff.F) + abs(ff.G)) * (abs(ff.e) + abs(ff.f) + abs(ff.g))
            if max(abs(A), abs(B), abs(C)) < 1e-12 * size + 1e-300:
                continue  # umbilic: every direction is principal
            scale = abs(A) + abs(B) + abs(C) + 1e-300
            dirs = _principal_dirs(ff)
            for du, dv in dirs:
                q = A * du * du + B * du * dv + C * dv * dv
                assert abs(q) < 1e-10 * scale
            (d1u, d1v), (d2u, d2v) = dirs
            ip = ff.E * d1u * d2u + ff.F * (d1u * d2v + d2u * d1v) + ff.G * d1v * d2v
            assert abs(ip) < 1e-8


def test_trace_figure_start_residuals():
    start = ChartPoint(Z_PLUS, 0.7, 0.0)
    for branch in (0, 1):
        tr = fl.trace_line(SQ_1112, start, branch, 2.0)
        assert len(tr.points) > 10
        assert tr.within_residual_bound()
        res = np.array(tr.residuals)
        assert np.mean(res < 1e-5) >= 0.98


def test_trace_through_diagonal_region():
    """Both branches and senses from (0.8, 0.8) next to a diagonal umbilic."""
    reasons = set()
    for branch in (0, 1):
        for sign in (1, -1):
            tr = fl.trace_line(
                SQ_1112, ChartPoint(Z_PLUS, 0.8, 0.8), branch, 2.0, sign=sign
            )
            reasons.add(tr.stop_reason)
            # residuals stay bounded as the trace approaches the umbilic
            assert all(np.isfinite(tr.residuals))
            assert max(tr.residuals, default=0.0) < 1e-3
    # the inward sense terminates on umbilic proximity; the outward and
    # transverse senses legitimately run out of the covered chart zone
    assert fl.NEAR_UMBILIC in reasons
    assert reasons <= {fl.NEAR_UMBILIC, fl.LENGTH_REACHED, fl.CHART_BOUNDARY}


def test_trace_sphere_rejected():
    with pytest.raises(StartsAtUmbilic):
        fl.trace_line(SPHERE, ChartPoint(Z_PLUS, 0.1, 0.0), 0, 1.0)


def test_trace_start_inside_stop_radius_rejected(results):
    """A start whose umbilic residual is below the tracer's own stop radius
    UMB_STOP is an umbilic start: ellipsoid_123's X- record moved 1e-7 along
    u has residual ~3.6e-8, which would stop a trace before its first step."""
    (rec,) = [r for r in results.records(ELL_123) if r.chart.label == "X-" and r.uv[1] < 0.0]
    start = ChartPoint(rec.chart, rec.uv[0] + 1e-7, rec.uv[1])
    assert 1e-9 < um.umbilic_residual(ELL_123, start) < fl.UMB_STOP
    with pytest.raises(StartsAtUmbilic):
        fl.trace_line(ELL_123, start, 0, 0.1)


def test_trace_invalid_start():
    with pytest.raises(InvalidChartPoint):
        fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, 3.0, 0.0), 0, 1.0)
    with pytest.raises(InvalidChartPoint):
        fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, 0.0, 1e200), 0, 1.0)


def test_trace_start_outside_covered_zone():
    """A start in the chart but below the covered-zone margin (radicand
    1e-4 < DELTA_COVER) gives a one-point trace that stops at the chart
    boundary."""
    start = ChartPoint(Z_PLUS, 0.997943665926023, 0.3)
    assert sf.DELTA_VALID < sf.radicand(SQ_1112, Z_PLUS, start.u, start.v) < sf.DELTA_COVER
    trace = fl.trace_line(SQ_1112, start, 0, 1.0)
    assert (trace.points, trace.stop_reason) == (((start.u, start.v),), fl.CHART_BOUNDARY)


def test_trace_branch_checked_first():
    """A bad branch is a ValueError before any evaluation, even at an
    umbilic start."""
    with pytest.raises(ValueError, match="branch"):
        fl.trace_line(SPHERE, ChartPoint(Z_PLUS, 0.1, 0.0), 5, 1.0)


PE_FLAT = sf.SurfaceSpec.perturbed_ellipsoid(1.0, 1e-200, 0.1)


def test_singular_first_form_is_invalid_chart_point():
    """On pe(1, 1e-200, 0.1), Z+, E G - F^2 overflows to inf - inf at
    (0.5, 0.5), and a principal direction's first-form norm^2 there is not
    positive: a start raises InvalidChartPoint, and the field direction is
    None there, as outside the covered zone, so a line stops or halves its
    step where it meets such a point."""
    start = ChartPoint(Z_PLUS, 0.5, 0.5)
    forms = fm.closed_forms_arrays(PE_FLAT, Z_PLUS, start.u, start.v)
    with pytest.raises(InvalidChartPoint):
        fm.principal_directions(*forms)
    kernel = fm.scalar_kernel(PE_FLAT, Z_PLUS)
    assert fl._field_direction(kernel, start.u, start.v, (1.0, 0.0)) == (None, None)
    for branch in (0, 1):
        with pytest.raises(InvalidChartPoint):
            fl.trace_line(PE_FLAT, start, branch, 0.01)


def test_trace_past_cancelled_first_form():
    """From (0.5, 0) on pe(1, 1e-200, 0.1), Z+, branch 1 reaches nodes
    where E G - F^2 cancels to 0; the scalar umbilic residual there is
    numpy's x / 0 = inf, not a ZeroDivisionError, and the line runs to its
    length."""
    E, F, G, e, f, g = fm.closed_forms_arrays(PE_FLAT, Z_PLUS, 0.5, 1e-90)
    assert E * G - F * F == 0.0
    assert um.scaled_residual(E, F, G, e, f, g) == math.inf
    with np.errstate(divide="ignore"):
        assert um.scaled_residual(*(np.array([x]) for x in (E, F, G, e, f, g)))[0] == math.inf
    for sign in (1, -1):
        trace = fl.trace_line(PE_FLAT, ChartPoint(Z_PLUS, 0.5, 0.0), 1, 0.01, sign=sign)
        assert trace.stop_reason == fl.LENGTH_REACHED


@pytest.mark.parametrize(
    "spec, start, branch, length, sign, calls",
    [
        (SQ_1112, ChartPoint(Z_PLUS, 0.7, 0.0), 1, 0.5, 1, 351),
        (PE_LT, ChartPoint(Z_PLUS, 0.5132, 0.4729), 0, 0.5, -1, 441),
    ],
    ids=["sq_1112", "pe_lt"],
)
def test_trace_kernel_call_count(monkeypatch, spec, start, branch, length, sign, calls):
    """A fixed trace makes a pinned number of form evaluations, so a faster
    tracer must owe its speed to cheaper calls, not to skipped evaluations.
    Every evaluation is a call of the one scalar kernel built for the line,
    and the general kernel is not called.  The start takes one radicand
    call; every later evaluation reads its validity off its kernel call."""
    count = {"kernels": 0, "forms": 0, "arrays": 0, "radicand": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def scalar_kernel(*args):
        count["kernels"] += 1
        return counted("forms", build(*args))

    build = fm.scalar_kernel
    monkeypatch.setattr(fm, "scalar_kernel", scalar_kernel)
    monkeypatch.setattr(fm, "closed_forms_arrays", counted("arrays", fm.closed_forms_arrays))
    monkeypatch.setattr(sf, "radicand", counted("radicand", sf.radicand))
    fl.trace_line(spec, start, branch, length, sign=sign)
    assert count == {"kernels": 1, "forms": calls, "arrays": 0, "radicand": 1}


def test_quartic_chart_trace_returns_floats():
    """A trace on a perturbed-ellipsoid X+ chart, whose height term has a
    quartic part, keeps its points, arclengths and residuals in Python
    floats, as on single-power charts."""
    tr = fl.trace_line(PE_LT, ChartPoint(ChartId("x", 1), 0.3, 0.2), 0, 0.2)
    assert len(tr.residuals) > 1
    values = [*tr.residuals, *tr.arclengths, *(x for p in tr.points for x in p)]
    assert {type(x) for x in values} == {float}


def test_residual_log_monotone():
    tr = fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, 0.7, 0.0), 1, 1.5)
    log = fl.residual_log(tr)
    assert len(log) == len(tr.residuals)
    arcs = [s for s, _ in log]
    assert all(b > a for a, b in zip(arcs, arcs[1:]))
    assert all(lr < 0 for _, lr in log)  # log10 of small residuals


def test_field_direction_matches_eigenvector():
    """Realized field directions agree with Weingarten-matrix eigenvectors."""
    tr = fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, 0.7, 0.0), 1, 1.0)
    step = max(1, len(tr.points) // 25)
    prev = np.array([0.0, 1.0])
    kernel = fm.scalar_kernel(SQ_1112, Z_PLUS)
    for u, v in tr.points[1:-1:step]:
        d, _ = fl._field_direction(kernel, u, v, prev)
        prev = d
        ff = fm.forms_closed(SQ_1112, ChartPoint(Z_PLUS, u, v))
        k1, k2, t1, t2 = weingarten_eig(ff.E, ff.F, ff.G, ff.e, ff.f, ff.g)
        if abs(k1 - k2) < fm.tol_umb(k1, k2):
            continue
        ang = math.atan2(d[1], d[0])
        assert min(angle_gap(ang, t1), angle_gap(ang, t2)) < 1e-4


def test_branch_orthogonality_at_start():
    start = ChartPoint(Z_PLUS, 0.55, 0.25)
    ff = fm.forms_closed(SQ_1112, start)
    (a1, b1), (a2, b2) = _principal_dirs(ff)
    ip = ff.E * a1 * a2 + ff.F * (a1 * b2 + a2 * b1) + ff.G * b1 * b2
    assert abs(ip) < 1e-6
    t0 = fl.trace_line(SQ_1112, start, 0, 0.05)
    t1 = fl.trace_line(SQ_1112, start, 1, 0.05)
    d0 = np.array(t0.points[1]) - np.array(t0.points[0])
    d1 = np.array(t1.points[1]) - np.array(t1.points[0])
    d0 /= np.linalg.norm(d0)
    d1 /= np.linalg.norm(d1)
    # chart-coordinate chords of first-form-orthogonal directions
    ipc = ff.E * d0[0] * d1[0] + ff.F * (d0[0] * d1[1] + d1[0] * d0[1]) + ff.G * d0[1] * d1[1]
    assert abs(ipc) < 1e-3


def test_reflection_symmetry():
    # u -> -u reflection: the axis-aligned branch-1 direction (0, 1) is
    # mirror-invariant, so the same traversal sense reproduces the mirror.
    ta = fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, 0.7, 0.0), 1, 1.2)
    tb = fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, -0.7, 0.0), 1, 1.2)
    assert len(ta.points) == len(tb.points)
    for (ua, va), (ub, vb) in zip(ta.points, tb.points):
        assert abs(ub + ua) < 1e-6
        assert abs(vb - va) < 1e-6
    # the opposite sense realizes the (u, v) -> (-u, -v) rotation image
    tc = fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, -0.7, 0.0), 1, 1.2, sign=-1)
    assert len(ta.points) == len(tc.points)
    for (ua, va), (uc, vc) in zip(ta.points, tc.points):
        assert abs(uc + ua) < 1e-9
        assert abs(vc + va) < 1e-9


def test_tolerance_scaling_no_worse(monkeypatch):
    starts = [
        (SQ_1112, ChartPoint(Z_PLUS, 0.7, 0.0), 1),
        (SQ_1112, ChartPoint(Z_PLUS, 0.5, 0.2), 0),
        (SQ_1112, ChartPoint(Z_PLUS, 0.5, 0.2), 1),
        (SQ_1112, ChartPoint(Z_PLUS, 0.3, 0.6), 0),
        (SQ_1112, ChartPoint(Z_PLUS, 0.3, 0.6), 1),
        (PE_LT, ChartPoint(Z_PLUS, 0.4, 0.1), 0),
        (PE_LT, ChartPoint(Z_PLUS, 0.4, 0.1), 1),
        (PE_LT, ChartPoint(Z_PLUS, 0.2, 0.5), 0),
        (PE_LT, ChartPoint(Z_PLUS, 0.2, 0.5), 1),
        (PE_LT, ChartPoint(Z_PLUS, 0.1, 0.1), 0),
    ]
    for spec, start, branch in starts:
        r0 = fl.trace_line(spec, start, branch, 1.0).residuals
        with monkeypatch.context() as m:
            for name in ("ABS_TOL", "REL_TOL", "RES_TARGET"):
                m.setattr(fl, name, getattr(fl, name) / 2.0)
            r1 = fl.trace_line(spec, start, branch, 1.0).residuals
        m0 = max(r0, default=0.0)
        m1 = max(r1, default=0.0)
        assert m1 <= m0 + 1e-12


def test_trace_to_csv(tmp_path):
    tr = fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, 0.7, 0.0), 1, 0.5)
    path = tmp_path / "t.csv"
    fl.trace_to_csv(SQ_1112, tr, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "arclength,u,v,x,y,z,residual"
    assert len(lines) == len(tr.points) + 1
    row = lines[1].split(",")
    assert len(row) == 7
    p = sf.chart_to_ambient(SQ_1112, ChartPoint(Z_PLUS, *tr.points[0]))
    assert abs(float(row[3]) - p[0]) < 1e-15
    # Byte for byte what csv.writer writes for the same fields, here and on
    # a perturbed-ellipsoid X+ trace, whose residuals are np.float64.
    pe_tr = fl.trace_line(PE_LT, ChartPoint(ChartId("x", 1), 0.3, 0.2), 0, 0.3)
    for spec, tr in ((SQ_1112, tr), (PE_LT, pe_tr)):
        fl.trace_to_csv(spec, tr, path)
        uv = np.array(tr.points)
        xyz = sf.chart_points(spec, tr.chart, uv[:, 0], uv[:, 1])
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["arclength", "u", "v", "x", "y", "z", "residual"])
        for (u, v), s, q, res in zip(tr.points, tr.arclengths, xyz, (0.0,) + tr.residuals):
            writer.writerow([f"{val:.17g}" for val in (s, u, v, q[0], q[1], q[2], res)])
        assert path.read_bytes() == want.getvalue().encode()


def test_single_step_trace():
    tr = fl.trace_line(SQ_1112, ChartPoint(Z_PLUS, 0.5, 0.2), 0, 1e-4)
    log = fl.residual_log(tr)
    assert len(log) == len(tr.points) - 1
    assert tr.stop_reason == fl.LENGTH_REACHED


def _first_form_inner(ff, p, q):
    return ff.E * p[0] * q[0] + ff.F * (p[0] * q[1] + p[1] * q[0]) + ff.G * p[1] * q[1]


@pytest.mark.parametrize(
    "spec, start, branch, length, sign",
    [
        (SQ_1112, ChartPoint(Z_PLUS, 0.5, 0.2), 0, 2.0, 1),
        (PE_LT, ChartPoint(ChartId.from_label("Y-"), -1.21208, -0.251971), 0, 1.5, -1),
    ],
    ids=["sq_1112", "pe_lt"],
)
def test_trace_stays_on_one_family(spec, start, branch, length, sign):
    """No step turns by more than 45 degrees in surface angle: a larger turn
    is a jump to the other family of curvature lines (or a reversal)."""
    tr = fl.trace_line(spec, start, branch, length, sign=sign)
    pts = np.array(tr.points)
    assert len(pts) > 10
    chords = np.diff(pts, axis=0)
    for node, a, b in zip(pts[1:-1], chords, chords[1:]):
        ff = fm.forms_closed(spec, ChartPoint(start.chart, float(node[0]), float(node[1])))
        cos = _first_form_inner(ff, a, b) / math.sqrt(
            _first_form_inner(ff, a, a) * _first_form_inner(ff, b, b)
        )
        assert cos > math.cos(math.pi / 4.0)


# Pinned traces: Z+ starts spread around the half-radius ring of each chart,
# traced at the trace-fan workload's lengths, both branches and both senses.
# A change that is meant to keep traces must keep every line's stop reason
# and node count exactly and its nodes within NODE_TOL; scalar and array
# kernel calls may round differently in the last bit, which moves nodes by
# far less.  The file stores nodes rounded to 12 decimals.  Regenerate
# data/trace_lines.json (only when traces are meant to change) with
# ``PYTHONPATH=src python tests/test_flowlines.py lines``.
TRACE_GOLDEN = Path(__file__).parent / "data" / "trace_lines.json"
NODE_TOL = 1e-7
PINNED_STARTS = {  # bundled spec: (line length, Z+ starts)
    "sq_1112": (0.2, [(0.3765, 0.3279), (-0.3123, 0.3923), (-0.3133, -0.3873), (0.3165, -0.3794)]),
    "sq_2352": (0.2, [(0.3242, 0.2335), (-0.3173, 0.2476), (-0.2567, -0.2941), (0.3112, -0.2451)]),
    "pe_lt": (0.5, [(0.5132, 0.4729), (-0.2107, 0.677), (-0.6563, 0.2279),
                    (-0.4474, -0.5453), (0.2377, -0.6561), (0.6826, -0.172)]),
    "ellipsoid_123": (0.5, [(0.358, 0.2442), (-0.172, 0.3267), (-0.467, 0.1104),
                            (-0.3546, -0.2453), (0.1595, -0.3308), (0.4845, -0.0582)]),
}


def _pinned_lines(name, u, v):
    """The four traces from one start, keyed b<branch><sense>, e.g. "b0-"."""
    length = PINNED_STARTS[name][0]
    start = ChartPoint(Z_PLUS, u, v)
    return {
        f"b{branch}{'+' if sign > 0 else '-'}": fl.trace_line(BUNDLED[name], start, branch, length, sign=sign)
        for branch in (0, 1)
        for sign in (1, -1)
    }


@pytest.mark.parametrize(
    "name, u, v",
    [(name, u, v) for name, (_, starts) in PINNED_STARTS.items() for u, v in starts],
)
def test_traces_match_pinned(name, u, v):
    want = json.loads(TRACE_GOLDEN.read_text())[f"{name} {u!r},{v!r}"]
    for key, tr in _pinned_lines(name, u, v).items():
        assert tr.stop_reason == want[key]["stop"], key
        nodes = want[key]["nodes"]
        assert len(tr.points) == len(nodes), key
        dev = np.max(np.abs(np.array(tr.points) - np.array(nodes)))
        assert dev < NODE_TOL, key


# Exact pins: the paths the Z+ ring above never reaches, each start traced
# on both branches and both senses and pinned bit for bit.  sq_1112 from
# (0.8, 0.8) stops near an umbilic and at the chart boundary, pe_lt's X+
# chart has a quartic height term and stops at its boundary, and
# ellipsoid_123 from (0.4, 0.2) stops on step underflow.  Two minus charts,
# whose chart sign is -1, complete the set: sq_2352's Y- stops at all three
# of the boundary, an umbilic and its length, and pe_lt's X- has a quartic
# height term as its X+ does.  A line is stored
# as its stop reason, node count, last node and final arclength in
# float.hex, and the SHA-256 of the float.hex of every point, arclength and
# residual in that order.  Regenerate it with ``PYTHONPATH=src python
# tests/test_flowlines.py exact``, which leaves TRACE_GOLDEN as it is.
TRACE_EXACT = Path(__file__).parent / "data" / "trace_exact.json"
EXACT_STARTS = (  # (bundled spec, chart, u, v, line length)
    ("sq_1112", "Z+", 0.8, 0.8, 2.0),
    ("pe_lt", "X+", 0.3, 0.2, 3.0),
    ("ellipsoid_123", "Z+", 0.4, 0.2, 3.0),
    ("sq_2352", "Y-", 0.3, 0.2, 1.0),
    ("pe_lt", "X-", 0.3, 0.2, 3.0),
)


def _exact_lines(name, label, u, v, length):
    """Bit-exact summaries of the four traces from one start, keyed as in
    :func:`_pinned_lines`."""
    start = ChartPoint(ChartId.from_label(label), u, v)
    out = {}
    for branch in (0, 1):
        for sign in (1, -1):
            tr = fl.trace_line(BUNDLED[name], start, branch, length, sign=sign)
            values = [*(x for p in tr.points for x in p), *tr.arclengths, *tr.residuals]
            out[f"b{branch}{'+' if sign > 0 else '-'}"] = {
                "stop": tr.stop_reason,
                "nodes": len(tr.points),
                "last": [float.hex(x) for x in (*tr.points[-1], tr.arclengths[-1])],
                "sha256": hashlib.sha256(" ".join(map(float.hex, values)).encode()).hexdigest(),
            }
    return out


@pytest.mark.parametrize("name, label, u, v, length", EXACT_STARTS,
                         ids=[name if label[1] == "+" else f"{name}-{label}" for name, label, *_ in EXACT_STARTS])
def test_traces_match_exact_pins(name, label, u, v, length):
    want = json.loads(TRACE_EXACT.read_text())[f"{name} {label} {u!r},{v!r}"]
    assert _exact_lines(name, label, u, v, length) == want


def _write_lines():
    data = {
        f"{name} {u!r},{v!r}": {
            key: {"stop": tr.stop_reason, "nodes": [[round(a, 12), round(b, 12)] for a, b in tr.points]}
            for key, tr in _pinned_lines(name, u, v).items()
        }
        for name, (_, starts) in PINNED_STARTS.items()
        for u, v in starts
    }
    rows = (f"{json.dumps(k)}: {json.dumps(data[k], sort_keys=True)}" for k in sorted(data))
    TRACE_GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")


def _write_exact():
    exact = {f"{name} {label} {u!r},{v!r}": _exact_lines(name, label, u, v, length)
             for name, label, u, v, length in EXACT_STARTS}
    TRACE_EXACT.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    writers = {"lines": _write_lines, "exact": _write_exact}
    if len(sys.argv) != 2 or sys.argv[1] not in writers:
        sys.exit("usage: test_flowlines.py lines|exact")
    writers[sys.argv[1]]()
