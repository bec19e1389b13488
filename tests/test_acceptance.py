"""Acceptance suite: one test per verification criterion.

Each test prints a PASS line with its headline numbers (run pytest -s to see
them); a failed assertion marks the criterion red.  Every tolerance is fixed
here, not configurable.
"""

import math

import numpy as np
from zlib import crc32
import pytest

from umbilics import cli
from umbilics import flowlines as fl
from umbilics import forms as fm
from umbilics import index as ix
from umbilics import surface as sf
from umbilics import umbilic as um
from umbilics.surface import ChartId, ChartPoint, SurfaceSpec

from conftest import BUNDLED
from test_forms import check_forms_agreement

Z_PLUS = ChartId("z", 1)


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# -- 1. Fourteen umbilics with closed-form locations ------------------------


@pytest.mark.parametrize("name", ["sq_1112", "sq_2352"])
def test_c1_superquadric_count_and_locations(name, results):
    spec = BUNDLED[name]
    recs = results.records(spec)
    assert len(recs) == 14
    closed = um.closed_form_umbilics(spec)
    found = [r.ambient for r in recs]
    dist = max(um.match_distance(closed, found), um.match_distance(found, closed))
    assert dist < 1e-7
    axis_err = 0.0
    m = 2 * spec.k
    expected_axis = {
        0: spec.a ** (-1.0 / m), 1: spec.b ** (-1.0 / m), 2: spec.c ** (-1.0 / m)
    }
    axis_recs = [r for r in recs if sum(1 for c in r.ambient if c != 0.0) == 1]
    assert len(axis_recs) == 6
    for rec in axis_recs:
        ax = max(range(3), key=lambda i: abs(rec.ambient[i]))
        axis_err = max(axis_err, abs(abs(rec.ambient[ax]) - expected_axis[ax]))
    assert axis_err < 1e-8
    _report(1, f"{name}: 14 umbilics, hausdorff {dist:.2e}, axis error {axis_err:.2e}")


# -- 2. Threshold transitions of the perturbed family -----------------------


def test_c2_threshold_transitions(results):
    thr = um.critical_epsilon(0.5, 0.2)
    assert math.isclose(thr.epsilon_critical, 0.0625, rel_tol=1e-15)
    lo = results.records(BUNDLED["pe_gt_eps_lo"])   # eps = 0.05
    hi = results.records(BUNDLED["pe_gt_eps_hi"])   # eps = 0.08
    assert (len(lo), len(hi)) == (2, 10)
    for recs, spec_name in ((lo, "pe_gt_eps_lo"), (hi, "pe_gt_eps_hi")):
        spec = BUNDLED[spec_name]
        closed = um.closed_form_umbilics(spec)
        assert um.match_distance(closed, [r.ambient for r in recs]) < 1e-7

    thr2 = um.critical_epsilon(0.3, 0.516)
    assert math.isclose(thr2.epsilon_critical, 0.024192, rel_tol=1e-12)
    lo2 = results.records(BUNDLED["pe_lt_eps_lo"])  # eps = 0.01
    hi2 = results.records(BUNDLED["pe_lt"])         # eps = 0.1
    assert (len(lo2), len(hi2)) == (2, 18)
    closed2 = um.closed_form_umbilics(BUNDLED["pe_lt"])
    assert um.match_distance(closed2, [r.ambient for r in hi2]) < 1e-7
    diag = [r for r in hi2 if abs(r.ambient[2]) > 1e-6 and abs(r.ambient[0]) > 1e-6]
    assert len(diag) == 8
    for rec in diag:
        assert abs(abs(rec.ambient[0]) - 0.6) < 1e-7     # (b - a)/(6 eps) = 0.36
        assert abs(abs(rec.ambient[1]) - 0.6) < 1e-7
    _report(2, "counts 2->10 across 0.0625 and 2->18 across 0.024192; "
               "diagonal points at |x| = |y| = 0.6")


# -- 3. Ellipsoid baseline ---------------------------------------------------


def test_c3_ellipsoid_baseline(results):
    spec = BUNDLED["ellipsoid_123"]
    recs = results.indexed(spec)
    assert len(recs) == 4
    assert all(r.index == 0.5 for r in recs)
    ph = ix.poincare_hopf_check(spec, recs)
    assert ph.total == 2.0 and ph.passed
    _report(3, "4 umbilics, each index 1/2, index sum 2")


# -- 4. Index sums over the whole bundled set --------------------------------


def test_c4_index_sums_bundled(results):
    sums = {}
    for name, spec in BUNDLED.items():
        recs = results.indexed(spec)
        ph = ix.poincare_hopf_check(spec, recs)
        assert ph.passed, name
        sums[name] = ph.total
    assert set(sums.values()) == {2.0}
    _report(4, f"index sum exactly 2 for all {len(sums)} bundled specs")


# -- 5. Index multisets ------------------------------------------------------


def test_c5_index_multisets(results):
    gt = dict(ix.index_multiset(results.indexed(BUNDLED["pe_gt"])))
    assert gt == {-1.0: 2, 0.5: 8}
    lt = dict(ix.index_multiset(results.indexed(BUNDLED["pe_lt"])))
    assert lt == {1.0: 2, -0.5: 8, 0.5: 8}
    sq = dict(ix.index_multiset(results.indexed(BUNDLED["sq_1112"])))
    doubled_sum = sum(round(2 * v) * n for v, n in sq.items())
    assert doubled_sum == 4  # consistent with Euler characteristic 2
    # the swapped reading (axis -1/2, diagonal +1) cannot hold
    assert sq != {-0.5: 6, 1.0: 8}
    _report(5, f"multisets gt={gt} lt={lt} sq={sq}; "
               "axis:-1/2/diag:+1 reading contradicted")


# -- 6. Closed-form versus numeric fundamental forms -------------------------


def test_c6_forms_oracle_equivalence():
    totals = {}
    for name in ("sq_1112", "pe_lt", "ellipsoid_123"):
        spec = BUNDLED[name]
        charts = sf.chart_atlas(spec)
        n = math.ceil(500 / len(charts))
        for chart in charts:
            check_forms_agreement(
                spec, chart, n, seed=crc32(f"{name}/{chart.label}".encode())
            )
        totals[spec.family] = n * len(charts)
    assert all(v >= 500 for v in totals.values())
    _report(6, "agreement at max(1e-6 rel, 1e-9 abs) on >=500 points per "
               f"family: {totals}")


# -- 7. Convexity ------------------------------------------------------------


def test_c7_convexity_all_bundled():
    worst = math.inf
    for name, spec in BUNDLED.items():
        rep = fm.convexity_scan(spec, 10_000, seed=0)
        assert rep.passed, name
        worst = min(worst, rep.min_K)
    assert worst >= -1e-10
    _report(7, f"min sampled Gaussian curvature {worst:.2e} >= -1e-10 "
               f"across {len(BUNDLED)} specs x 10^4 points")


# -- 8. Trace residual bound -------------------------------------------------


def test_c8_trace_residual_bound():
    spec = BUNDLED["sq_1112"]
    fracs = []
    for start in ((0.7, 0.0), (0.8, 0.8), (0.8, 0.4)):
        for branch in (0, 1):
            for sign in (1, -1):
                tr = fl.trace_line(spec, ChartPoint(Z_PLUS, *start), branch, 2.0, sign=sign)
                res = np.array(tr.residuals)
                if res.size == 0:
                    continue
                frac_ok = float(np.mean(res < 1e-5))
                fracs.append(frac_ok)
                assert frac_ok >= 0.98, (start, branch, sign)
    _report(8, f"12 traces from the three reference starts; "
               f"worst in-bound fraction {min(fracs):.3f} (need >= 0.98)")


# -- 9. Sweep stability ------------------------------------------------------


def test_c9_conjecture_sweep_stability():
    grid = [
        BUNDLED["sq_1112"],
        BUNDLED["sq_2352"],
        BUNDLED["sq_c100"],
        BUNDLED["sq_b10_c10"],
        BUNDLED["sq_k4"],
        SurfaceSpec.superquadric(1.0, 1.0, 1.0, 3),
    ]
    rows, constant = ix.conjecture_sweep(grid)
    assert all(row.error is None for row in rows)
    assert all(row.index_sum == 2.0 for row in rows)
    table = "; ".join(
        f"(a={r.spec.a:g},b={r.spec.b:g},c={r.spec.c:g},k={r.spec.k}) -> {dict(r.multiset)}"
        for r in rows
    )
    # Constancy is the conjectured behavior: reported, not asserted.
    _report(9, f"multiset constant across grid: {constant}; {table}")


# -- 10. Determinism ---------------------------------------------------------


def test_c10_verify_deterministic(capsys, tmp_path):
    argv = ["verify", "--spec", "ellipsoid_123", "--seed", "7"]
    assert cli.main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 and len(out1) > 100
    _report(10, f"two verify runs byte-identical ({len(out1)} bytes)")
