"""Independent output checks for the benchmark.

Expected umbilic sets are rebuilt here from the paper's closed forms (and,
for the a < b equator octet, from a root search of the mid-plane umbilic
condition), without calling the package's own expectation helpers.  A check
returns a list of failure reasons; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from collections import Counter

import numpy as np
from scipy.optimize import brentq

MATCH_TOL = 1e-7           # closed-form agreement, ambient units
ON_SURFACE_TOL = 1e-9      # |implicit value| of traced CSV points
TRACE_RES_BOUND = 1e-5     # documented per-step residual bound
TRACE_EXCURSION = 0.02     # share of steps allowed above that bound


def critical_epsilon(a, b):
    """Count-switching perturbation: a > b gives 2 -> 10, a < b gives 2 -> 18."""
    if a > b:
        return a * a * (a / b - 1.0) / 6.0
    return (5.0 * a + b) * (b - a) / 18.0


def _equator_condition(u, a, b, eps):
    """Mid-plane umbilic condition along the z = 0 equator, in x."""
    q = (math.sqrt(a * a + 4.0 * eps * (1.0 - a * u * u - eps * u**4)) - a) / (2.0 * eps)
    return (
        u * u * (a + 2.0 * eps * u * u) ** 2 * (6.0 * eps * q + a - b)
        + (2.0 * eps * q + a) ** 2 * q * (a - b + 6.0 * eps * u * u)
    )


def _equator_octet(a, b, eps):
    """The eight z = 0 umbilics of the a < b regime above threshold."""
    umax = math.sqrt((-a + math.sqrt(a * a + 4.0 * eps)) / (2.0 * eps))
    grid = np.linspace(1e-6 * umax, umax * (1.0 - 1e-9), 4001)
    vals = [_equator_condition(t, a, b, eps) for t in grid]
    pts = []
    for x0, x1, f0, f1 in zip(grid, grid[1:], vals, vals[1:]):
        if f0 * f1 < 0.0:
            x = brentq(_equator_condition, x0, x1, args=(a, b, eps), xtol=1e-15)
            y2 = (math.sqrt(a * a + 4.0 * eps * (1.0 - a * x * x - eps * x**4)) - a) / (2.0 * eps)
            y = math.sqrt(max(y2, 0.0))
            pts += [(sx * x, sy * y, 0.0) for sx in (1, -1) for sy in (1, -1)]
    return pts


def expected_umbilics(spec):
    """(points, index multiset) the paper's results predict for a spec.

    ``spec`` is a mapping with the JSON fields of a surface spec.
    """
    fam, a, b = spec["family"], spec["a"], spec["b"]
    if fam == "superquadric":
        c, m = spec["c"], 2 * spec["k"]
        pts = []
        for i, coef in enumerate((a, b, c)):
            for s in (1.0, -1.0):
                p = [0.0, 0.0, 0.0]
                p[i] = s * coef ** (-1.0 / m)
                pts.append(tuple(p))
        scale = (b * c + c * a + a * b) ** (-1.0 / m)
        base = ((b * c / a) ** (1.0 / m), (a * c / b) ** (1.0 / m), (a * b / c) ** (1.0 / m))
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    pts.append((sx * base[0] * scale, sy * base[1] * scale, sz * base[2] * scale))
        return pts, {-0.5: 8, 1.0: 6}

    if fam == "ellipsoid":
        c = spec["c"]
        coefs = (a, b, c)
        if len(set(coefs)) != 3:
            raise ValueError("checker needs distinct ellipsoid coefficients")
        lo, _, hi = sorted(range(3), key=lambda i: coefs[i])
        ci, cj, cl = sorted(coefs)
        x2 = cl * (cj - ci) / (ci * cj * (cl - ci))
        z2 = ci * (cl - cj) / (cj * cl * (cl - ci))
        pts = []
        for s1 in (1, -1):
            for s2 in (1, -1):
                p = [0.0, 0.0, 0.0]
                p[lo] = s1 * math.sqrt(x2)
                p[hi] = s2 * math.sqrt(z2)
                pts.append(tuple(p))
        return pts, {0.5: 4}

    eps = spec["epsilon"]
    if a == b or eps <= 0.0:
        raise ValueError("checker needs a != b and epsilon > 0")
    zp = math.sqrt(1.0 / b)
    pts = [(0.0, 0.0, zp), (0.0, 0.0, -zp)]
    if eps <= critical_epsilon(a, b):
        return pts, {1.0: 2}
    if a > b:
        v2 = (-a + math.sqrt(3.0 * b * (a * a + 4.0 * eps) / (2.0 * a + b))) / (2.0 * eps)
        z2 = (a - b) * (a * a + 4.0 * eps) / (2.0 * b * eps * (2.0 * a + b))
        v, z = math.sqrt(v2), math.sqrt(z2)
        for s1 in (1, -1):
            for s2 in (1, -1):
                pts += [(0.0, s1 * v, s2 * z), (s1 * v, 0.0, s2 * z)]
        return pts, {-1.0: 2, 0.5: 8}
    u = math.sqrt((b - a) / (6.0 * eps))
    z = math.sqrt((5.0 * a * a - 4.0 * a * b - b * b + 18.0 * eps) / (18.0 * b * eps))
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                pts.append((sx * u, sy * u, sz * z))
    pts += _equator_octet(a, b, eps)
    return pts, {1.0: 2, -0.5: 8, 0.5: 8}


def _directed(src, dst):
    """Largest distance from a point of src to its nearest point of dst."""
    if not src:
        return 0.0
    if not dst:
        return math.inf
    d = np.linalg.norm(np.asarray(src, float)[:, None, :] - np.asarray(dst, float)[None, :, :], axis=-1)
    return float(d.min(axis=1).max())


def check_umbilics(spec, records):
    """Failure reasons for a found-and-indexed umbilic set.

    ``records`` are dicts with ``xyz``, ``kind`` and ``index`` (the JSON form
    the CLI prints).  Checks: no continuum records, the expected count, the
    closed-form match in both directions, nonzero indices, and the family's
    index multiset.
    """
    want_pts, want_ms = expected_umbilics(spec)
    reasons = []
    if any(r.get("kind") != "isolated" for r in records):
        reasons.append("non_isolated record")
    if len(records) != len(want_pts):
        reasons.append(f"count {len(records)} != {len(want_pts)}")
    got_pts = [tuple(r["xyz"]) for r in records]
    missing = _directed(want_pts, got_pts)
    if not missing < MATCH_TOL:
        reasons.append(f"closed-form point missed by {missing:.3g}")
    extra = _directed(got_pts, want_pts)
    if not extra < MATCH_TOL:
        reasons.append(f"found point off the closed form by {extra:.3g}")
    indices = [r.get("index") for r in records]
    if any(i is None or i == 0 for i in indices):
        reasons.append("missing or zero index")
    got_ms = dict(Counter(i for i in indices if i is not None))
    if got_ms != want_ms:
        reasons.append(f"index multiset {sorted(got_ms.items())} != {sorted(want_ms.items())}")
    return reasons


def implicit_value(spec, p):
    """Implicit function of the surface (zero on it), from the spec fields."""
    x, y, z = p
    fam, a, b = spec["family"], spec["a"], spec["b"]
    if fam == "superquadric":
        m = 2 * spec["k"]
        return a * x**m + b * y**m + spec["c"] * z**m - 1.0
    if fam == "ellipsoid":
        return a * x * x + b * y * y + spec["c"] * z * z - 1.0
    eps = spec["epsilon"]
    return a * x * x + eps * x**4 + a * y * y + eps * y**4 + b * z * z - 1.0


def check_trace_csv(spec, path, steps):
    """Failure reasons for one trace CSV written by ``umbilics trace``.

    ``steps`` is the number of accepted integration steps the tracer
    reported for the stitched line; the file must hold one row per node.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    reasons = []
    if not rows or rows[0] != ["arclength", "u", "v", "x", "y", "z", "residual"]:
        return ["bad CSV header"]
    data = [[float(v) for v in row] for row in rows[1:]]
    if len(data) != steps + 1:
        reasons.append(f"{len(data)} rows for {steps} steps")
    arcs = [r[0] for r in data]
    if any(s1 <= s0 for s0, s1 in zip(arcs, arcs[1:])):
        reasons.append("arclength not increasing")
    worst = max((abs(implicit_value(spec, r[3:6])) for r in data), default=0.0)
    if not worst < ON_SURFACE_TOL:
        reasons.append(f"point off the surface by {worst:.3g}")
    bad = sum(1 for r in data[1:] if r[6] >= TRACE_RES_BOUND)
    if bad > TRACE_EXCURSION * max(len(data) - 1, 1):
        reasons.append(f"{bad} steps above the residual bound")
    return reasons
