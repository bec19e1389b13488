"""Shared fixtures: reference specs, samplers, and cached pipeline results."""

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy.linalg

import umbilics
from umbilics import forms as fm
from umbilics import index as ix
from umbilics import surface as sf
from umbilics import umbilic as um
from umbilics.surface import SurfaceSpec


def pytest_report_header(config):
    """Name the package tree under test: pyproject.toml puts this tree's
    ``src`` first on the path, ahead of any PYTHONPATH."""
    return f"umbilics imported from {umbilics.__file__}"


def bundled_specs():
    """name -> SurfaceSpec for every parameter set shipped with the package."""
    root = resources.files("umbilics").joinpath("specs")
    out = {}
    for p in sorted(root.iterdir(), key=lambda p: p.name):
        if p.name.endswith(".json"):
            out[p.name[:-5]] = SurfaceSpec.from_json(json.loads(p.read_text()))
    return out


BUNDLED = bundled_specs()

SQ_1112 = BUNDLED["sq_1112"]
SQ_2352 = BUNDLED["sq_2352"]
PE_GT = BUNDLED["pe_gt"]                  # a=0.516 > b=0.3, eps=0.1
PE_LT = BUNDLED["pe_lt"]                  # a=0.3 < b=0.516, eps=0.1
ELL_123 = BUNDLED["ellipsoid_123"]
SPHERE = SurfaceSpec.perturbed_ellipsoid(1.0, 1.0, 0.0)
# One ulp above eps_c, where a squared closed-form coordinate rounds below 0
# (v^2 for a > b, z^2 for a < b).
EPS_C_PLUS = {
    "a_greater_b": SurfaceSpec.perturbed_ellipsoid(
        2.886888721308171, 2.188130325281924, 0.4435705368032511
    ),
    "a_less_b": SurfaceSpec.perturbed_ellipsoid(
        2.0408058310878925, 2.330317269152358, 0.20160203658787623
    ),
}


class _ResultCache:
    """Lazily computed find/index results, shared across test modules."""

    def __init__(self):
        self._found = {}
        self._windings = {}

    def records(self, spec):
        key = repr(spec)
        if key not in self._found:
            self._found[key] = um.find_umbilics(spec)
        return self._found[key]

    def windings(self, spec):
        """The WindingResult of every record, in record order."""
        key = repr(spec)
        if key not in self._windings:
            recs = self.records(spec)
            self._windings[key] = [ix.umbilic_index(spec, rec, recs) for rec in recs]
        return self._windings[key]

    def indexed(self, spec):
        """The records with their indices filled in, as attach_indices gives them."""
        return [replace(r, index=w.index) for r, w in zip(self.records(spec), self.windings(spec))]


_CACHE = _ResultCache()


@pytest.fixture(scope="session")
def results():
    return _CACHE


def random_valid_chart_points(spec, chart, n, rng, margin=sf.DELTA_COVER, interior=False):
    """Rejection-sample n chart points with a safe boundary margin.

    With ``interior`` the points additionally keep a boundary distance of
    64 finite-difference base steps, the zone where the numeric-derivative
    path meets both its relative and absolute accuracy targets.
    """
    umax, vmax = sf.chart_bounds(spec, chart)
    us, vs = [], []
    while len(us) < n:
        uu = rng.uniform(-umax, umax, size=4 * n)
        vv = rng.uniform(-vmax, vmax, size=4 * n)
        ok = sf.chart_valid(spec, chart, uu, vv, margin=margin)
        for u, v in zip(uu[ok], vv[ok]):
            if len(us) >= n:
                break
            if interior:
                dist = fm.boundary_distance(spec, chart, float(u), float(v))
                if dist < 64.0 * fm.H_FD * (1.0 + abs(u) + abs(v)):
                    continue
            us.append(float(u))
            vs.append(float(v))
    return np.array(us), np.array(vs)


def weingarten_eig(E, F, G, e, f, g):
    """Independent principal-frame oracle: the symmetric-definite pencil
    II x = k I x, solved by scipy.linalg.eigh (the eigenproblem of the
    Weingarten matrix I^-1 II without forming it).  Returns k1 >= k2 and the
    chart angles mod pi of their eigenvectors."""
    vals, vecs = scipy.linalg.eigh([[e, f], [f, g]], [[E, F], [F, G]])
    k2, k1 = (float(k) for k in vals)
    t2, t1 = (math.atan2(vecs[1, i], vecs[0, i]) % math.pi for i in range(2))
    return k1, k2, t1, t2


def angle_gap(a, b):
    """Distance between two chart angles modulo pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def random_surface_points(spec, n, rng):
    """Ambient surface points by root-solving f along random rays."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    lo = np.zeros(n)
    hi = np.full(n, 1e-3)
    for _ in range(60):  # expand until outside
        vals = sf.implicit_value(spec, hi[:, None] * d)
        inside = vals < 0
        if not inside.any():
            break
        hi[inside] *= 2.0
    for _ in range(80):  # bisection
        mid = 0.5 * (lo + hi)
        vals = sf.implicit_value(spec, mid[:, None] * d)
        inside = vals < 0
        lo[inside] = mid[inside]
        hi[~inside] = mid[~inside]
    return (0.5 * (lo + hi))[:, None] * d
