"""Surface families, Monge-style charts, and chart/ambient conversions.

Three convex families are supported:

* ``superquadric``:        a x^2k + b y^2k + c z^2k = 1,  a,b,c > 0, integer k >= 2
* ``perturbed_ellipsoid``: a x^2 + eps x^4 + a y^2 + eps y^4 + b z^2 = 1,
  a,b > 0, eps >= 0 (eps = 0 degenerates to an ellipsoid of revolution)
* ``ellipsoid``:           a x^2 + b y^2 + c z^2 = 1,  a,b,c > 0

Each family is covered by an atlas of Monge patches (one coordinate solved as
a height function of the other two, in a cyclic placement).  The perturbed
family additionally carries a pair of "rotated equator" charts: the height is
the y coordinate but the chart plane is (x, z), so the z = 0 equator circle
lies in the chart interior.  All chart maps are pure functions and accept
numpy arrays for (u, v).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvalidChartPoint, SpecError

SUPERQUADRIC = "superquadric"
PERTURBED_ELLIPSOID = "perturbed_ellipsoid"
ELLIPSOID = "ellipsoid"
FAMILIES = (SUPERQUADRIC, PERTURBED_ELLIPSOID, ELLIPSOID)

# Radicand thresholds: a chart point is usable above DELTA_VALID, and the
# atlas guarantees every surface point clears DELTA_COVER in some chart.
DELTA_VALID = 1e-12
DELTA_COVER = 1e-3


@dataclass(frozen=True)
class SurfaceSpec:
    """Which family plus its coefficients. Unused fields are None."""

    family: str
    a: float
    b: float
    c: float = None
    k: int = None
    epsilon: float = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("a", "b", "c", "k", "epsilon"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, Real) and math.isfinite(value)):
                raise SpecError(f"{name} must be a finite number, got {value!r}")
        if not (self.a > 0 and self.b > 0):
            raise SpecError("coefficients a, b must be positive")
        if self.family == SUPERQUADRIC:
            if self.c is None or not self.c > 0:
                raise SpecError("superquadric requires c > 0")
            if self.k is None or self.k != int(self.k) or self.k < 2:
                raise SpecError(
                    "superquadric requires integer k >= 2; "
                    "for k = 1 use the ellipsoid family"
                )
            if self.epsilon is not None:
                raise SpecError("superquadric takes no epsilon")
            object.__setattr__(self, "k", int(self.k))   # 2.0 -> 2, validated above
        elif self.family == PERTURBED_ELLIPSOID:
            if self.epsilon is None or self.epsilon < 0:
                raise SpecError("perturbed_ellipsoid requires epsilon >= 0")
            if self.c is not None or self.k is not None:
                raise SpecError("perturbed_ellipsoid takes only a, b, epsilon")
        else:
            if self.c is None or not self.c > 0:
                raise SpecError("ellipsoid requires c > 0")
            if self.k is not None or self.epsilon is not None:
                raise SpecError("ellipsoid takes only a, b, c")

    @classmethod
    def superquadric(cls, a, b, c, k):
        return cls(SUPERQUADRIC, float(a), float(b), float(c), k)

    @classmethod
    def perturbed_ellipsoid(cls, a, b, epsilon):
        return cls(PERTURBED_ELLIPSOID, float(a), float(b), epsilon=float(epsilon))

    @classmethod
    def ellipsoid(cls, a, b, c):
        return cls(ELLIPSOID, float(a), float(b), float(c))

    def to_json(self) -> dict:
        d = {"family": self.family, "a": self.a, "b": self.b}
        if self.family == SUPERQUADRIC:
            d["c"] = self.c
            d["k"] = self.k
        elif self.family == PERTURBED_ELLIPSOID:
            d["epsilon"] = self.epsilon
        else:
            d["c"] = self.c
        return d

    @classmethod
    def from_json(cls, obj) -> "SurfaceSpec":
        if not isinstance(obj, dict):
            raise SpecError("surface spec must be a JSON object")
        family = obj.get("family")
        required = {
            SUPERQUADRIC: {"family", "a", "b", "c", "k"},
            PERTURBED_ELLIPSOID: {"family", "a", "b", "epsilon"},
            ELLIPSOID: {"family", "a", "b", "c"},
        }
        if family not in required:
            raise SpecError(f"unknown or missing family: {family!r}")
        keys = set(obj)
        if keys != required[family]:
            missing = required[family] - keys
            extra = keys - required[family]
            parts = []
            if missing:
                parts.append(f"missing {sorted(missing)}")
            if extra:
                parts.append(f"unexpected {sorted(extra)}")
            raise SpecError(f"bad fields for family {family!r}: " + ", ".join(parts))
        try:
            if family == SUPERQUADRIC:
                return cls.superquadric(obj["a"], obj["b"], obj["c"], obj["k"])
            if family == PERTURBED_ELLIPSOID:
                return cls.perturbed_ellipsoid(obj["a"], obj["b"], obj["epsilon"])
            return cls.ellipsoid(obj["a"], obj["b"], obj["c"])
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad numeric field in spec: {exc}") from exc


def load_spec(path) -> SurfaceSpec:
    """Read a SurfaceSpec from a JSON file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    return SurfaceSpec.from_json(obj)


MONGE = "monge"
ROTATED_EQUATOR = "rotated_equator"

_AXES = ("x", "y", "z")


@dataclass(frozen=True)
class ChartId:
    axis: str          # height axis: "x", "y" or "z"
    sign: int          # +1 or -1: sign of the height coordinate
    kind: str = MONGE

    def __post_init__(self):
        if self.axis not in _AXES or self.sign not in (1, -1):
            raise SpecError(f"bad chart id ({self.axis!r}, {self.sign})")
        if self.kind not in (MONGE, ROTATED_EQUATOR):
            raise SpecError(f"bad chart kind {self.kind!r}")
        if self.kind == ROTATED_EQUATOR and self.axis != "y":
            raise SpecError("rotated equator charts have height along y")

    @property
    def label(self) -> str:
        if self.kind == ROTATED_EQUATOR:
            return "E+" if self.sign > 0 else "E-"
        return self.axis.upper() + ("+" if self.sign > 0 else "-")

    @classmethod
    def from_label(cls, text: str) -> "ChartId":
        text = text.strip()
        if len(text) != 2 or text[1] not in "+-":
            raise SpecError(f"bad chart label {text!r}; expected e.g. 'Z+' or 'E-'")
        sign = 1 if text[1] == "+" else -1
        if text[0].upper() == "E":
            return cls("y", sign, ROTATED_EQUATOR)
        axis = text[0].lower()
        if axis not in _AXES:
            raise SpecError(f"bad chart axis in {text!r}")
        return cls(axis, sign)


@dataclass(frozen=True)
class ChartPoint:
    chart: ChartId
    u: float
    v: float


def placement(chart: ChartId):
    """Ambient slots (iu, iv, ih) for the chart coordinates and height.

    Monge charts use the cyclic order (so the (S_u, S_v, normal) frame is
    right-handed); the rotated equator chart intentionally uses the pair
    (x, z) with height y.
    """
    if chart.kind == ROTATED_EQUATOR:
        return 0, 2, 1
    return {"z": (0, 1, 2), "x": (1, 2, 0), "y": (2, 0, 1)}[chart.axis]


def _coef(spec: SurfaceSpec):
    """Per-axis implicit coefficients (cx, cy, cz) for power families."""
    if spec.family == SUPERQUADRIC or spec.family == ELLIPSOID:
        return spec.a, spec.b, spec.c
    raise SpecError("no per-axis power coefficients for this family")


def exponent(spec: SurfaceSpec) -> int:
    """Even exponent 2k of the power families (2 for the ellipsoid)."""
    if spec.family == SUPERQUADRIC:
        return 2 * spec.k
    if spec.family == ELLIPSOID:
        return 2
    raise SpecError("perturbed_ellipsoid has no single power exponent")


def implicit_value(spec: SurfaceSpec, p):
    """f(p) with f < 0 inside, 0 on the surface. Accepts (..., 3) arrays."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    if spec.family == PERTURBED_ELLIPSOID:
        a, b, eps = spec.a, spec.b, spec.epsilon
        return a * x**2 + eps * x**4 + a * y**2 + eps * y**4 + b * z**2 - 1.0
    ca, cb, cc = _coef(spec)
    m = exponent(spec)
    return ca * x**m + cb * y**m + cc * z**m - 1.0


def implicit_gradient(spec: SurfaceSpec, p):
    """Gradient of the implicit function; vanishes only at the origin."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    if spec.family == PERTURBED_ELLIPSOID:
        a, b, eps = spec.a, spec.b, spec.epsilon
        g = np.stack(
            [
                2 * a * x + 4 * eps * x**3,
                2 * a * y + 4 * eps * y**3,
                2 * b * z + np.zeros_like(z),
            ],
            axis=-1,
        )
        return g
    ca, cb, cc = _coef(spec)
    m = exponent(spec)
    return np.stack(
        [m * ca * x ** (m - 1), m * cb * y ** (m - 1), m * cc * z ** (m - 1)],
        axis=-1,
    )


def _quartic_extent(a, eps):
    """Largest |t| with a t^2 + eps t^4 <= 1.

    Conjugate form of the quartic root: stable for eps -> 0 (no
    cancellation) and exact at eps = 0.
    """
    return math.sqrt(2.0 / (math.sqrt(a * a + 4.0 * eps) + a))


def chart_atlas(spec: SurfaceSpec):
    """Charts jointly covering the surface with margin DELTA_COVER."""
    charts = [ChartId(ax, s) for ax in _AXES for s in (1, -1)]
    if spec.family == PERTURBED_ELLIPSOID:
        charts += [ChartId("y", 1, ROTATED_EQUATOR), ChartId("y", -1, ROTATED_EQUATOR)]
    return charts


def chart_bounds(spec: SurfaceSpec, chart: ChartId):
    """Half-widths (umax, vmax) of the rectangle enclosing the chart domain."""
    if spec.family == PERTURBED_ELLIPSOID:
        a, b, eps = spec.a, spec.b, spec.epsilon
        quart = _quartic_extent(a, eps)
        zext = math.sqrt(1.0 / b)
        if chart.kind == ROTATED_EQUATOR:
            return quart, zext          # (u, v) = (x, z)
        if chart.axis == "z":
            return quart, quart         # (u, v) = (x, y)
        if chart.axis == "x":
            return quart, zext          # (u, v) = (y, z)
        return zext, quart              # (u, v) = (z, x)
    ca, cb, cc = _coef(spec)
    m = exponent(spec)
    iu, iv, ih = placement(chart)
    coefs = (ca, cb, cc)
    return coefs[iu] ** (-1.0 / m), coefs[iv] ** (-1.0 / m)


def _pe_chart_profile(spec: SurfaceSpec, chart: ChartId):
    """Quadratic/quartic coefficients ((cu2, cu4), (cv2, cv4)) of the
    perturbed-ellipsoid chart-plane terms, plus the height kind."""
    a, b, eps = spec.a, spec.b, spec.epsilon
    if chart.kind == ROTATED_EQUATOR:
        return (a, eps), (b, 0.0)       # (u, v) = (x, z), height y
    if chart.axis == "z":
        return (a, eps), (a, eps)       # height solves b z^2 term
    if chart.axis == "x":
        return (a, eps), (b, 0.0)       # (u, v) = (y, z), height x
    return (b, 0.0), (a, eps)           # (u, v) = (z, x), height y


def radicand(spec: SurfaceSpec, chart: ChartId, u, v):
    """Validity quantity of the chart's height expression (vectorized).

    For power-family charts this is 1 - alpha u^m - beta v^m.  For
    perturbed-ellipsoid z charts it is 1 - a u^2 - eps u^4 - a v^2 - eps v^4.
    For the quartic-height charts (x/y Monge and rotated equator) it is the
    squared height q itself, obtained from the resolved quartic; q < 0 is
    reported where the inner discriminant fails.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if spec.family != PERTURBED_ELLIPSOID:
        ca, cb, cc = _coef(spec)
        m = exponent(spec)
        iu, iv, ih = placement(chart)
        coefs = (ca, cb, cc)
        return 1.0 - coefs[iu] * u**m - coefs[iv] * v**m
    (cu2, cu4), (cv2, cv4) = _pe_chart_profile(spec, chart)
    t = 1.0 - cu2 * u**2 - cu4 * u**4 - cv2 * v**2 - cv4 * v**4
    if chart.axis == "z" and chart.kind == MONGE:
        return t
    a, eps = spec.a, spec.epsilon
    disc = a * a + 4.0 * eps * t
    # Conjugate form of the resolved quartic: stable at small eps.
    q = np.where(
        disc >= 0.0, 2.0 * t / (np.sqrt(np.maximum(disc, 0.0)) + a), -np.inf
    )
    return q


def chart_valid(spec, chart, u, v, margin=DELTA_VALID):
    """True where the chart point is usable with the given radicand margin."""
    return radicand(spec, chart, u, v) >= margin


def height_jet(spec: SurfaceSpec, chart: ChartId, u, v):
    """Height h and its derivatives (h, hu, hv, huu, huv, hvv), vectorized.

    Closed-form second-order jet of each chart's height function; this is
    the analytic backbone of the closed-form fundamental coefficients.
    Inputs must already be valid (radicand > 0); no checking here.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = float(chart.sign)

    if spec.family != PERTURBED_ELLIPSOID:
        ca, cb, cc = _coef(spec)
        m = exponent(spec)
        iu, iv, ih = placement(chart)
        coefs = (ca, cb, cc)
        al, be, ga = coefs[iu], coefs[iv], coefs[ih]
        r = 1.0 - al * u**m - be * v**m
        ru = -al * m * u ** (m - 1)
        rv = -be * m * v ** (m - 1)
        ruu = -al * m * (m - 1) * u ** (m - 2)
        rvv = -be * m * (m - 1) * v ** (m - 2)
        gm = ga ** (-1.0 / m)
        p = 1.0 / m
        rp1 = r ** (p - 1.0)
        rp2 = r ** (p - 2.0)
        h = s * gm * r**p
        hu = s * gm * p * rp1 * ru
        hv = s * gm * p * rp1 * rv
        huu = s * gm * p * ((p - 1.0) * rp2 * ru * ru + rp1 * ruu)
        huv = s * gm * p * (p - 1.0) * rp2 * ru * rv
        hvv = s * gm * p * ((p - 1.0) * rp2 * rv * rv + rp1 * rvv)
        return h, hu, hv, huu, huv, hvv

    a, b, eps = spec.a, spec.b, spec.epsilon
    if chart.axis == "z" and chart.kind == MONGE:
        r = 1.0 - a * u**2 - eps * u**4 - a * v**2 - eps * v**4
        ru = -2.0 * a * u - 4.0 * eps * u**3
        rv = -2.0 * a * v - 4.0 * eps * v**3
        ruu = -2.0 * a - 12.0 * eps * u**2
        rvv = -2.0 * a - 12.0 * eps * v**2
        g0 = b**-0.5
        sq = np.sqrt(r)
        h = s * g0 * sq
        hu = s * g0 * ru / (2.0 * sq)
        hv = s * g0 * rv / (2.0 * sq)
        huu = s * g0 * (ruu / (2.0 * sq) - ru * ru / (4.0 * r * sq))
        hvv = s * g0 * (rvv / (2.0 * sq) - rv * rv / (4.0 * r * sq))
        huv = s * g0 * (-ru * rv / (4.0 * r * sq))
        return h, hu, hv, huu, huv, hvv

    # Quartic-height charts: eps h^4 + a h^2 = t(u, v), solved as h = sqrt(q)
    # with q in conjugate form (stable for eps -> 0, exact at eps = 0).
    (cu2, cu4), (cv2, cv4) = _pe_chart_profile(spec, chart)
    t = 1.0 - cu2 * u**2 - cu4 * u**4 - cv2 * v**2 - cv4 * v**4
    tu = -2.0 * cu2 * u - 4.0 * cu4 * u**3
    tv = -2.0 * cv2 * v - 4.0 * cv4 * v**3
    tuu = -2.0 * cu2 - 12.0 * cu4 * u**2
    tvv = -2.0 * cv2 - 12.0 * cv4 * v**2
    rr = np.sqrt(a * a + 4.0 * eps * t)   # equals 2 eps q + a
    q = 2.0 * t / (rr + a)
    qu = tu / rr
    qv = tv / rr
    quu = tuu / rr - 2.0 * eps * tu * tu / rr**3
    qvv = tvv / rr - 2.0 * eps * tv * tv / rr**3
    quv = -2.0 * eps * tu * tv / rr**3
    sq = np.sqrt(q)
    h = s * sq
    hu = s * qu / (2.0 * sq)
    hv = s * qv / (2.0 * sq)
    huu = s * (quu / (2.0 * sq) - qu * qu / (4.0 * q * sq))
    hvv = s * (qvv / (2.0 * sq) - qv * qv / (4.0 * q * sq))
    huv = s * (quv / (2.0 * sq) - qu * qv / (4.0 * q * sq))
    return h, hu, hv, huu, huv, hvv


def chart_points(spec: SurfaceSpec, chart: ChartId, u, v):
    """Ambient points of chart coordinates, vectorized to (..., 3).

    No validity check; caller guarantees radicand > 0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    h = height_jet(spec, chart, u, v)[0]
    iu, iv, ih = placement(chart)
    out = np.empty(np.broadcast(u, v).shape + (3,))
    out[..., iu] = u
    out[..., iv] = v
    out[..., ih] = h
    return out


def chart_to_ambient(spec: SurfaceSpec, cp: ChartPoint):
    """Ambient R^3 point of a chart point; raises InvalidChartPoint."""
    r = float(radicand(spec, cp.chart, cp.u, cp.v))
    if not r >= DELTA_VALID:
        raise InvalidChartPoint(
            f"chart {cp.chart.label} at (u, v) = ({cp.u}, {cp.v}): radicand {r:.3e}"
        )
    return chart_points(spec, cp.chart, cp.u, cp.v)


def ambient_to_chart(spec: SurfaceSpec, chart: ChartId, p):
    """Inverse lookup: chart coordinates of an ambient surface point.

    Returns (u, v, margin) where margin is the radicand, or None when the
    point lies on the wrong side of the chart (height sign mismatch) or
    outside the chart domain.
    """
    p = np.asarray(p, dtype=float)
    iu, iv, ih = placement(chart)
    u, v, hcoord = float(p[iu]), float(p[iv]), float(p[ih])
    if hcoord * chart.sign < 0.0:
        return None
    r = float(radicand(spec, chart, u, v))
    if not r >= DELTA_VALID:
        return None
    h = float(height_jet(spec, chart, u, v)[0])
    if abs(h - hcoord) > 1e-6 * (1.0 + abs(hcoord)):
        return None
    return u, v, r


def surface_diameter(spec: SurfaceSpec) -> float:
    """Cheap overestimate of the surface diameter (axis extents)."""
    if spec.family == PERTURBED_ELLIPSOID:
        return 2.0 * max(_quartic_extent(spec.a, spec.epsilon), math.sqrt(1.0 / spec.b))
    m = exponent(spec)
    return 2.0 * max(cf ** (-1.0 / m) for cf in _coef(spec))
