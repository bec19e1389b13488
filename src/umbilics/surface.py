"""Surface families, Monge-style charts, and chart/ambient conversions.

Three convex families are supported:

* ``superquadric``:        a x^2k + b y^2k + c z^2k = 1,  a,b,c > 0, integer k >= 2
* ``perturbed_ellipsoid``: a x^2 + eps x^4 + a y^2 + eps y^4 + b z^2 = 1,
  a,b > 0, eps >= 0 (eps = 0 degenerates to an ellipsoid of revolution)
* ``ellipsoid``:           a x^2 + b y^2 + c z^2 = 1,  a,b,c > 0

Every family is a sum of one even term per axis, c s^m + d s^2m (d = eps on
the perturbed x and y axes, no quartic part anywhere else), and every chart
formula below is derived from those three terms.  The atlas has six Monge
patches, X+, X-, Y+, Y-, Z+ and Z-: one coordinate solved as a height
function of the other two, in a cyclic placement.  All chart maps are pure
functions and accept numpy arrays for (u, v); the radicand and the height
jet evaluate a scalar (u, v) on Python floats and return scalars.  In place
of a :class:`ChartId` they also take a :class:`ChartLane`, whose (u, v)
rows each carry their own chart.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
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
class AxisTerm:
    """One axis term c s^m + d s^2m of the implicit function.

    ``d`` is None for a single-power term; the perturbed x and y terms carry
    d = epsilon, which may be 0.  ``scales`` holds, for derivative orders
    n = 0, 1, 2, the falling-factorial factors m!/(m-n)! c and
    (2m)!/(2m-n)! d, computed once here rather than on every call.

    A :class:`ChartLane` slot holds array terms; its rows without a quartic
    part (``bare``) take it at s = 0 and their :meth:`power` as t / c; the
    quadratic root sees them with c = 1, so c * c cannot overflow there.

    The exponent m is even in every family, so every power of s comes from
    one power of |s|, |s|^(m-2) = s^(m-2), times s once or twice; the
    quartic part reuses s^(2m-n) = s^m s^(m-n).  The power never sees a
    negative base, so the term is exactly even in s and its derivative
    exactly odd, and numpy's array loop stays on its fast non-negative
    path.
    """

    c: float
    m: int
    d: float = None
    scales: tuple = field(default=None, compare=False, repr=False)
    bare: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.scales is None:
            object.__setattr__(self, "scales", tuple(
                (math.perm(self.m, n) * self.c,
                 None if self.d is None else math.perm(2 * self.m, n) * self.d)
                for n in range(3)
            ))

    def __call__(self, s):
        """The term's value at s, bit for bit ``jet(s)[0]``."""
        sm = abs(s) ** (self.m - 2) * s * s
        sc, sd = self.scales[0]
        out = sc * sm
        if sd is not None:
            sq = sm if self.bare is None else np.where(self.bare, 0.0, sm)
            out = out + sd * (sq * sq)
        return out

    def jet(self, s):
        """The term and its first two derivatives at s.

        A scalar s stays a Python scalar, whose power runs libm ``pow``;
        an array runs numpy's power loop, so the two may round the last bit
        differently.
        """
        s2 = abs(s) ** (self.m - 2)     # s^(m-2), s^(m-1), s^m
        s1 = s2 * s
        sm = s1 * s
        (c0, d0), (c1, d1), (c2, d2) = self.scales
        value, first, second = c0 * sm, c1 * s1, c2 * s2
        if d0 is not None:
            sq = sm if self.bare is None else np.where(self.bare, 0.0, sm)
            value = value + d0 * (sq * sq)
            first = first + d1 * (sq * s1)
            second = second + d2 * (sq * s2)
        return value, first, second

    def power(self, t):
        """The root s^m of term(s) = t (negative for t < 0).

        Conjugate form of the quadratic root in s^m: stable as d -> 0 and
        exact at d = 0; -inf where that quadratic has no real root.  A Python
        float t runs on Python floats (math.sqrt rounds as np.sqrt does).
        """
        if self.d is None:
            return t / self.c
        if isinstance(t, float):
            disc = self.c * self.c + 4.0 * self.d * t
            return 2.0 * t / (math.sqrt(disc) + self.c) if disc >= 0.0 else -math.inf
        c = self.c if self.bare is None else np.where(self.bare, 1.0, self.c)   # bare rows keep t / c
        disc = c * c + 4.0 * self.d * t
        out = np.where(disc >= 0.0, 2.0 * t / (np.sqrt(np.maximum(disc, 0.0)) + c), -np.inf)
        return (out if self.bare is None else np.where(self.bare, t / self.c, out))[()]

    def root(self, t):
        """The s >= 0 where the term equals t."""
        return self.power(t) ** (1.0 / self.m)


@dataclass(frozen=True)
class SurfaceSpec:
    """Which family plus its coefficients. Unused fields are None.

    ``terms`` holds the (x, y, z) axis terms derived from the other fields,
    and ``lanes``, built on first use, their :class:`ChartLane` table.
    """

    family: str
    a: float
    b: float
    c: float = None
    k: int = None
    epsilon: float = None
    terms: tuple = field(init=False, compare=False, repr=False)

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
            m = 2 * self.k
            terms = (AxisTerm(self.a, m), AxisTerm(self.b, m), AxisTerm(self.c, m))
        elif self.family == PERTURBED_ELLIPSOID:
            if self.epsilon is None or self.epsilon < 0:
                raise SpecError("perturbed_ellipsoid requires epsilon >= 0")
            if self.c is not None or self.k is not None:
                raise SpecError("perturbed_ellipsoid takes only a, b, epsilon")
            quartic = AxisTerm(self.a, 2, self.epsilon)
            terms = (quartic, quartic, AxisTerm(self.b, 2))
        else:
            if self.c is None or not self.c > 0:
                raise SpecError("ellipsoid requires c > 0")
            if self.k is not None or self.epsilon is not None:
                raise SpecError("ellipsoid takes only a, b, c")
            terms = (AxisTerm(self.a, 2), AxisTerm(self.b, 2), AxisTerm(self.c, 2))
        object.__setattr__(self, "terms", terms)

    lanes = functools.cached_property(lambda self: _lane_table(self.terms))

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
        for name in sorted(keys - {"family"}):
            value = obj[name]
            # The constructors below call float(), which would accept "1" and true.
            if isinstance(value, bool) or not isinstance(value, Real):
                raise SpecError(f"{name} must be a JSON number, got {value!r}")
        try:
            if family == SUPERQUADRIC:
                return cls.superquadric(obj["a"], obj["b"], obj["c"], obj["k"])
            if family == PERTURBED_ELLIPSOID:
                return cls.perturbed_ellipsoid(obj["a"], obj["b"], obj["epsilon"])
            return cls.ellipsoid(obj["a"], obj["b"], obj["c"])
        except OverflowError as exc:
            raise SpecError(f"bad numeric field in spec: {exc}") from exc


def load_spec(path) -> SurfaceSpec:
    """Read a SurfaceSpec from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"{path}: cannot read spec ({exc})") from exc
    return SurfaceSpec.from_json(obj)


_AXES = ("x", "y", "z")


@dataclass(frozen=True)
class ChartId:
    axis: str          # height axis: "x", "y" or "z"
    sign: int          # +1 or -1: sign of the height coordinate

    def __post_init__(self):
        if self.axis not in _AXES or self.sign not in (1, -1):
            raise SpecError(f"bad chart id ({self.axis!r}, {self.sign})")

    @property
    def label(self) -> str:
        return self.axis.upper() + ("+" if self.sign > 0 else "-")

    @classmethod
    def from_label(cls, text: str) -> "ChartId":
        text = text.strip()
        axis = text[:1].lower()
        if len(text) != 2 or axis not in _AXES or text[1] not in "+-":
            raise SpecError(
                f"bad chart label {text!r}; expected X+, X-, Y+, Y-, Z+ or Z-"
            )
        return cls(axis, 1 if text[1] == "+" else -1)

    def terms(self, spec):
        """The axis terms of ``spec`` in this chart's (u, v, height) slots."""
        iu, iv, ih = _PLACEMENT[self.axis]
        return spec.terms[iu], spec.terms[iv], spec.terms[ih]


@dataclass(frozen=True)
class ChartPoint:
    chart: ChartId
    u: float
    v: float


_PLACEMENT = {"z": (0, 1, 2), "x": (1, 2, 0), "y": (2, 0, 1)}
ATLAS = tuple(ChartId(ax, s) for ax in _AXES for s in (1, -1))


def _lane_table(terms):
    """Per ATLAS chart (a column): its sign, the scales c_n of its u, v and
    height slot terms and, when some term has a quartic part, their d_n (0
    where a slot has none) and which slots have none (else None)."""
    slots = [[terms[i] for i in _PLACEMENT[chart.axis]] for chart in ATLAS]
    parts = (0, 1) if any(t.d is not None for t in terms) else (0,)
    table = [[chart.sign for chart in ATLAS]] + [
        [row[j].scales[n][p] or 0.0 for row in slots] for p in parts for j in range(3) for n in range(3)]
    bare = np.array([[row[j].d is None for row in slots] for j in range(3)]) if len(parts) == 2 else None
    return np.array(table, float), bare


class ChartLane:
    """Kernel rows that each carry their own chart, ``ATLAS[lane[i]]``: the
    radicand, the height jet and the form kernel take one in place of a
    ChartId and give each row its chart's bits (every family has one m).
    """

    def __init__(self, spec, lane):
        table, bare = spec.lanes
        self.sign, *c = table.take(lane, axis=1)
        d, m = c[9:] or [None] * 9, spec.terms[0].m
        bare = [None] * 3 if bare is None else bare.take(lane, axis=1)
        self._terms = tuple(AxisTerm(c[k], m, d[k], tuple(zip(c[k:k + 3], d[k:k + 3])), bare[k // 3])
                            for k in (0, 3, 6))

    def terms(self, spec):
        """The per-row terms of the (u, v, height) slots."""
        return self._terms


def placement(chart: ChartId):
    """Ambient slots (iu, iv, ih) for the chart coordinates and height.

    Cyclic order, so the (S_u, S_v, normal) frame is right-handed.
    """
    return _PLACEMENT[chart.axis]


def implicit_value(spec: SurfaceSpec, p):
    """f(p) with f < 0 inside, 0 on the surface. Accepts (..., 3) arrays."""
    p = np.asarray(p, dtype=float)
    tx, ty, tz = spec.terms
    return tx(p[..., 0]) + ty(p[..., 1]) + tz(p[..., 2]) - 1.0


def implicit_gradient(spec: SurfaceSpec, p):
    """Gradient of the implicit function; vanishes only at the origin."""
    p = np.asarray(p, dtype=float)
    return np.stack([term.jet(p[..., i])[1] for i, term in enumerate(spec.terms)], axis=-1)


def _as_float(x):
    """A Python float or int, or an np.float64 (a float subclass), as a
    Python float; anything else as a float array.

    Scalar kernel calls then run on Python floats, which cost a fraction of
    the numpy dispatch that each operation on a 0-d array pays.
    """
    return float(x) if isinstance(x, (float, int)) else np.asarray(x, dtype=float)


def chart_bounds(spec: SurfaceSpec, chart: ChartId):
    """Half-widths (umax, vmax) of the rectangle enclosing the chart domain."""
    tu, tv, _ = chart.terms(spec)
    return float(tu.root(1.0)), float(tv.root(1.0))


def radicand(spec: SurfaceSpec, chart, u, v):
    """Validity quantity of the chart's height expression (vectorized).

    It is t = 1 - term_u(u) - term_v(v) where the height term is a single
    power.  Where it has a quartic part (perturbed x/y charts, eps = 0
    included) it is the squared height resolved from that quartic, and -inf
    where no real height exists.
    """
    tu, tv, th = chart.terms(spec)
    t = 1.0 - tu(_as_float(u)) - tv(_as_float(v))
    if th.d is None:
        return t
    return th.power(t) if th.bare is None else np.where(th.bare, t, th.power(t))


def chart_valid(spec, chart, u, v, margin=DELTA_VALID):
    """True where the chart point is usable with the given radicand margin."""
    return radicand(spec, chart, u, v) >= margin


def check_valid(spec, cp: ChartPoint):
    """The chart point's radicand; raise InvalidChartPoint unless it is usable."""
    try:
        r = float(radicand(spec, cp.chart, cp.u, cp.v))
    except OverflowError:   # Python's ** raises where numpy's gives inf
        r = -math.inf
    if not r >= DELTA_VALID:
        raise InvalidChartPoint(f"chart {cp.chart.label} at ({cp.u}, {cp.v}): radicand {r:.3e}")
    return r


def height_jet(spec: SurfaceSpec, chart, u, v):
    """Height h and its derivatives (h, hu, hv, huu, huv, hvv), vectorized.

    Chain rule on the separable t = 1 - term_u(u) - term_v(v) (so t_uv = 0)
    through the inverse of the height term T: dh/dt = 1 / T'(h) and
    d2h/dt2 = -T''(h) / T'(h)^3.  One term jet per axis.  Inputs must
    already be valid (radicand > 0); no checking here.
    """
    u, v = _as_float(u), _as_float(v)
    tu, tv, th = chart.terms(spec)
    (Tu, Tu1, Tu2), (Tv, Tv1, Tv2) = tu.jet(u), tv.jet(v)
    h = th.root(1.0 - Tu - Tv)
    _, Th1, Th2 = th.jet(h)
    h_t = 1.0 / Th1
    h_tt = -Th2 * h_t**3
    t_u, t_v = -Tu1, -Tv1
    t_uu, t_vv = -Tu2, -Tv2
    s = chart.sign
    return (
        s * h,
        s * h_t * t_u,
        s * h_t * t_v,
        s * (h_tt * t_u * t_u + h_t * t_uu),
        s * h_tt * t_u * t_v,
        s * (h_tt * t_v * t_v + h_t * t_vv),
    )


def _height(spec: SurfaceSpec, chart: ChartId, u, v):
    """Chart height h(u, v); no validity check."""
    tu, tv, th = chart.terms(spec)
    return chart.sign * th.root(1.0 - tu(u) - tv(v))


def chart_points(spec: SurfaceSpec, chart: ChartId, u, v):
    """Ambient points of chart coordinates, vectorized to (..., 3).

    No validity check; caller guarantees radicand > 0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    iu, iv, ih = placement(chart)
    out = np.empty(np.broadcast(u, v).shape + (3,))
    out[..., iu] = u
    out[..., iv] = v
    out[..., ih] = _height(spec, chart, u, v)
    return out


def chart_to_ambient(spec: SurfaceSpec, cp: ChartPoint):
    """Ambient R^3 point of a chart point; raises InvalidChartPoint."""
    check_valid(spec, cp)
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
    h = float(_height(spec, chart, u, v))
    if abs(h - hcoord) > 1e-6 * (1.0 + abs(hcoord)):
        return None
    return u, v, r

