"""Command-line front end.

Subcommands: ``forms`` (coefficients, curvatures, convexity scan),
``umbilics`` (detection, closed-form comparison, thresholds), ``trace``
(lines of curvature to CSV/SVG), ``verify`` (one-shot verification report).

Exit codes: 0 pass, 1 usage or domain error, 2 verification failure.
JSON output is canonical: keys sorted, floats at 17 significant digits,
so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import flowlines as fl
from . import forms as fm
from . import index as ix
from . import surface as sf
from . import umbilic as um
from .errors import (CircleInvalid, NonConvergentLift, NotApplicable, SpecError,
                     StartsAtUmbilic, UmbilicsError)
from .svg import SvgPlot

CLOSED_FORM_TOL = 1e-7
THRESHOLD_WARN_REL = 1e-6


# ---------------------------------------------------------------------------
# Canonical JSON


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite number in JSON output")
        if x == 0.0:
            x = 0.0  # normalize -0.0
        return format(x, ".17g")
    if isinstance(value, str):
        import json

        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    return _fmt(obj) + "\n"


def _finite(x):
    """A check's number as written: null where it is NaN or infinite, which
    canonical JSON cannot hold.  The check's pass reads the number itself."""
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# Spec resolution


def bundled_spec_names():
    root = resources.files("umbilics").joinpath("specs")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def resolve_spec(token: str) -> sf.SurfaceSpec:
    """Accept a filesystem path or the name of a bundled parameter set."""
    path = Path(token)
    if path.exists():
        return sf.load_spec(path)
    candidate = resources.files("umbilics").joinpath(f"specs/{token}.json")
    if candidate.is_file():
        return sf.load_spec(candidate)
    raise SpecError(
        f"spec {token!r} is neither a file nor a bundled name "
        f"(bundled: {', '.join(bundled_spec_names())})"
    )


# ---------------------------------------------------------------------------
# Subcommands


def _parse_uv(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError(f"expected 'u,v', got {text!r}")
    return float(parts[0]), float(parts[1])


def cmd_forms(args) -> int:
    spec = resolve_spec(args.spec)
    out = {"spec": spec.to_json()}
    if args.at is not None:
        chart = sf.ChartId.from_label(args.chart)
        u, v = _parse_uv(args.at)
        cp = sf.ChartPoint(chart, u, v)
        ff = fm.forms_closed(spec, cp)
        cs = fm.curvature_summary(spec, cp)
        entry = {
            "chart": chart.label,
            "uv": [u, v],
            "xyz": [float(c) for c in sf.chart_to_ambient(spec, cp)],
            "E": ff.E, "F": ff.F, "G": ff.G,
            "e": ff.e, "f": ff.f, "g": ff.g,
            "K": cs.K, "H": cs.H, "k1": cs.k1, "k2": cs.k2,
            "dir1": list(cs.dir1), "dir2": list(cs.dir2),
            "degenerate": cs.degenerate,
        }
        if args.numeric:
            nf = fm.forms_numeric(spec, cp)
            entry["numeric"] = {
                "E": nf.E, "F": nf.F, "G": nf.G,
                "e": nf.e, "f": nf.f, "g": nf.g,
            }
        out["point"] = entry
    failed = False
    if args.convexity:
        rep = fm.convexity_scan(spec, args.convexity, seed=args.seed)
        out["convexity"] = {
            "min_K": _finite(rep.min_K),
            "argmin_chart": rep.argmin_chart,
            "argmin_uv": list(rep.argmin_uv),
            "samples": rep.samples,
            "pass": rep.passed,
        }
        failed = not rep.passed
    _emit(args, out, "forms.json")
    return 2 if failed else 0


def cmd_umbilics(args) -> int:
    spec = resolve_spec(args.spec)
    records = um.find_umbilics(spec)
    non_isolated = any(r.kind == um.NON_ISOLATED for r in records)
    out = {
        "spec": spec.to_json(),
        "count": len(records),
        "umbilics": [r.to_json() for r in records],
    }
    failed = False
    if non_isolated:
        print(
            "warning: non-isolated umbilics (umbilic continuum); "
            "count and indices are not meaningful",
            file=sys.stderr,
        )
    if args.compare_closed_form:
        try:
            closed = um.closed_form_umbilics(spec)
            dist = um.match_distance(closed, [r.ambient for r in records])
            ok = dist < CLOSED_FORM_TOL
            out["closed_form"] = {
                "count": len(closed),
                "directed_hausdorff": _finite(dist),
                "tolerance": CLOSED_FORM_TOL,
                "pass": ok,
            }
            failed = failed or not ok
        except NotApplicable as exc:
            out["closed_form"] = {"applicable": False, "reason": str(exc)}
    if args.threshold:
        if spec.family != sf.PERTURBED_ELLIPSOID:
            raise NotApplicable("threshold report applies to perturbed ellipsoids")
        thr = um.critical_epsilon(spec.a, spec.b)
        eps_c = thr.epsilon_critical
        out["threshold"] = {**thr.to_json(), "epsilon_critical": _finite(eps_c)}
        if abs(spec.epsilon - eps_c) < THRESHOLD_WARN_REL * eps_c:
            print(
                f"warning: epsilon {spec.epsilon} is within {THRESHOLD_WARN_REL:g} "
                f"relative of the critical value {eps_c}; the count dichotomy "
                "makes no claim at equality",
                file=sys.stderr,
            )
    _emit(args, out, "umbilics.json")
    return 2 if failed else 0


def _bidirectional(spec, start, branch, arclen) -> fl.CurveTrace:
    """Stitch the two traversal senses of one branch into a single trace.

    Arclengths are signed (negative along the backward sense); the stop
    reason reads "backward/forward".
    """
    fwd = fl.trace_line(spec, start, branch, arclen)
    bwd = fl.trace_line(spec, start, branch, arclen, sign=-1)
    return fl.CurveTrace(
        start.chart,
        bwd.points[:0:-1] + fwd.points,
        tuple(-s for s in bwd.arclengths[:0:-1]) + fwd.arclengths,
        bwd.residuals[::-1] + fwd.residuals,
        f"{bwd.stop_reason}/{fwd.stop_reason}",
    )


_PORTRAIT_KINDS = ("pole", "axis", "diag", "equator")


def _select_umbilic(records, name):
    """Pick a portrait target: pole | axis | diag | equator or a list index."""
    if name.isdigit():
        i = int(name)
        if i >= len(records):
            raise SpecError(f"umbilic index {i} out of range ({len(records)} found)")
        return records[i]
    # The finder writes exact zeros off its strata, and equal axis terms
    # give bit-equal coordinates.
    for rec in records:
        x, y, z = rec.ambient
        nz = sum(1 for c in rec.ambient if c != 0.0)
        if name == "pole" and x == 0.0 and y == 0.0:
            return rec
        if name == "axis" and nz == 1:
            return rec
        if name == "diag" and nz == 3 and abs(x) == abs(y):
            return rec
        if name == "equator" and z == 0.0 and nz >= 2:
            return rec
    raise SpecError(f"no umbilic matches {name!r}; use one of {_PORTRAIT_KINDS} or an index")


def cmd_trace(args) -> int:
    spec = resolve_spec(args.spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    branches = [0, 1] if args.branch == "both" else [int(args.branch)]

    starts = []
    plot = SvgPlot()
    markers = []
    if args.portrait:
        records = um.find_umbilics(spec)
        target = _select_umbilic(records, args.portrait)
        chart = target.chart
        cu, cv = target.uv
        radius = args.portrait_radius
        if radius is None:
            radius = 0.25 * min(sf.chart_bounds(spec, chart))
        for t in np.linspace(0.0, 2.0 * math.pi, args.portrait_starts, endpoint=False):
            u = cu + radius * math.cos(t)
            v = cv + radius * math.sin(t)
            if not sf.chart_valid(spec, chart, u, v, margin=sf.DELTA_COVER):
                continue
            cs = fm.curvature_summary(spec, sf.ChartPoint(chart, u, v))
            if abs(cs.k1 - cs.k2) < 1e6 * fm.tol_umb(cs.k1, cs.k2):
                continue   # start on a degenerate-direction band: skip
            starts.append(sf.ChartPoint(chart, u, v))
        for rec in records:
            pre = sf.ambient_to_chart(spec, chart, np.array(rec.ambient))
            if pre is not None:
                markers.append((pre[0], pre[1]))
    else:
        if args.start is None:
            raise SpecError("trace needs --start u,v or --portrait NAME")
        chart = sf.ChartId.from_label(args.chart)
        u, v = _parse_uv(args.start)
        starts.append(sf.ChartPoint(chart, u, v))

    all_ok = True
    traces = []
    for si, start in enumerate(starts):
        for branch in branches:
            try:
                trace = _bidirectional(spec, start, branch, args.length)
            except StartsAtUmbilic:
                if args.portrait:
                    continue
                raise
            all_ok = all_ok and trace.within_residual_bound(args.tol_res)
            name = f"trace_s{si}_u{start.u:g}_v{start.v:g}_b{branch}.csv"
            fl.trace_to_csv(spec, trace, outdir / name)
            plot.add_curve(trace.points, stroke=("#1f77b4" if branch == 0 else "#d62728"))
            traces.append(trace)

    for u, v in markers:
        plot.add_marker(u, v)
    if args.svg:
        plot.write(args.svg)
    if args.residual_plot:
        rp = SvgPlot()
        for trace in traces:
            rp.add_curve(fl.residual_log(trace))
        rp.write(args.residual_plot)
    if not all_ok:
        print("FAIL: trace residual bound exceeded", file=sys.stderr)
        return 2
    return 0


# Index reading flagged when contradicted: six axis points at -1/2 and eight
# diagonal points at +1, which would sum to 5, not the required 2.
_CLAIMED_SWAPPED = ((-0.5, 6), (1.0, 8))


def cmd_verify(args) -> int:
    spec = resolve_spec(args.spec)
    checks = []

    rep = fm.convexity_scan(spec, 10_000, seed=args.seed)
    checks.append(
        {
            "name": "convexity",
            "pass": rep.passed,
            "min_K": _finite(rep.min_K),
            "samples": rep.samples,
        }
    )

    records = um.find_umbilics(spec)
    non_isolated = any(r.kind == um.NON_ISOLATED for r in records)
    expected = um.expected_count(spec)
    # For an umbilic continuum (sphere limit) the count carries no claim.
    count_ok = True if (expected is None or non_isolated) else len(records) == expected
    checks.append(
        {
            "name": "umbilic_count",
            "pass": bool(count_ok),
            "found": len(records),
            "expected": expected,
            "non_isolated": non_isolated,
        }
    )

    try:
        closed = um.closed_form_umbilics(spec)
        dist = um.match_distance(closed, [r.ambient for r in records])
        checks.append(
            {
                "name": "closed_form_agreement",
                "pass": bool(dist < CLOSED_FORM_TOL),
                "directed_hausdorff": _finite(dist),
                "closed_count": len(closed),
            }
        )
    except NotApplicable as exc:
        checks.append(
            {"name": "closed_form_agreement", "pass": True, "skipped": str(exc)}
        )

    if spec.family == sf.PERTURBED_ELLIPSOID and spec.a != spec.b:
        thr = um.critical_epsilon(spec.a, spec.b)
        side = "above" if spec.epsilon > thr.epsilon_critical else "below"
        checks.append(
            {
                "name": "threshold",
                "pass": True,
                "regime": thr.regime,
                "epsilon_critical": _finite(thr.epsilon_critical),
                "side": side,
            }
        )

    if non_isolated:
        checks.append(
            {
                "name": "index_sum",
                "pass": True,
                "skipped": "non-isolated umbilic continuum",
            }
        )
    else:
        try:
            records = ix.attach_indices(spec, records)
        except (NonConvergentLift, CircleInvalid) as exc:
            checks.append({"name": "index_sum", "pass": False, "error": str(exc)})
        else:
            ph = ix.poincare_hopf_check(spec, records)
            multiset = ix.index_multiset(records)
            # An isolated umbilic of index 0 is no singularity of the line field,
            # so a point set holding one is wrong whatever the sum.
            checks.append(
                {
                    "name": "index_sum",
                    "pass": ph.passed and all(r.index != 0 for r in records),
                    "sum": ph.total,
                    "multiset": [[v, n] for v, n in multiset],
                }
            )
            if spec.family == sf.SUPERQUADRIC:
                contradicted = tuple(multiset) != _CLAIMED_SWAPPED
                checks.append(
                    {
                        "name": "index_assignment_note",
                        "pass": True,
                        "claimed_axis_minus_half_diag_one": not contradicted,
                        "note": (
                            "computed multiset contradicts the axis:-1/2 / diagonal:+1 "
                            "assignment (which cannot satisfy an index sum of 2)"
                            if contradicted
                            else "computed multiset matches the claimed assignment"
                        ),
                    }
                )

    out = {
        "spec": spec.to_json(),
        "seed": args.seed,
        "umbilics": [r.to_json() for r in records],
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    _emit(args, out, "verify.json")
    if not out["pass"]:
        first = next(c["name"] for c in checks if not c["pass"])
        print(f"FAIL: {first}", file=sys.stderr)
        return 2
    return 0


def _emit(args, obj, filename):
    text = canonical_json(obj)
    sys.stdout.write(text)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / filename).write_text(text)


# ---------------------------------------------------------------------------
# Parser


def _positive(kind, zero=False):
    """argparse type: a finite number of ``kind`` above 0 (or at least 0)."""
    bound = "non-negative" if zero else "positive"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        if not (math.isfinite(value) and (value >= 0 if zero else value > 0)):
            raise argparse.ArgumentTypeError(f"must be a finite {bound} number, got {text!r}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and leaves it as it was, so every :func:`main` call shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True, help="spec JSON path or bundled name")
    common.add_argument("--out", default=None, help="directory for output artifacts")
    # Only the commands that run the convexity scan sample anything.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_positive(int, zero=True), default=0, help="sampling seed")

    parser = argparse.ArgumentParser(
        prog="umbilics",
        description="Umbilic points and lines of curvature on convex surfaces",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("forms", parents=[common, seeded], help="fundamental forms and curvature")
    p.add_argument("--at", help="chart coordinates 'u,v'")
    p.add_argument("--chart", default="Z+", help="chart label: X+, X-, Y+, Y-, Z+ or Z-")
    p.add_argument("--numeric", action="store_true", help="include numeric-path forms")
    p.add_argument(
        "--convexity", type=_positive(int, zero=True), default=0, metavar="N", help="scan N points"
    )
    p.set_defaults(fn=cmd_forms)

    p = subs.add_parser("umbilics", parents=[common], help="locate umbilic points")
    p.add_argument("--compare-closed-form", action="store_true")
    p.add_argument("--threshold", action="store_true", help="critical-epsilon report")
    p.set_defaults(fn=cmd_umbilics)

    p = subs.add_parser("trace", parents=[common], help="trace lines of curvature")
    p.add_argument("--start", help="chart coordinates 'u,v'")
    p.add_argument("--chart", default="Z+")
    p.add_argument("--branch", default="both", choices=["0", "1", "both"])
    p.add_argument("--len", dest="length", type=_positive(float), default=2.0)
    p.add_argument("--svg", help="portrait SVG path")
    p.add_argument("--residual-plot", help="log-residual SVG path")
    p.add_argument("--portrait", help=f"seed a fan around a named umbilic {_PORTRAIT_KINDS}")
    p.add_argument("--portrait-radius", type=_positive(float), default=None)
    p.add_argument("--portrait-starts", type=_positive(int), default=12)
    p.add_argument(
        "--tol-res", type=_positive(float), default=fl.RES_BOUND,
        help="trace residual bound",
    )
    p.set_defaults(fn=cmd_trace)

    p = subs.add_parser("verify", parents=[common, seeded], help="one-shot verification report")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the exit-code contract reserves
        # 2 for verification failures, so remap (keep 0 for --help).
        return 0 if exc.code == 0 else 1
    if args.command == "trace" and args.out is None:
        args.out = "."
    try:
        return args.fn(args)
    except UmbilicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
