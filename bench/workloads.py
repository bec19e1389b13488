"""Seeded workloads: each yields one round of operations.

An operation is a label, a ``run`` callable (the timed part, a call into the
package's public interface) and a ``check`` callable (untimed) that turns
the run's output into a list of failure reasons using :mod:`checker`.
Rounds depend only on the seed, so a run repeats its round unchanged and
two runs with one seed do identical work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import shutil
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import checker
from umbilics import cli
from umbilics import forms as fm
from umbilics import index as ix
from umbilics import surface as sf
from umbilics import umbilic as um


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    spec: dict = None         # the surface spec fields the op was given
    out_bytes: int = 0        # set by check: bytes the op printed and wrote


def bundled_spec(name):
    """JSON fields of a bundled parameter set, read from the package data."""
    text = resources.files("umbilics").joinpath(f"specs/{name}.json").read_text()
    return json.loads(text)


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# sweep-random


def _jitter(rng, x, rel=0.02):
    """x scaled by a log-uniform factor in [1/(1+rel), 1+rel]."""
    return x * math.exp(rng.uniform(-1.0, 1.0) * math.log1p(rel))


def _axes(rng, a, b, c):
    """Jittered coefficients in a seeded axis order: the same surface up to
    a rotation, so the finder's work barely changes while its inputs do."""
    coefs = [_jitter(rng, x) for x in (a, b, c)]
    rng.shuffle(coefs)
    return dict(zip("abc", coefs))


def _superquadric(a, b, c, k):
    return lambda rng: {"family": "superquadric", "k": k, **_axes(rng, a, b, c)}


def _perturbed(a, b, ratio):
    """Perturbed ellipsoid at ``ratio`` times its critical epsilon."""

    def draw(rng):
        aj, bj = _jitter(rng, a), _jitter(rng, b)
        eps = _jitter(rng, ratio) * checker.critical_epsilon(aj, bj)
        return {"family": "perturbed_ellipsoid", "a": aj, "b": bj, "epsilon": eps}

    return draw


def _ellipsoid(a, b, c):
    return lambda rng: {"family": "ellipsoid", **_axes(rng, a, b, c)}


# Each round draws from five strata: a fixed centre in the documented
# domain, moved by a seeded jitter of up to 2% per parameter (and a seeded
# axis order where the family has one), so that a seed changes every spec
# but not the round's cost.  The strata cover the parts of the domain where
# every draw passes the checker at the baseline; envelope.py samples the
# whole domain, failures included.  An op with 2, 4 or 10 umbilics takes
# about 1 to 1.6 s and one with 14 or 18 about 3.5 to 5 s, so a run holds
# only 24 to 32 ops and its median and tail (p54 to p66 at that count)
# would jump between strata of different cost; the 10-umbilic stratum is
# therefore drawn four times per round, which puts both inside one group
# of similar ops.
SWEEP_STRATA = (  # (label, draw, draws per round)
    ("ellipsoid", _ellipsoid(0.3, 1.5, 6.0), 1),
    ("sq-k2", _superquadric(40.0, 4.0, 15.0, 2), 1),
    ("pe-gt-below", _perturbed(0.8, 0.3, 0.5), 1),
    ("pe-gt-above", _perturbed(0.6, 0.25, 2.5), 4),
    ("pe-lt-above", _perturbed(0.2, 0.85, 2.5), 1),
)


def pipeline_op(label, spec):
    op = Op(label, None, None, spec)

    def run():
        s = sf.SurfaceSpec.from_json(spec)
        records = ix.attach_indices(s, um.find_umbilics(s))
        return records, ix.poincare_hopf_check(s, records)

    def check(result):
        records, ph = result
        blobs = [r.to_json() for r in records]
        reasons = [] if ph.passed else [f"index sum {ph.total}"]
        return reasons + checker.check_umbilics(spec, blobs)

    op.run, op.check = run, check
    return op


def sweep_random(rng, workdir):
    return [
        pipeline_op(f"sweep.{name}", draw(rng))
        for name, draw, count in SWEEP_STRATA
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# trace-fan

# Starts per spec on the half-radius ring of the Z+ chart, from 45 degrees
# in equal steps, each moved by a seeded jitter of up to 7 degrees and 2% in
# radius, so that a seed changes every start but not the round's cost.
# Every line takes 0.1 to 0.2 s, so that a run holds a few hundred
# operations of similar cost and its median and tail are steady: on the
# superquadrics the starts sit near the diagonals and the lines are short,
# because a line of length 0.5 from there reaches a region of fine steps and
# takes about 3 s (one from near an axis takes 0.1 s at any length).
TRACE_STARTS = (  # (bundled spec, starts, line length)
    ("sq_1112", 4, 0.2),
    ("sq_2352", 4, 0.2),
    ("pe_lt", 6, 0.5),
    ("ellipsoid_123", 6, 0.5),
)
_POLYLINE = re.compile(r'<polyline points="([^"]*)"')


def _start_points(rng, spec, chart, count):
    """``count`` valid, non-degenerate starts spread around the chart."""
    umax, vmax = sf.chart_bounds(spec, chart)
    starts = []
    for j in range(count):
        while True:
            t = math.radians(45.0 + 360.0 * j / count + rng.uniform(-7.0, 7.0))
            r = 0.5 * _jitter(rng, 1.0)
            u, v = r * umax * math.cos(t), r * vmax * math.sin(t)
            if not sf.chart_valid(spec, chart, u, v, margin=sf.DELTA_COVER):
                continue
            cs = fm.curvature_summary(spec, sf.ChartPoint(chart, u, v))
            # Same degenerate-band rule as `umbilics trace --portrait`.
            if abs(cs.k1 - cs.k2) < 1e6 * fm.tol_umb(cs.k1, cs.k2):
                continue
            starts.append((u, v))
            break
    return starts


def trace_op(name, chart_label, u, v, length, workdir):
    spec_json = bundled_spec(name)
    op = Op(f"trace.{name}", None, None, spec_json)
    state = {}

    def run():
        out = Path(tempfile.mkdtemp(dir=workdir))
        state["dir"] = out
        return _call_cli([
            "trace", "--spec", name, f"--start={u!r},{v!r}", "--chart", chart_label,
            "--branch", "both", "--len", str(length),
            "--svg", str(out / "fan.svg"), "--out", str(out),
        ])

    def check(result):
        rc, text, err = result
        out = state.pop("dir")
        try:
            files = sorted(out.iterdir())
            op.out_bytes = len(text.encode()) + len(err.encode()) + sum(
                p.stat().st_size for p in files
            )
            if rc != 0:
                return [f"exit {rc}: {err.strip()}"]
            csvs = sorted((p for p in files if p.suffix == ".csv"), key=lambda p: p.stem[-1])
            if [p.stem[-2:] for p in csvs] != ["b0", "b1"]:
                return [f"expected one CSV per branch, got {[p.name for p in csvs]}"]
            # The SVG writer draws each line with >= 2 nodes as one polyline,
            # in branch order: its vertex count gives the step count.
            lines = _POLYLINE.findall((out / "fan.svg").read_text())
            reasons = []
            for path in csvs:
                with open(path) as fh:
                    nodes = sum(1 for _ in fh) - 1
                steps = len(lines.pop(0).split()) - 1 if nodes >= 2 and lines else 0
                reasons += [f"{path.name}: {r}" for r in checker.check_trace_csv(spec_json, path, steps)]
            if lines:
                reasons.append(f"{len(lines)} polylines without a CSV")
            return reasons
        finally:
            shutil.rmtree(out, ignore_errors=True)

    op.run, op.check = run, check
    return op


def trace_fan(rng, workdir):
    ops = []
    for name, count, length in TRACE_STARTS:
        spec = sf.SurfaceSpec.from_json(bundled_spec(name))
        chart = sf.ChartId.from_label("Z+")
        for u, v in _start_points(rng, spec, chart, count):
            ops.append(trace_op(name, chart.label, u, v, length, workdir))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    "sweep-random": sweep_random,
    "trace-fan": trace_fan,
}

# A fixed cheap operation per workload, run untimed during set-up.
WARMUP = {
    "sweep-random": lambda workdir: pipeline_op(
        "warmup", {"family": "ellipsoid", "a": 1.0, "b": 2.0, "c": 3.0}
    ),
    "trace-fan": lambda workdir: trace_op("sq_1112", "Z+", 0.7, 0.0, 0.2, workdir),
}


def make_round(workload, seed, workdir):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
