"""Failure envelope: seeded specs from the whole documented domain, checked.

    python3 bench/envelope.py --seed 1 --specs 40

Draws specs in turn from four classes (superquadric k in 2..8 with
coefficients log-uniform in [1, 100]; perturbed ellipsoids with a, b
uniform in [0.1, 1] at epsilon / epsilon_c log-uniform in [1/4, 4], a > b
and a < b; ellipsoids with coefficients log-uniform in [0.1, 10]), runs each
through find, index and index sum, and checks it with ``checker.py``.
Unlike the timed workloads this includes the regions where the package is
known to be wrong, so it reports the failure fraction and every failing
spec.  Prints one JSON document.
"""

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import workloads as wl  # noqa: E402


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _perturbed(rng, a_greater):
    a, b = sorted((rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)), reverse=a_greater)
    ratio = _log_uniform(rng, 0.25, 4.0)
    eps = ratio * checker.critical_epsilon(a, b)
    return {"family": "perturbed_ellipsoid", "a": a, "b": b, "epsilon": eps}, {"eps_ratio": ratio}


CLASSES = (
    ("superquadric", lambda rng: (
        {"family": "superquadric", "a": _log_uniform(rng, 1, 100), "b": _log_uniform(rng, 1, 100),
         "c": _log_uniform(rng, 1, 100), "k": rng.randint(2, 8)}, {})),
    ("perturbed a>b", lambda rng: _perturbed(rng, True)),
    ("perturbed a<b", lambda rng: _perturbed(rng, False)),
    ("ellipsoid", lambda rng: (
        {"family": "ellipsoid", "a": _log_uniform(rng, 0.1, 10), "b": _log_uniform(rng, 0.1, 10),
         "c": _log_uniform(rng, 0.1, 10)}, {})),
)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--specs", type=int, default=40)
    args = p.parse_args()
    rng = random.Random(f"envelope:{args.seed}")
    rows = []
    for i in range(args.specs):
        cls, draw = CLASSES[i % len(CLASSES)]
        spec, extra = draw(rng)
        op = wl.pipeline_op(cls, spec)
        t0 = time.perf_counter()
        try:
            reasons = op.check(op.run())
        except Exception as exc:  # noqa: BLE001 - a failing spec is data here
            reasons = [f"raised {type(exc).__name__}: {exc}"]
        rows.append({"class": cls, "spec": spec, **extra,
                     "seconds": round(time.perf_counter() - t0, 3), "reasons": reasons})
        print(f"{i:3d} {cls:14s} {'FAIL' if reasons else 'ok  '} {reasons[:1]}", file=sys.stderr)
    by_class = {}
    for r in rows:
        c = by_class.setdefault(r["class"], {"specs": 0, "failed": 0})
        c["specs"] += 1
        c["failed"] += bool(r["reasons"])
    failed = [r for r in rows if r["reasons"]]
    print(json.dumps({
        "seed": args.seed,
        "specs": len(rows),
        "fail_frac": len(failed) / len(rows),
        "by_class": by_class,
        "failing": failed,
    }, indent=1))


if __name__ == "__main__":
    main()
