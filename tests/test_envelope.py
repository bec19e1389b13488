"""Specs from the edge of the tested envelope, judged by the package itself.

``data/envelope_specs.json`` holds eleven specs drawn by
``bench/envelope.py --seed 1 --specs 40``: superquadrics at k = 6 to 8 with
distinct coefficients, and perturbed ellipsoids with a < b at 0.5 to 1.1
times the critical epsilon.  A residual-minimum finder with a residual-vote
continuum probe read the first as umbilic continua and found spurious
index-0 points on the second.  Each spec must give the expected count, every
closed-form point within 1e-9 of a record and every record within 1e-9 of a
closed-form point (the a < b equatorial octet has no closed form),
isolated records only, an index sum of 2 and no index-0 record.

``GRID_SPECS`` are superquadrics of the grid (a, b, c) in {(1, 1, 1),
(1, 1, 3), (2, 1, 1), (1, 2, 3)} x k = 2..9 under the same judgement, the
nineteen that earlier finders got wrong at some point: a residual-minimum
finder, a 2-D cell scan with Newton refinement (which missed the diagonal
points of four of them, at k = 8 and 9), and spurious roots next to the flat
axis points.

``LADDER`` holds perturbed ellipsoids at eps_c (1 +- 10^-j), j in
{1, 2, 3, 4, 6, 8}, for four (a, b) pairs and the (a, b) of the two specs
one ulp above eps_c: 72 specs under the same judgement.  Six a > b specs
just above eps_c are strict expected failures (see ``NEAR_EPS_C``).

``SUPERQUADRIC_SETS`` pins the finder alone on the grid at k = 2..16 and on
a high-k set: (1, 1, 1), (1, 2, 3) and (2, 1, 1) at k = 10..16, plus twenty
superquadrics drawn with ``random.Random(7)`` (three coefficients
``10 ** uniform(0, 2)``, then ``randint(9, 16)``): the count and the
closed-form match.  ``HIGH_K_SET`` judges the high-k set in full, indices
included: every spec at k <= 12 is right, and the 14 whose flattest index
ring stays unresolved at its cap (1 of 6 specs at k = 13, 4 of 5 at
k = 14 and all 9 at k = 15 and 16) are strict expected failures.  ``HIGH_K_SPECS`` are
superquadrics at k = 11 to 14 where earlier finders reported 18 to 486
records, judged by the finder alone.
"""

import json
import random
from pathlib import Path

import pytest

from umbilics import index as ix
from umbilics import surface as sf
from umbilics import umbilic as um
from umbilics.errors import NonConvergentLift
from umbilics.surface import SurfaceSpec

from conftest import EPS_C_PLUS

SPECS = json.loads((Path(__file__).parent / "data" / "envelope_specs.json").read_text())
GRID_SPECS = [
    pytest.param({"family": "superquadric", "a": a, "b": b, "c": c, "k": k}, id=f"grid-{a}{b}{c}-k{k}")
    for a, b, c, k in (
        (1, 1, 1, 6), (1, 1, 3, 4), (1, 1, 3, 5), (2, 1, 1, 5),
        (2, 1, 1, 8), (1, 2, 3, 6), (1, 2, 3, 7), (1, 2, 3, 8),
        (1, 1, 1, 7), (1, 1, 3, 6), (1, 1, 3, 7), (1, 1, 3, 8),
        (1, 1, 3, 9), (2, 1, 1, 6), (2, 1, 1, 7),
        (1, 1, 1, 8), (1, 1, 1, 9), (2, 1, 1, 9), (1, 2, 3, 9),
    )
]


def assert_closed_form_both_ways(spec, records):
    """Every closed-form point within 1e-9 of a record, and every record
    within 1e-9 of a closed-form point but for the a < b equatorial octet
    (on z = 0), which has no closed form."""
    closed = um.closed_form_umbilics(spec)
    found = [r.ambient for r in records]
    assert um.match_distance(closed, found) < 1e-9
    octet = spec.family == sf.PERTURBED_ELLIPSOID and spec.a < spec.b
    assert um.match_distance([p for p in found if not (octet and p[2] == 0.0)], closed) < 1e-9


def assert_judged_correct(spec):
    records = um.find_umbilics(spec)
    assert len(records) == um.expected_count(spec)
    assert all(r.kind == um.ISOLATED for r in records)
    assert_closed_form_both_ways(spec, records)
    indexed = ix.attach_indices(spec, records)
    assert ix.poincare_hopf_check(spec, indexed).passed
    assert all(r.index != 0 for r in indexed)


@pytest.mark.parametrize("fields", SPECS + GRID_SPECS, ids=lambda d: "{family}-{a:.3g}-{b:.3g}".format(**d))
def test_envelope_spec_judged_correct(fields):
    assert_judged_correct(SurfaceSpec.from_json(fields))


NEAR_EPS_C = {
    6: pytest.mark.xfail(strict=True, reason=(
        "the 8 newborn points are found, but their index rings and the pole's, at their caps (radius"
        " 2.7e-4 to 4.6e-4, half the 5e-4 to 9e-4 gap between the pole and the newborn points), raise"
        " NonConvergentLift")),
    8: pytest.mark.xfail(strict=True, reason=(
        "the face function next to the newborn points lies below the rounding floor, so only the 2"
        " poles are found")),
}
LADDER = [
    pytest.param(a, b, eps_c * (1.0 + side * 10.0 ** -j),
                 id=f"pe-{a:.4g}-{b:.4g}-{'above' if side > 0 else 'below'}-1e-{j}",
                 marks=[NEAR_EPS_C[j]] if side > 0 and a > b and j in NEAR_EPS_C else [])
    for a, b in [(0.6, 0.25), (0.9, 0.3), (0.25, 0.6), (0.3, 0.9)] + [(s.a, s.b) for s in EPS_C_PLUS.values()]
    for eps_c in [um.critical_epsilon(a, b).epsilon_critical]
    for j in (1, 2, 3, 4, 6, 8)
    for side in (-1, 1)
]


@pytest.mark.parametrize("a, b, eps", LADDER)
def test_eps_c_ladder(a, b, eps):
    """Perturbed ellipsoids at eps_c (1 +- 10^-j): every spec below eps_c is
    right, and above it a < b is right down to 1 + 1e-8 and a > b down to
    1 + 1e-4.  The newborn points sit closest to each other, to their mirror
    images and to the pole or the equator here."""
    assert_judged_correct(SurfaceSpec.perturbed_ellipsoid(a, b, eps))


HIGH_K_SPECS = [
    (1, 2, 3, 11), (1, 2, 3, 12), (1, 2, 3, 13), (1, 1, 1, 11), (2, 1, 1, 11),
    (3, 20, 50, 12), (3, 20, 50, 14),
    (1, 1, 1, 12), (1, 1, 1, 13), (2, 1, 1, 12), (2, 1, 1, 13), (1, 1, 3, 12), (1, 1, 3, 13),
]


@pytest.mark.parametrize("a, b, c, k", HIGH_K_SPECS)
def test_high_k_finder_isolated_closed_form(a, b, c, k):
    spec = SurfaceSpec.from_json({"family": "superquadric", "a": a, "b": b, "c": c, "k": k})
    records = um.find_umbilics(spec)
    assert len(records) == 14
    assert all(r.kind == um.ISOLATED for r in records)
    closed = um.closed_form_umbilics(spec)
    found = [r.ambient for r in records]
    assert um.match_distance(closed, found) < 1e-7
    assert um.match_distance(found, closed) < 1e-7


_HIGH_K_RNG = random.Random(7)
SUPERQUADRIC_SETS = [
    pytest.param(a, b, c, k, id=f"grid-{a}{b}{c}-k{k}")
    for a, b, c in ((1, 1, 1), (1, 1, 3), (2, 1, 1), (1, 2, 3)) for k in range(2, 17)
] + [
    pytest.param(a, b, c, k, id=f"high-k-{a}{b}{c}-k{k}")
    for a, b, c in ((1, 1, 1), (1, 2, 3), (2, 1, 1)) for k in range(10, 17)
] + [
    pytest.param(*coefs, k, id=f"high-k-random{i}")
    for i in range(20)
    for coefs in [[10.0 ** _HIGH_K_RNG.uniform(0.0, 2.0) for _ in range(3)]]
    for k in [_HIGH_K_RNG.randint(9, 16)]
]


@pytest.mark.parametrize("a, b, c, k", SUPERQUADRIC_SETS)
def test_superquadric_sets_finder_only(a, b, c, k):
    """The 14 closed-form points, both ways within 1e-9, on the grid at
    k = 2..16 and the high-k set: the finder solves the strata, so no cell
    size or Newton basin limits it."""
    spec = SurfaceSpec.superquadric(a, b, c, k)
    records = um.find_umbilics(spec)
    assert len(records) == 14
    assert all(r.kind == um.ISOLATED for r in records)
    assert_closed_form_both_ways(spec, records)


UNRESOLVED_AT_CAP = pytest.mark.xfail(strict=True, raises=NonConvergentLift, reason=(
    "the line angle's step next to a flat axis point is narrower than the ring's bisection floor"
    " (ROADMAP item 4), so the ring stays unresolved at its cap"))
HIGH_K_SET = [
    pytest.param(*p.values, id=p.id, marks=[UNRESOLVED_AT_CAP] if p.id in {
        "high-k-111-k15", "high-k-111-k16", "high-k-123-k14", "high-k-123-k15", "high-k-123-k16",
        "high-k-211-k14", "high-k-211-k15", "high-k-211-k16", "high-k-random4", "high-k-random9",
        "high-k-random11", "high-k-random15", "high-k-random16", "high-k-random18",
    } else [])
    for p in SUPERQUADRIC_SETS if p.id.startswith("high-k")
]


@pytest.mark.parametrize("a, b, c, k", HIGH_K_SET)
def test_high_k_set_judged_correct(a, b, c, k):
    """The high-k set, indices included: every ring is lifted once, at its
    cap (halved only while it leaves its chart), and an unresolved ring
    fails."""
    assert_judged_correct(SurfaceSpec.superquadric(a, b, c, k))
