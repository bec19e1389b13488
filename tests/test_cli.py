"""CLI subcommands, exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from umbilics import cli
from umbilics import umbilic as um
from umbilics.errors import SpecError
from umbilics.surface import ChartId, ChartPoint, SurfaceSpec, chart_to_ambient

from conftest import EPS_C_PLUS, PE_LT, SQ_1112

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_forms_at_pole(capsys):
    code, out, _ = run(capsys, "forms", "--spec", "sq_1112", "--at", "0,0", "--chart", "Z+")
    assert code == 0
    doc = json.loads(out)
    pt = doc["point"]
    assert pt["E"] == 1 and pt["G"] == 1
    assert pt["e"] == 0 and pt["f"] == 0 and pt["g"] == 0
    assert pt["xyz"] == [0, 0, 1]


def test_forms_numeric_flag(capsys):
    code, out, _ = run(
        capsys, "forms", "--spec", "pe_lt", "--at", "0.1,0.2", "--chart", "Y+", "--numeric"
    )
    assert code == 0
    doc = json.loads(out)
    pt = doc["point"]
    for key in ("E", "F", "G", "e", "f", "g"):
        assert abs(pt[key] - pt["numeric"][key]) <= max(1e-6 * abs(pt[key]), 1e-9)


def test_forms_invalid_point(capsys):
    code, _, err = run(capsys, "forms", "--spec", "sq_1112", "--at", "2,0", "--chart", "Z+")
    assert code == 1
    assert "radicand" in err


def test_forms_convexity(capsys):
    code, out, _ = run(capsys, "forms", "--spec", "pe_gt", "--convexity", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc["convexity"]["pass"] is True
    assert doc["convexity"]["min_K"] > 0


def test_umbilics_compare_closed_form(capsys):
    code, out, _ = run(capsys, "umbilics", "--spec", "sq_1112", "--compare-closed-form")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 14
    assert doc["closed_form"]["pass"] is True
    assert doc["closed_form"]["directed_hausdorff"] < 1e-7
    kinds = {u["kind"] for u in doc["umbilics"]}
    assert kinds == {"isolated"}


def test_umbilics_threshold_report(capsys):
    code, out, _ = run(capsys, "umbilics", "--spec", "pe_gt_eps_hi", "--threshold")
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"]["epsilon_critical"] == 0.0625
    assert doc["threshold"]["regime"] == "a_greater_b"
    assert doc["count"] == 10


def test_umbilics_sphere_warning(capsys, tmp_path):
    spec = tmp_path / "sphere.json"
    spec.write_text(
        '{"family": "perturbed_ellipsoid", "a": 1.0, "b": 1.0, "epsilon": 0.0}'
    )
    code, out, err = run(capsys, "umbilics", "--spec", str(spec))
    assert code == 0
    assert "non-isolated" in err
    doc = json.loads(out)
    assert doc["umbilics"][0]["kind"] == "non_isolated"


def test_bad_spec_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "superquadric", "a": 1.0}')
    code, _, err = run(capsys, "umbilics", "--spec", str(bad))
    assert code == 1
    assert "bad fields" in err


def test_unknown_bundled_name(capsys):
    code, _, err = run(capsys, "verify", "--spec", "nonexistent_surface")
    assert code == 1
    assert "bundled" in err


def test_trace_outputs(capsys, tmp_path):
    svg = tmp_path / "portrait.svg"
    code, _, _ = run(
        capsys, "trace", "--spec", "sq_1112", "--start", "0.7,0", "--branch", "both",
        "--len", "2", "--svg", str(svg), "--out", str(tmp_path),
    )
    assert code == 0
    csvs = sorted(tmp_path.glob("trace_*.csv"))
    assert len(csvs) == 2
    header = csvs[0].read_text().splitlines()[0]
    assert header == "arclength,u,v,x,y,z,residual"
    tree = ET.parse(svg)  # must be valid XML
    polylines = tree.getroot().findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2


def test_trace_residual_plot(capsys, tmp_path):
    rp = tmp_path / "residuals.svg"
    code, _, _ = run(
        capsys, "trace", "--spec", "sq_1112", "--start", "0.8,0.4", "--branch", "0",
        "--len", "1", "--residual-plot", str(rp), "--out", str(tmp_path),
    )
    assert code == 0
    assert ET.parse(rp).getroot().tag == f"{SVG_NS}svg"


def test_trace_portrait(capsys, tmp_path):
    svg = tmp_path / "fan.svg"
    code, _, _ = run(
        capsys, "trace", "--spec", "pe_lt", "--portrait", "diag", "--len", "1.5",
        "--svg", str(svg), "--out", str(tmp_path),
    )
    assert code == 0
    tree = ET.parse(svg)
    assert len(tree.getroot().findall(f".//{SVG_NS}polyline")) > 4
    assert len(tree.getroot().findall(f".//{SVG_NS}circle")) > 0


def test_trace_from_umbilic_rejected(capsys, tmp_path):
    spec = tmp_path / "sphere.json"
    spec.write_text(
        '{"family": "perturbed_ellipsoid", "a": 1.0, "b": 1.0, "epsilon": 0.0}'
    )
    code, _, err = run(
        capsys, "trace", "--spec", str(spec), "--start", "0.1,0", "--out", str(tmp_path)
    )
    assert code == 1
    assert "umbilic" in err


def test_verify_superquadric_distinct_k3(capsys, tmp_path):
    """Distinct coefficients at k = 3, where the diagonal closed form is
    tested against the found points (it differs from k = 2's there)."""
    path = tmp_path / "sq_123_k3.json"
    path.write_text(json.dumps({"family": "superquadric", "a": 1, "b": 2, "c": 3, "k": 3}))
    code, out, _ = run(capsys, "verify", "--spec", str(path))
    assert code == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    agree = next(c for c in doc["checks"] if c["name"] == "closed_form_agreement")
    assert agree["directed_hausdorff"] < 1e-12


def test_verify_superquadric(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "--spec", "sq_1112", "--out", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "convexity",
        "umbilic_count",
        "closed_form_agreement",
        "index_sum",
        "index_assignment_note",
    ]
    count = next(c for c in doc["checks"] if c["name"] == "umbilic_count")
    assert count["found"] == 14
    ph = next(c for c in doc["checks"] if c["name"] == "index_sum")
    assert ph["sum"] == 2
    note = next(c for c in doc["checks"] if c["name"] == "index_assignment_note")
    assert note["claimed_axis_minus_half_diag_one"] is False
    assert (tmp_path / "verify.json").read_text() == out


def test_verify_perturbed(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "pe_gt")
    assert code == 0
    doc = json.loads(out)
    ph = next(c for c in doc["checks"] if c["name"] == "index_sum")
    assert sorted(map(tuple, ph["multiset"])) == [(-1.0, 2), (0.5, 8)]
    thr = next(c for c in doc["checks"] if c["name"] == "threshold")
    assert thr["side"] == "above"


@pytest.mark.parametrize("regime", sorted(EPS_C_PLUS))
def test_verify_just_above_critical_epsilon(capsys, tmp_path, regime):
    spec = EPS_C_PLUS[regime]
    assert spec.epsilon > um.critical_epsilon(spec.a, spec.b).epsilon_critical
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run(capsys, "verify", "--spec", str(path))
    assert code in (0, 2)
    doc = json.loads(out)
    assert out == cli.canonical_json(doc)
    agree = next(c for c in doc["checks"] if c["name"] == "closed_form_agreement")
    assert agree["closed_count"] == 10


def test_verify_overflowing_first_form_is_quiet(capsys, tmp_path):
    """pe(1, 1e-200, 0.1): E G - F^2 overflows on the Z charts, yet verify
    judges their samples and prints nothing to stderr."""
    path = tmp_path / "pe_flat.json"
    path.write_text(json.dumps(SurfaceSpec.perturbed_ellipsoid(1.0, 1e-200, 0.1).to_json()))
    code, out, err = run(capsys, "verify", "--spec", str(path))
    assert (code, err) == (0, "")
    [check] = [c for c in json.loads(out)["checks"] if c["name"] == "convexity"]
    assert check["pass"] and check["min_K"] > 0.0


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--spec", "ellipsoid_123", "--seed", "42")
    _, out2, _ = run(capsys, "verify", "--spec", "ellipsoid_123", "--seed", "42")
    assert out1 == out2


def test_verify_sphere_continuum(capsys, tmp_path):
    spec = tmp_path / "sphere.json"
    spec.write_text(
        '{"family": "perturbed_ellipsoid", "a": 1.0, "b": 1.0, "epsilon": 0.0}'
    )
    code, out, _ = run(capsys, "verify", "--spec", str(spec))
    assert code == 0
    doc = json.loads(out)
    count = next(c for c in doc["checks"] if c["name"] == "umbilic_count")
    assert count["non_isolated"] is True and count["pass"] is True
    ph = next(c for c in doc["checks"] if c["name"] == "index_sum")
    assert "skipped" in ph


def test_canonical_json_format():
    text = cli.canonical_json({"b": 0.1, "a": [1.5, 2, True, None], "c": "x"})
    assert text == '{"a": [1.5, 2, true, null], "b": 0.10000000000000001, "c": "x"}\n'
    with pytest.raises(ValueError):
        cli.canonical_json({"bad": float("nan")})


def test_threshold_wrong_family(capsys):
    code, _, err = run(capsys, "umbilics", "--spec", "sq_1112", "--threshold")
    assert code == 1
    assert "perturbed" in err


def test_threshold_near_critical_warns(capsys, tmp_path):
    # epsilon pinned to the critical value 0.0625 for a=1/2, b=1/5
    spec = tmp_path / "critical.json"
    spec.write_text(
        '{"family": "perturbed_ellipsoid", "a": 0.5, "b": 0.2, "epsilon": 0.0625}'
    )
    code, _, err = run(capsys, "umbilics", "--spec", str(spec), "--threshold")
    assert code == 0
    assert "critical" in err and "no claim" in err


def test_portrait_by_record_index(capsys, tmp_path):
    svg = tmp_path / "p.svg"
    code, _, _ = run(
        capsys, "trace", "--spec", "ellipsoid_123", "--portrait", "0",
        "--len", "1", "--svg", str(svg), "--out", str(tmp_path),
        "--portrait-starts", "6",
    )
    assert code == 0
    assert svg.exists()


@pytest.mark.parametrize(
    "spec, name, expected",
    [
        (SQ_1112, "pole", (0.0, 0.0, -1.0)),
        (SQ_1112, "axis", (-1.0, 0.0, 0.0)),
        (SQ_1112, "equator", None),
        (SQ_1112, "14", None),
        (SQ_1112, "nothing", None),
        (PE_LT, "equator", "z = 0"),
    ],
    ids=["pole", "axis", "no_equator", "index_out_of_range", "no_match", "pe_lt_equator"],
)
def test_select_umbilic(results, spec, name, expected):
    """Each portrait name picks the first record on its stratum; a name or
    index that picks nothing is a SpecError."""
    records = results.records(spec)
    if expected is None:
        with pytest.raises(SpecError):
            cli._select_umbilic(records, name)
        return
    x, y, z = cli._select_umbilic(records, name).ambient
    if expected == "z = 0":
        assert z == 0.0 and x != 0.0 and y != 0.0
    else:
        assert (x, y, z) == expected


# Spec files for the exit-code contract.  huge_b and tiny_a give a check
# value that is NaN or infinite, written as null: eps_c overflows, and on
# tiny_a min K is NaN and the finder finds no point (match distance inf).
# On the near-spheroid the finder finds the 4 points, 2.1e-8 off the z
# axis, but their index rings stay unresolved.
CONTRACT_SPECS = {
    "near_spheroid": {"family": "ellipsoid", "a": 1, "b": 1.0000000000000002, "c": 2},
    "huge_b": {"family": "perturbed_ellipsoid", "a": 1, "b": 1e200, "epsilon": 0.1},
    "tiny_a": {"family": "ellipsoid", "a": 1e-300, "b": 1, "c": 2},
    "flat": SurfaceSpec.perturbed_ellipsoid(1.0, 1e-200, 0.1).to_json(),
    "bool_field": {"family": "ellipsoid", "a": True, "b": 2, "c": 3},
    "list_family": {"family": ["superquadric"], "a": 1, "b": 1, "c": 1, "k": 2},
    "huge_k": {"family": "superquadric", "a": 1, "b": 1, "c": 1, "k": 1e200},
}


def _null_keys(doc):
    """The keys whose value is null, anywhere in a JSON document."""
    if isinstance(doc, dict):
        return {k for k, v in doc.items() if v is None} | {k for v in doc.values() for k in _null_keys(v)}
    if isinstance(doc, list):
        return {k for v in doc for k in _null_keys(v)}
    return set()


CONTRACT = [
    ("near_spheroid", ["verify"], 2, set()),
    ("near_spheroid", ["umbilics", "--compare-closed-form"], 0, set()),
    ("huge_b", ["verify"], 0, {"epsilon_critical"}),
    ("huge_b", ["umbilics", "--threshold"], 0, {"epsilon_critical"}),
    # Kernel overflow RuntimeWarnings, which pytest makes errors: run apart.
    ("tiny_a", ["verify"], 2, {"min_K", "directed_hausdorff"}),
    ("tiny_a", ["forms", "--convexity", "1000"], 2, {"min_K"}),
    ("flat", ["forms", "--at", "0.5,0.5", "--chart", "Z+"], 1, set()),
    ("flat", ["forms", "--at", "0.1,0.1", "--chart", "Z+"], 1, set()),
    ("flat", ["forms", "--at", "0.3,0.2", "--chart", "Z+"], 1, set()),     # E G - F^2 is NaN
    ("flat", ["forms", "--at", "0.5,1e-90", "--chart", "Z+"], 1, set()),   # E G - F^2 is 0
    ("flat", ["trace", "--start", "0.5,0", "--chart", "Z+", "--len", "0.01"], 0, set()),
    ("bool_field", ["verify"], 1, set()),
    ("list_family", ["verify"], 1, set()),
    ("huge_k", ["verify"], 1, set()),
]


@pytest.mark.parametrize("spec, argv, code, nulls", CONTRACT,
                         ids=[f"{spec}-{' '.join(argv)}" for spec, argv, _, _ in CONTRACT])
def test_exit_code_contract(capsys, tmp_path, spec, argv, code, nulls):
    """No exception escapes the CLI: each command gives its exit code, an
    error line where it exits 1, and canonical JSON wherever it writes to
    stdout, with each NaN or infinite check value as null."""
    path = tmp_path / f"{spec}.json"
    path.write_text(json.dumps(CONTRACT_SPECS[spec]))
    argv = [argv[0], "--spec", str(path), *argv[1:], "--out", str(tmp_path / "out")]
    if spec == "tiny_a":
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "umbilics", *argv], capture_output=True, text=True,
                              env=env, timeout=300)
        got, out, err = proc.returncode, proc.stdout, proc.stderr
        assert "Traceback" not in err
    else:
        got, out, err = run(capsys, *argv)
    assert got == code
    assert ("error:" in err) == (code == 1)
    if out:
        doc = json.loads(out)
        assert out == cli.canonical_json(doc)
        assert _null_keys(doc) == nulls


def test_main_repeats_in_one_process(capsys, tmp_path):
    """Every cli.main call of a process shares one parser, and a command's
    result does not depend on what ran before it: ``trace --branch 0``
    after a default ``trace`` and ``verify`` after ``forms --convexity``
    give the exit code, output and files of their first calls."""
    assert cli.build_parser() is cli.build_parser()
    trace = ["trace", "--spec", "sq_1112", "--start", "0.7,0", "--len", "0.2"]
    commands = {
        "trace": trace,
        "trace b0": [*trace, "--branch", "0"],
        "forms": ["forms", "--spec", "sq_1112", "--convexity", "200"],
        "verify": ["verify", "--spec", "sq_1112"],
    }

    def result(name):
        out = tmp_path / name
        code, text, err = run(capsys, *commands[name], "--out", str(out))
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        return code, text, err, files

    first = {name: result(name) for name in ("trace b0", "trace", "verify", "forms")}
    assert [name[-6:] for name in first["trace b0"][3]] == ["b0.csv"]
    for name in ("trace", "trace b0", "forms", "verify", "trace b0"):
        assert result(name) == first[name], name


def test_near_spheroid_found_ring_unresolved(capsys, tmp_path):
    """On ellipsoid(1, 1 + 2^-52, 2) verify finds the 4 umbilics at their
    closed-form places and fails only at the index, on a ring that the
    line field does not resolve."""
    path = tmp_path / "near_spheroid.json"
    path.write_text(json.dumps(CONTRACT_SPECS["near_spheroid"]))
    code, out, _ = run(capsys, "verify", "--spec", str(path), "--out", str(tmp_path / "out"))
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 2
    assert (checks["umbilic_count"]["found"], checks["closed_form_agreement"]["directed_hausdorff"]) == (4, 0)
    assert [name for name, c in checks.items() if not c["pass"]] == ["index_sum"]
    assert "unresolved" in checks["index_sum"]["error"]


def test_usage_error_exit_code(capsys):
    assert cli.main(["umbilics"]) == 1          # missing required --spec
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["forms", "--spec", "sq_1112", "--convexity", "-5"],
        ["forms", "--spec", "sq_1112", "--convexity", "10", "--seed", "-1"],
        ["verify", "--spec", "sq_1112", "--seed", "-1"],
        ["trace", "--spec", "sq_1112", "--start", "0.7,0", "--len", "nan"],
        ["trace", "--spec", "sq_1112", "--start", "0.7,0", "--len", "-1"],
        ["trace", "--spec", "sq_1112", "--start", "0.7,0", "--tol-res", "0"],
        ["trace", "--spec", "ellipsoid_123", "--portrait", "0", "--portrait-starts", "-3"],
        ["trace", "--spec", "ellipsoid_123", "--portrait", "0", "--portrait-radius", "nan"],
    ],
    ids=lambda argv: " ".join(argv[3:]),
)
def test_out_of_range_numbers_rejected(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 1
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert argv[-2] in line


@pytest.mark.parametrize(
    "argv",
    [
        ["umbilics", "--spec", "sq_1112", "--grid-n", "-5"],
        ["umbilics", "--spec", "sq_1112", "--grid-n", "0"],
        ["umbilics", "--spec", "sq_1112", "--tol-find", "nan"],
        ["umbilics", "--spec", "sq_1112", "--tol-find", "-1"],
        ["umbilics", "--spec", "sq_1112", "--seed", "1"],
        ["trace", "--spec", "sq_1112", "--start", "0.7,0", "--seed", "1"],
    ],
    ids=lambda argv: " ".join(argv[3:]),
)
def test_finder_flags_unrecognized(capsys, tmp_path, argv):
    """The seed grid and the residual tolerance are fixed; neither is a flag.
    Only forms and verify sample (the convexity scan), so only they take
    --seed."""
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 1
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert "unrecognized arguments" in line and argv[-2] in line


def test_bundled_spec_names():
    names = cli.bundled_spec_names()
    assert "sq_1112" in names and "pe_lt" in names and "ellipsoid_123" in names


def test_verify_fails_on_index_zero_umbilic(capsys, tmp_path, monkeypatch):
    """A non-umbilic point reported as an isolated umbilic has index 0; the
    sum stays 2, so only the index-0 rule catches it."""
    spec = SurfaceSpec.ellipsoid(1.0, 1.0, 2.0)
    path = tmp_path / "spheroid.json"
    path.write_text(json.dumps(spec.to_json()))
    chart = ChartId.from_label("X+")
    find = um.find_umbilics

    def find_with_extra(spec):
        xyz = tuple(float(c) for c in chart_to_ambient(spec, ChartPoint(chart, 0.0, 0.0)))
        return find(spec) + [um.UmbilicRecord(xyz, chart, (0.0, 0.0), 0.0)]

    monkeypatch.setattr(um, "find_umbilics", find_with_extra)
    code, out, err = run(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert "FAIL: index_sum" in err
    doc = json.loads(out)
    [check] = [c for c in doc["checks"] if c["name"] == "index_sum"]
    assert check["sum"] == 2.0 and [0.0, 1] in check["multiset"]


def test_verify_passes_on_flat_equal_superquadric(capsys, tmp_path):
    """sq(1, 1, 1, k = 15) has very flat axis points, where the line angle
    on the index ring steps by about pi/2 across a window narrower than 37
    bisection levels of it reached; counting the sign changes of beta needs
    no resolution in angle, so verify passes with the superquadric
    multiset."""
    spec = SurfaceSpec.superquadric(1, 1, 1, 15)
    path = tmp_path / "sq_k15.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run(capsys, "verify", "--spec", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"]
    [check] = [c for c in doc["checks"] if c["name"] == "index_sum"]
    assert check["pass"] and check["multiset"] == [[-0.5, 8], [1.0, 6]]


def test_verify_fails_on_unresolved_ring(capsys, tmp_path):
    """pe(0.6, 0.25) at eps_c (1 + 1e-8) lies past the envelope: the finder
    gives its 10 points, but on their index rings B stays within the
    rounding floor of its scale, so the rings are unresolved.  verify must
    not pass, and no continuum record may hide the failure.  The unresolved
    ring is a failed index_sum check, reported in the JSON, and the only
    failed check."""
    eps = um.critical_epsilon(0.6, 0.25).epsilon_critical * (1.0 + 1e-8)
    spec = SurfaceSpec.perturbed_ellipsoid(0.6, 0.25, eps)
    path = tmp_path / "pe_near_eps_c.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run(capsys, "verify", "--spec", str(path))
    assert code == 2
    doc = json.loads(out)
    assert not doc["pass"]
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["index_sum"]
    [check] = [c for c in doc["checks"] if c["name"] == "index_sum"]
    assert "unresolved" in check["error"]
    assert all(r.kind == um.ISOLATED for r in um.find_umbilics(spec))
