"""Scenario loading, the run pipeline, and the command line surface."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_bounds.cli import main
from spectral_bounds.domains import QuadratureGrid
from spectral_bounds.scenario import (ScenarioError, emit, load_scenario,
                                      run_scenario, scenario_from_dict)

GOLDEN = Path(__file__).parent / "golden"

BASE = {
    "label": "square",
    "domain": {"type": "box", "sides": [1.0, 1.0]},
    "spectrum": {"source": "exact-rectangle", "count": 40},
    "bounds": [{"kind": "kroger-avg", "k": [1, 5, 10]}],
    "seed": 0,
}


def write(tmp_path, data, name="scn.json"):
    p = tmp_path / name
    p.write_text(data if isinstance(data, str) else json.dumps(data))
    return p


def scenario_with(tmp_path, **overrides):
    data = dict(BASE)
    data.update(overrides)
    return write(tmp_path, data)


def test_load_minimal_defaults(tmp_path):
    p = write(tmp_path, {"domain": {"type": "box", "sides": [1, 2]}},
              name="tiny.json")
    s = load_scenario(p)
    assert s.label == "tiny"
    assert s.grid_n == (64, 64)
    assert s.source == "fd"
    assert s.count == 16
    assert s.seed == 0
    assert s.bounds == ()
    assert re.fullmatch(r"[0-9a-f]{12}", s.digest())


BAD_CASES = [
    ("this is not json", "invalid JSON"),
    ([1, 2, 3], "must be an object"),
    ({}, "domain"),
    ({"domain": {"type": "pentagon"}}, "domain.type"),
    ({"domain": {"type": "box"}}, "domain.sides"),
    ({"domain": {"type": "torus", "e1": [1, 0]}}, "domain.e2"),
    ({**BASE, "grid": {"n": 1}}, "grid.n"),
    ({**BASE, "grid": {"n": "many"}}, "grid.n"),
    ({**BASE, "fields": {"w": "1 +"}}, "fields"),
    ({**BASE, "fields": {"V": "1.2.3"}},
     r"fields: unexpected token '\.3' \(at position 3\)"),
    ({**BASE, "fields": {"V": "1e400*x"}},
     r"fields: number 1e400 is not finite \(at position 0\)"),
    ({**BASE, "fields": {"V": "x^(1/0)"}},
     r"fields: exponent denominator is zero \(at position 5\)"),
    ({**BASE, "domain": {"type": "masked_box", "sides": [1, 1],
                         "inside": "("}},
     r"domain\.inside: unexpected end of expression \(at position 1\)"),
    ({**BASE, "spectrum": {"source": "tarot"}}, "spectrum.source"),
    ({**BASE, "spectrum": {"source": "fd", "count": 0}}, "spectrum.count"),
    ({**BASE, "spectrum": {"source": "fd", "method": "magic"}},
     "spectrum.method"),
    ({**BASE, "bounds": ["kroger-avg"]}, r"bounds\[0\]"),
    ({**BASE, "bounds": [{"kind": "bogus", "k": [1]}]}, r"bounds\[0\].kind"),
    ({**BASE, "bounds": [{"kind": "kroger-avg", "k": []}]}, "empty"),
    ({**BASE, "bounds": [{"kind": "kroger-avg"}]}, r"bounds\[0\].k"),
    ({**BASE, "seed": "zero"}, "seed"),
    ({**BASE, "fields": {"v": "1000"}}, r"fields\.v: unknown field"),
    ({**BASE, "bounds": [{"kind": "kroger-avg", "k": [1], "H_omega": 5}]},
     r"bounds\[0\]\.H_omega: kroger-avg reads no such key"),
    ({**BASE, "bounds": [{"kind": "general-sum", "k": [1], "H_omgea": 5}]},
     r"bounds\[0\]\.H_omgea"),
    ({**BASE, "bounds": [{"kind": "general-sum", "k": [1], "H_omega": "5"}]},
     r"bounds\[0\]\.H_omega: expected a number"),
    ({**BASE, "bounds": [{"kind": "phase-space-sum", "k": [1],
                          "grid_n": True}]},
     r"bounds\[0\]\.grid_n: expected a number"),
    ({**BASE, "bounds": [{"kind": "phase-space-sum", "k": [1],
                          "lam_max": 50}]},
     r"bounds\[0\]\.lam_max: phase-space-sum reads no such key"),
    # k and grid resolutions are integers: none is truncated or run
    ({**BASE, "bounds": [{"kind": "kroger-avg", "k": [2.5]}]},
     r"bounds\[0\]\.k: expected integers in \[1, 2097152\], got 2\.5"),
    ({**BASE, "bounds": [{"kind": "general-sum", "k": [3, 0]}]},
     r"bounds\[0\]\.k: expected integers in \[1, 2097152\], got 0"),
    ({**BASE, "bounds": [{"kind": "phase-space-sum", "k": [1e300]}]},
     r"bounds\[0\]\.k: expected integers in \[1, 2097152\], got 1e\+300"),
    ({**BASE, "bounds": [{"kind": "phase-space-sum", "k": [2],
                          "grid_n": 64.9}]},
     r"bounds\[0\]\.grid_n: expected an integer >= 2, got 64\.9"),
    ({**BASE, "bounds": [{"kind": "phase-space-sum", "k": [2],
                          "grid_n": 1}]},
     r"bounds\[0\]\.grid_n: expected an integer >= 2, got 1"),
    ({**BASE, "grid": {"n": [64.9, 64]}}, r"grid\.n: expected integers"),
    ({**BASE, "sed": 5}, r"\$\.sed: a scenario reads no such key"),
    ({**BASE, "grid": {"N": 8}}, r"grid\.N: grid reads no such key"),
    ({**BASE, "domain": {"type": "disk", "radius": 1.0,
                         "centre": [0.0, 0.0]}},
     r"domain\.centre: disk reads no such key"),
    ({**BASE, "domain": {"type": "box", "sides": [1, 1], "radius": 1}},
     r"domain\.radius: box reads no such key"),
    ({**BASE, "spectrum": {"source": "fd", "metod": "dense",
                           "tolerence": 1e-30}},
     r"spectrum\.metod: fd reads no such key"),
    ({**BASE, "spectrum": {"source": "exact-rectangle", "count": 40,
                           "tolerance": 1e-9}},
     r"spectrum\.tolerance: exact-rectangle reads no such key"),
    ({**BASE, "spectrum": {"source": "exact-sphere", "nu": 2, "l_max": 4,
                           "count": 9}},
     r"spectrum\.count: exact-sphere reads no such key"),
    # a source on a domain it does not accept, refused before any grid
    ({**BASE, "domain": {"type": "disk", "radius": 1.0}},
     r"spectrum\.source: exact-rectangle needs a 2-D box domain"),
    ({**BASE, "domain": {"type": "box", "sides": [1, 1, 1]}},
     r"spectrum\.source: exact-rectangle needs a 2-D box domain"),
    ({**BASE, "spectrum": {"source": "exact-torus", "count": 9}},
     r"spectrum\.source: exact-torus needs a 2-D torus domain"),
    ({**BASE, "spectrum": {"source": "exact-sphere", "nu": 2}},
     r"spectrum\.l_max: missing required field"),
    ({**BASE, "spectrum": {"source": "exact-sphere", "l_max": 4}},
     r"spectrum\.nu: missing required field"),
    ({**BASE, "spectrum": {"source": "exact-sphere", "nu": 1, "l_max": 4}},
     r"spectrum\.nu: must be >= 2, got 1"),
    ({**BASE, "spectrum": {"source": "exact-sphere", "nu": 2, "l_max": -1}},
     r"spectrum\.l_max: must be >= 0, got -1"),
    # an exact source shifts the Laplacian values, which is the operator's
    # spectrum only for constant fields; a linear rho changes the Neumann
    # condition (fd n=40 gives 0, 9.86, 10.11 for rho = 0.5 x on the unit
    # square, the shift 0.25, 10.12, 10.12)
    ({**BASE, "fields": {"w": "1 + 0.9*x*y", "V": "30*x"}},
     r"fields\.w: exact-rectangle holds only for constant fields, "
     r"got w = '1\+0\.9\*x1\*x2'"),
    ({**BASE, "fields": {"V": "30*x"}},
     r"fields\.V: exact-rectangle holds only for constant fields"),
    ({**BASE, "fields": {"rho": "0.5*x"}},
     r"fields\.rho: exact-rectangle holds only for constant fields"),
    ({**BASE, "fields": {"rho": "x*x"}},
     r"fields\.rho: exact-rectangle holds only for constant fields"),
    # its derivative folds to zero, but rho still jumps at x = 0.5
    ({**BASE, "fields": {"rho": "step(x - 0.5)"}},
     r"fields\.rho: exact-rectangle holds only for constant fields"),
    ({**BASE, "domain": {"type": "torus", "e1": [1, 0], "e2": [0, 1]},
      "spectrum": {"source": "exact-torus"}, "fields": {"V": "sin(x)"}},
     r"fields\.V: exact-torus holds only for constant fields"),
    ({**BASE, "spectrum": {"source": "exact-sphere", "nu": 2, "l_max": 4},
      "fields": {"w": "2 + y"}},
     r"fields\.w: exact-sphere holds only for constant fields"),
    # the label names the output files, which must stay inside --out
    ({**BASE, "label": ""}, r"\$\.label: '' is not a plain file name"),
    ({**BASE, "label": "."}, r"\$\.label: '\.' is not a plain file name"),
    ({**BASE, "label": ".."}, r"\$\.label: '\.\.' is not a plain file name"),
    ({**BASE, "label": "sub/x"}, r"\$\.label: 'sub/x' is not a plain"),
    ({**BASE, "label": "../escaped"},
     r"\$\.label: '\.\./escaped' is not a plain"),
    ({**BASE, "label": "back\\slash"},
     r"\$\.label: 'back\\\\slash' is not a plain"),
]


@pytest.mark.parametrize("content,match", BAD_CASES,
                         ids=[m for _, m in BAD_CASES])
def test_load_rejects_bad_documents(tmp_path, content, match):
    p = write(tmp_path, content if isinstance(content, str)
              else json.dumps(content))
    with pytest.raises(ScenarioError, match=match):
        load_scenario(p)


def test_load_checks_fd_count_covers_requests(tmp_path):
    p = scenario_with(
        tmp_path,
        spectrum={"source": "fd", "count": 16},
        bounds=[{"kind": "individual-sk", "k": [16]}])
    with pytest.raises(ScenarioError, match="needs 17"):
        load_scenario(p)


def test_exact_rectangle_requires_box(tmp_path):
    p = scenario_with(tmp_path, domain={"type": "disk", "radius": 1.0})
    with pytest.raises(ScenarioError, match="exact-rectangle"):
        load_scenario(p)


def test_run_report_contents(tmp_path):
    s = load_scenario(scenario_with(tmp_path))
    report = run_scenario(s)
    assert report.all_hold
    assert not report.errors
    assert report.label == "square"
    assert report.scenario_digest == s.digest()
    keys = [(r.kind, r.parameter) for r in report.reports]
    assert keys == sorted(keys)
    assert report.spectrum_summary["source"] == "exact-rectangle"
    assert report.spectrum_summary["count"] == 40
    assert report.spectrum_summary["first_values"][0] == 0.0
    text = report.to_json_text()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert set(parsed) == {"version", "label", "scenario_digest", "seed",
                           "spectrum", "bounds", "errors"}
    csv_text = report.to_csv_text()
    assert csv_text.splitlines()[0] == \
        "kind,parameter,bound,computed,slack,holds"
    assert len(csv_text.splitlines()) == 1 + len(report.reports)


@pytest.mark.parametrize("source,volume", [
    ("fd", "solved"), ("exact-sphere", "exact")])
def test_fd_disk_bounds_use_the_solved_measure(tmp_path, source, volume):
    # kroger-avg on a disk in 2-D is 2 pi k^2 / |Omega|
    spectrum = {"source": source, "count": 4} if source == "fd" else \
        {"source": source, "nu": 2, "l_max": 3}
    s = load_scenario(scenario_with(
        tmp_path, domain={"type": "disk", "radius": 1.0}, grid={"n": 16},
        spectrum=spectrum, bounds=[{"kind": "kroger-avg", "k": [2]}]))
    area = QuadratureGrid(s.problem.domain, 16).measure() \
        if volume == "solved" else math.pi
    (rep,) = run_scenario(s).reports
    assert rep.bound_value == pytest.approx(8 * math.pi / area, rel=1e-12)


def test_scenario_from_dict_matches_file(tmp_path):
    doc = dict(BASE, bounds=[{"kind": "general-sum", "k": [2, 8],
                              "H_omega": 20},
                             {"kind": "riesz-lower", "z": [60.0]}])
    from_file = load_scenario(write(tmp_path, doc))
    from_dict = scenario_from_dict(doc)
    assert from_dict.bounds == from_file.bounds
    assert from_dict.bounds[0].options == {"H_omega": 20.0}
    assert from_dict.digest() == from_file.digest()
    assert run_scenario(from_dict).to_json_text() == \
        run_scenario(from_file).to_json_text()
    unlabeled = {k: v for k, v in doc.items() if k != "label"}
    assert scenario_from_dict(unlabeled, label="named").label == "named"
    with pytest.raises(ScenarioError, match="must be an object"):
        scenario_from_dict([doc])


def test_run_looks_bound_functions_up_when_called(tmp_path, monkeypatch):
    # the kind table must not hold the function objects it saw at import
    import spectral_bounds.scenario as scenario

    original = scenario.kroger_avg_bound
    seen = []

    def spy(ctx, k, spectrum):
        seen.append(k)
        return original(ctx, k, spectrum)

    monkeypatch.setattr(scenario, "kroger_avg_bound", spy)
    assert run_scenario(load_scenario(scenario_with(tmp_path))).all_hold
    assert seen == [1, 5, 10]


def test_emit_writes_requested_formats(tmp_path):
    report = run_scenario(load_scenario(scenario_with(tmp_path)))
    out = tmp_path / "results"
    written = emit(report, out, fmt="both")
    assert [p.name for p in written] == ["square.json", "square.csv"]
    assert json.loads((out / "square.json").read_text())["label"] == "square"
    with pytest.raises(ValueError, match="format"):
        emit(report, out, fmt="yaml")


def test_cli_run_ok(tmp_path, capsys):
    cfg = scenario_with(tmp_path)
    code = main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--format", "both"])
    captured = capsys.readouterr()
    assert code == 0
    assert "VIOLATED" not in captured.out
    assert "wrote" in captured.err
    assert (tmp_path / "out" / "square.json").exists()
    assert (tmp_path / "out" / "square.csv").exists()


def test_cli_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # main reuses one parser across calls, each with its own arguments;
    # build_parser still hands every caller a fresh one
    from spectral_bounds import cli

    assert cli.build_parser() is not cli.build_parser()
    cli._parser()
    monkeypatch.setattr(cli, "build_parser", None)
    good = write(tmp_path, BASE, "good.json")
    # three values cannot carry the t -> 0 heat trace (as below)
    bad = write(tmp_path, dict(
        BASE, spectrum={"source": "exact-rectangle", "count": 3},
        bounds=[{"kind": "heat-lower", "t": [0.01]}]), "bad.json")
    for cfg, fmt, code in ((good, "csv", 0), (bad, "json", 1),
                           (good, "json", 0)):
        out = tmp_path / fmt
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--format", fmt]) == code
    assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == \
        ["square.csv"]
    assert sorted(p.name for p in (tmp_path / "json").iterdir()) == \
        ["square.json"]


def test_cli_run_flags_violation(tmp_path, capsys):
    # three eigenvalues cannot carry the t -> 0 heat trace: the truncated
    # trace drops below the Weyl floor, an honest holds=false
    cfg = scenario_with(
        tmp_path,
        spectrum={"source": "exact-rectangle", "count": 3},
        bounds=[{"kind": "heat-lower", "t": [0.01]}])
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert "VIOLATED" in captured.out
    assert "1 violations" in captured.err


def test_cli_run_flags_errors(tmp_path, capsys):
    # z beyond the enumerated cutoff cannot be evaluated
    cfg = scenario_with(
        tmp_path,
        spectrum={"source": "exact-rectangle", "count": 3},
        bounds=[{"kind": "riesz-lower", "z": [1.0e4]},
                {"kind": "kroger-avg", "k": [2]}])
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: riesz-lower" in captured.err
    assert "kroger-avg" in captured.out


@pytest.mark.parametrize("kind,key,param", [
    ("general-sum", "k", 5), ("riesz-lower", "z", 50.0),
    ("heat-lower", "t", 0.05), ("individual-sk", "k", 5),
    ("individual-pos", "k", 5)])
def test_cli_refuses_nonpositive_H_omega(tmp_path, kind, key, param):
    # H <= 0 makes the riesz-lower and heat-lower bounds negative (-1250 and
    # -20 here), which every spectrum would pass
    cfg = scenario_with(
        tmp_path, spectrum={"source": "exact-rectangle", "count": 60},
        bounds=[{"kind": kind, key: [param], "H_omega": -1}])
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    payload = json.loads((tmp_path / "o" / "square.json").read_text())
    assert payload["bounds"] == []
    assert payload["errors"] == [{
        "kind": kind, "parameter": param,
        "message": "ValueError: H_omega must be positive"}]


def test_cli_overflowing_constant_power_in_rho_exits_2(tmp_path, capsys):
    # the derivative of rho holds 1e300^2, which must not be folded into an
    # OverflowError
    cfg = scenario_with(tmp_path, fields={"rho": "1e300^3*x"},
                        grid={"n": 8}, spectrum={"source": "fd", "count": 10})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "non-finite" in err
    # the failing tree is the derived V + |grad rho|^2, whose printed form
    # names no field
    assert err.startswith("error: effective potential V + |grad rho|^2 ")
    assert "rho = '1e+300^3*x1'" in err


def test_cli_phase_space_names_an_overflowing_effective_potential(tmp_path,
                                                                  capsys):
    # V is finite, but the square of its gradient in the Lipschitz
    # constant overflows on the phase-space nodes
    cfg = scenario_with(tmp_path, fields={"V": "sin(1e160*x)"},
                        grid={"n": 8}, spectrum={"source": "fd", "count": 4},
                        bounds=[{"kind": "phase-space-sum", "k": [2]}])
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "effective potential V + |grad rho|^2 or its gradient" in \
        errors[0]
    assert "V = 'sin(1e+160*x1)'" in errors[0]


def test_run_with_no_bounds_is_spectrum_only(tmp_path, capsys):
    cfg = scenario_with(tmp_path, bounds=[])
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    payload = json.loads((tmp_path / "o" / "square.json").read_text())
    assert payload["bounds"] == []
    assert payload["spectrum"]["count"] == 40


def test_cli_solver_failure_exits_cleanly(tmp_path, capsys):
    cfg = scenario_with(
        tmp_path,
        grid={"n": 24},
        spectrum={"source": "fd", "count": 4, "method": "iterative",
                  "tolerance": 1e-30},
        bounds=[{"kind": "kroger-avg", "k": [2]}])
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "solver error" in capsys.readouterr().err


def test_cli_scenario_error_exit(tmp_path, capsys):
    cfg = write(tmp_path, "{broken")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing-config", "out-is-a-file",
                                  "spectrum-missing-config"])
def test_cli_unusable_path_exits_2_in_one_line(tmp_path, capsys, case):
    cfg = scenario_with(tmp_path)
    missing = str(tmp_path / "nope.json")
    argv = {"missing-config": ["run", "--config", missing,
                               "--out", str(tmp_path / "o")],
            "out-is-a-file": ["run", "--config", str(cfg), "--out", str(cfg)],
            "spectrum-missing-config": ["spectrum", "--config", missing],
            }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_cli_label_cannot_write_outside_out(tmp_path, capsys):
    cfg = scenario_with(tmp_path, label="../escaped")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("scenario error: $.label")
    assert not (tmp_path / "escaped.json").exists()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override,match", [
    ({"domain": {"type": "disk", "radius": math.nan}},
     r"domain\.radius: expected a number, got nan"),
    ({"domain": {"type": "box", "sides": [1.0, math.inf]}},
     r"domain\.sides: expected a list of finite numbers"),
    ({"spectrum": {"source": "exact-torus", "cutoff": math.inf}},
     r"spectrum\.cutoff: expected a number, got inf"),
    ({"spectrum": {"source": "fd", "tolerance": -math.inf}},
     r"spectrum\.tolerance: expected a number, got -inf"),
    ({"bounds": [{"kind": "heat-lower", "t": [math.nan]}]},
     r"bounds\[0\]\.t: expected a list of finite numbers"),
    ({"bounds": [{"kind": "general-sum", "k": [2], "H_omega": math.nan}]},
     r"bounds\[0\]\.H_omega: expected a number, got nan"),
    ({"domain": {"type": "disk", "radius": 10 ** 400}},
     r"domain\.radius: expected a number")],
    ids=["nan-radius", "inf-side", "inf-cutoff", "inf-tolerance", "nan-t",
         "nan-H_omega", "huge-int-radius"])
def test_scenario_from_dict_refuses_non_finite_numbers(override, match):
    # the rule load_scenario's parse hooks apply to a file holds for a dict
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict({**BASE, **override})


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_bound_refuses_a_non_finite_param(tmp_path, capsys, value):
    cfg = scenario_with(tmp_path)
    assert main(["bound", "--config", str(cfg), "--kind", "riesz-lower",
                 "--param", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("scenario error: bounds[0].z: expected a list of "
                            "finite numbers\n")


@pytest.mark.parametrize("override", [
    {"fields": {"w": "x - 0.5"}},
    {"grid": {"n": 4}},
    # the exact rectangle never assembles; the run grid still checks w
    {"fields": {"w": "-0.5"}, "spectrum": {"source": "exact-rectangle"}}],
    ids=["negative-weight", "coarse-grid", "exact-negative-weight"])
def test_cli_bad_input_exits_2_without_traceback(tmp_path, override):
    cfg = scenario_with(tmp_path, **{
        "spectrum": {"source": "fd", "count": 8},
        "bounds": [{"kind": "kroger-avg", "k": [2]}], **override})
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_bounds.cli", "run",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_cli_small_masked_region_runs(tmp_path):
    # a disk of radius 0.03: no node of a 13-grid falls inside, but the
    # 256-grid the run solves on has 185 inside nodes
    domain = {"type": "masked_box", "sides": [1.0, 1.0],
              "inside": "(x-0.3)^2 + (y-0.3)^2 - 0.0009"}
    cfg = scenario_with(tmp_path, domain=domain, grid={"n": 256},
                        spectrum={"source": "fd", "count": 8},
                        bounds=[{"kind": "kroger-avg", "k": [2, 4]}])
    s = load_scenario(cfg)
    assert int(QuadratureGrid(s.problem.domain, s.grid_n).mask.sum()) == 185
    with pytest.raises(ValueError, match="no grid node"):
        QuadratureGrid(s.problem.domain, 13)
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("name", ["square-kroger", "torus-kinds"])
def test_cli_output_matches_golden_bytes(tmp_path, name):
    # square-kroger is bundled; torus-kinds (tests/golden) requests the
    # H_omega, heat, individual and heat-torus kinds on an exact torus
    import spectral_bounds

    cfg = GOLDEN / f"{name}.scenario.json"
    if not cfg.exists():
        cfg = Path(spectral_bounds.__path__[0], "scenarios", f"{name}.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--format", "both"]) == 0
    for ext in ("json", "csv"):
        assert (tmp_path / f"{name}.{ext}").read_bytes() == \
            (GOLDEN / f"{name}.{ext}").read_bytes(), ext


@pytest.mark.parametrize("domain,source", [
    ({"type": "box", "sides": [1.0, float("nan")]}, "fd"),
    ({"type": "box", "sides": [1.0, 10 ** 400]}, "fd"),
    ({"type": "disk", "radius": 1e300}, "fd"),
    ({"type": "disk", "radius": 1e-300}, "fd"),
    ({"type": "torus", "e1": [1.0, 0.0], "e2": [0.5, 1.0]}, "fd"),
    ({"type": "box", "sides": [1.0, 1e-300]}, "fd"),
    # about 1e300 dual points: refused before the loop, not enumerated
    ({"type": "torus", "e1": [1e300, 0.0], "e2": [0.0, 1e-300]},
     "exact-torus")],
    ids=["nan-side", "huge-int-side", "overflow", "underflow", "skew-torus",
         "scaled-overflow", "torus-enumeration"])
def test_cli_unevaluable_domain_exits_2(tmp_path, capsys, domain, source):
    cfg = scenario_with(tmp_path, domain=domain, grid={"n": 8},
                        spectrum={"source": source, "count": 4},
                        bounds=[{"kind": "kroger-avg", "k": [2]}])
    status = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert "error: " in err
    assert err.count("\n") == 1


def test_cli_overflowing_slice_ratio_does_not_factor(tmp_path, capsys):
    # rho = 360 - 390 z: the mass is finite on the 12^3 box, but its ratio
    # across z overflows, so z does not factor (and numpy's raise mode in
    # the run does not fire).  x and y repeat, and the one-axis z block
    # misses the gate with the message it gave before factoring existed.
    cfg = scenario_with(tmp_path,
                        domain={"type": "box", "sides": [1.0, 1.0, 1.0]},
                        fields={"rho": "360 - 390*z"}, grid={"n": 12},
                        spectrum={"source": "fd", "count": 6},
                        bounds=[{"kind": "kroger-avg", "k": [2]}])
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "solver error: eigenpair residual 1.595e-05 exceeds tolerance "
        "1.000e-08 (6 of 6 pairs)\n")


@pytest.mark.parametrize("field,source", [
    ("w", "1 + 0*" + "(" * 2000 + "x" + ")" * 2000),
    ("V", "x" + "+x" * 5000)], ids=["parentheses", "long-sum"])
def test_cli_too_deep_field_exits_2(tmp_path, capsys, field, source):
    cfg = scenario_with(tmp_path, fields={field: source})
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "nests deeper than" in err
    assert err.count("\n") == 1


# nodes are counted at load, so neither case allocates a grid
@pytest.mark.parametrize("override,match", [
    ({"domain": {"type": "box", "sides": [1.0, 1.0, 1.0, 1.0]},
      "grid": {}, "bounds": []}, r"grid\.n: 1\.67772e\+07 grid nodes"),
    ({"bounds": [{"kind": "phase-space-sum", "k": [1], "grid_n": 100000}]},
     r"bounds\[0\]\.grid_n: 1e\+10 grid nodes")],
    ids=["4d-default-grid", "phase-space-grid-n"])
def test_cli_refuses_oversized_grids(tmp_path, capsys, override, match):
    cfg = scenario_with(tmp_path, **override)
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.search(match, err)
    assert err.count("\n") == 1


# counts and degrees are refused at load; without that check the first
# ran past a minute and the second exited 1 with a MemoryError traceback
@pytest.mark.parametrize("spectrum,grid,match", [
    ({"source": "exact-rectangle", "count": 3 * 10 ** 9}, 64,
     r"spectrum\.count: 3e\+09 eigenvalues exceed the limit"),
    ({"source": "exact-sphere", "nu": 2, "l_max": 10 ** 8}, 64,
     r"spectrum\.l_max: more than 2097152 eigenvalues on S\^2"),
    ({"source": "fd", "count": 2 ** 20}, 128,
     r"spectrum\.count: 1\.71799e\+10 eigenvector entries")],
    ids=["rectangle-count", "sphere-l-max", "fd-count-times-nodes"])
def test_cli_refuses_oversized_spectra(tmp_path, capsys, spectrum, grid,
                                       match):
    cfg = scenario_with(tmp_path, spectrum=spectrum, grid={"n": grid},
                        bounds=[])
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.search(match, err)
    assert err.count("\n") == 1


def test_cli_refuses_k_past_the_limit_in_one_short_line(tmp_path, capsys):
    # against a spectrum of 10 values a k of 1e300 used to reach
    # Spectrum.partial_sum, which printed it as a 301-digit integer twice
    cfg = scenario_with(tmp_path, spectrum={"source": "exact-rectangle",
                                            "count": 10},
                        bounds=[{"kind": "phase-space-sum", "k": [1e300]}])
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: bounds[0].k: expected integers" in err
    assert err.count("\n") == 1
    assert len(err) < 100


def test_cli_torus_theta_matches_periodic_dispersion(capsys):
    # constant fields on a full rectangular torus take the closed-form
    # path; the cell-centred periodic stencil on n = 48 has the values
    # 4 n^2 (sin^2(pi a/n) + sin^2(pi b/n))
    import spectral_bounds

    cfg = Path(spectral_bounds.__path__[0], "scenarios", "torus-theta.json")
    assert main(["spectrum", "--config", str(cfg), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["method"] == "separable"
    assert payload["summary"]["max_residual"] <= 1e-8
    n = 48
    axis = [4.0 * n * n * math.sin(math.pi * m / n) ** 2 for m in range(n)]
    ref = sorted(a + b for a in axis for b in axis)[:40]
    assert payload["values"] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_cli_phase_space_counts_potential_energy(tmp_path, capsys):
    # a constant 1e4 in V raises every eigenvalue by 1e4; the classical
    # energy must carry it too, or the sum bound is violated by a factor
    # of hundreds
    cfg = scenario_with(
        tmp_path, domain={"type": "disk", "radius": 2.0},
        fields={"V": "1e4 + x^2 + y^2"}, grid={"n": 48},
        spectrum={"source": "fd", "count": 10},
        bounds=[{"kind": "phase-space-sum", "k": [2, 10], "grid_n": 300}])
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--format", "csv"]) == 0
    rows = (tmp_path / "o" / "square.csv").read_text().splitlines()[1:]
    for row in rows:
        _, _, bound, computed, slack, holds = row.split(",")
        assert holds == "true"
        assert 0.99 < float(slack) < 1.0


def test_cli_one_dimensional_phase_space_bound_holds(tmp_path, capsys):
    # nu = 1 takes the Bessel order nu/2 - 1 = -1/2, whose first zero was
    # refused, so every 1-D phase-space bound was an error entry
    cfg = scenario_with(
        tmp_path, domain={"type": "box", "sides": [8.0], "origin": [-4.0]},
        fields={"V": "x^2"}, grid={"n": 256},
        spectrum={"source": "fd", "count": 12},
        bounds=[{"kind": "phase-space-sum", "k": [1, 3, 7, 11]}])
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "4 bounds, 0 violations, 0 errors" in capsys.readouterr().err
    payload = json.loads((tmp_path / "o" / "square.json").read_text())
    assert payload["errors"] == []
    assert [b["parameter"] for b in payload["bounds"]] == [1, 3, 7, 11]
    assert all(b["holds"] for b in payload["bounds"])


def test_cli_folded_constant_weight_takes_the_unstable_sort(tmp_path,
                                                           monkeypatch):
    # "3/2" parses to a quotient of constants, not one Const; both
    # spellings take the constant-weight tables (no sort permutation, one
    # broadcast weight; a varying weight argsorts with kind="stable") and
    # write the same reports, digest aside
    import numpy as np

    kinds = []
    argsort = np.argsort

    def recorded(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "phase_space_tables":
            kinds.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recorded)
    reports = []
    for name, w in (("quotient", "3/2"), ("literal", "1.5")):
        cfg = scenario_with(
            tmp_path, domain={"type": "box", "sides": [4.0, 4.0],
                              "origin": [-2.0, -2.0]},
            fields={"V": "x^2 + y^2", "w": w}, grid={"n": 24},
            spectrum={"source": "fd", "count": 10},
            bounds=[{"kind": "phase-space-sum", "k": [2, 5],
                     "grid_n": 64}])
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--format", "both"]) == 0
        payload = json.loads((out / "square.json").read_text())
        del payload["scenario_digest"]
        reports.append((payload, (out / "square.csv").read_bytes()))
    assert kinds == []
    assert reports[0] == reports[1]


def test_cli_phase_space_settles_levels_far_below_one(tmp_path, capsys):
    # on an interval of length 1e9, Lambda(k) = (pi k/1e9)^2 is about
    # 1e-17, far below an absolute stop width of 1e-15; the flat potential
    # makes the bound E_w(Lambda(k)) = pi^2 k^3/(3 L^2)
    cfg = scenario_with(
        tmp_path, domain={"type": "box", "sides": [1e9]}, grid={"n": 16},
        spectrum={"source": "fd", "count": 3},
        bounds=[{"kind": "phase-space-sum", "k": [1, 2, 3]}])
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 0
    assert "0 errors" in capsys.readouterr().err
    payload = json.loads((tmp_path / "o" / "square.json").read_text())
    bounds = [b["bound"] for b in payload["bounds"]]
    assert bounds == pytest.approx(
        [math.pi ** 2 * k ** 3 / 3e18 for k in (1, 2, 3)], rel=1e-13)


def test_cli_phase_space_refuses_subnormal_levels(tmp_path):
    # on an interval of length 1e160, Lambda(k) is about 1e-319, a
    # subnormal whose ulps are too coarse to land Phi_1 within 1e-6 of k:
    # every level is refused, in a run that ends
    cfg = scenario_with(
        tmp_path, domain={"type": "box", "sides": [1e160]}, grid={"n": 16},
        spectrum={"source": "fd", "count": 3},
        bounds=[{"kind": "phase-space-sum", "k": [1, 2, 3]}])
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_bounds.cli", "run",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "3 errors" in proc.stderr
    assert proc.stderr.count("cannot be resolved") == 3


def test_cli_run_byte_identical(tmp_path):
    cfg = scenario_with(tmp_path)
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "a"), "--format", "both"]) == 0
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "b"), "--format", "both"]) == 0
    for name in ("square.json", "square.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cli_spectrum_text_and_json(tmp_path, capsys):
    cfg = scenario_with(tmp_path)
    assert main(["spectrum", "--config", str(cfg), "--count", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("# source=exact-rectangle")
    assert len(lines) == 5
    assert lines[1] == "0\t0.0"

    assert main(["spectrum", "--config", str(cfg), "--count", "4",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == pytest.approx(
        [0.0, 9.869604401089358, 9.869604401089358, 19.739208802178716])


def test_cli_spectrum_refuses_a_negative_count(tmp_path, capsys):
    cfg = scenario_with(tmp_path)
    assert main(["spectrum", "--config", str(cfg), "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --count: must be >= 0, got -3\n"


# bool is an int subclass: "count": true ran one eigenvalue, and
# "seed": true gave a report carrying "seed": 1
@pytest.mark.parametrize("override,key", [
    ({"spectrum": {"source": "exact-rectangle", "count": True}},
     r"spectrum\.count"),
    ({"spectrum": {"source": "exact-sphere", "nu": True, "l_max": 3}},
     r"spectrum\.nu"),
    ({"spectrum": {"source": "exact-sphere", "nu": 2, "l_max": False}},
     r"spectrum\.l_max"),
    ({"seed": True}, r"\$\.seed")],
    ids=["count", "nu", "l_max", "seed"])
def test_cli_refuses_json_booleans_as_integers(tmp_path, capsys, override,
                                               key):
    cfg = scenario_with(tmp_path, **override)
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"scenario error: {key}: expected <class 'int'>, "
                        r"got bool\n", captured.err)


@pytest.mark.parametrize("spectrum,bare", [
    ({"source": "exact-rectangle", "count": 40},
     [0.0, math.pi ** 2, math.pi ** 2]),
    ({"source": "exact-sphere", "nu": 2, "l_max": 3}, [0.0, 2.0, 2.0])],
    ids=["rectangle", "sphere"])
def test_exact_sources_shift_by_constant_fields(tmp_path, capsys, spectrum,
                                               bare):
    # w = 2, V = 5: the operator's values are 2 lambda + 10
    expected = [2.0 * v + 10.0 for v in bare]
    cfg = scenario_with(tmp_path, fields={"w": "2", "V": "5"},
                        grid={"n": 16}, spectrum=spectrum, bounds=[])
    assert main(["spectrum", "--config", str(cfg), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"][:3] == pytest.approx(expected, rel=1e-12)
    assert "affine shift" in payload["summary"]["note"]

    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "square.json").read_text())
    assert report["spectrum"]["first_values"][:3] == \
        pytest.approx(expected, rel=1e-12)


# one scenario per spectrum source, with the enumerator or solver it runs
_PER_SOURCE = {
    "fd": ({"grid": {"n": 8}, "spectrum": {"source": "fd", "count": 6},
            "fields": {"w": "1 + 0.5*x"}}, "solve_lowest_detailed"),
    "exact-rectangle": ({"fields": {"w": "2", "V": "5"}},
                        "rectangle_neumann_exact"),
    "exact-torus": ({"domain": {"type": "torus", "e1": [1.2, 0.0],
                                "e2": [0.3, 0.9]},
                     "spectrum": {"source": "exact-torus", "count": 20}},
                    "torus_spectrum"),
    "exact-sphere": ({"spectrum": {"source": "exact-sphere", "nu": 2,
                                   "l_max": 4}}, "sphere_spectrum"),
}


@pytest.mark.parametrize("source", sorted(_PER_SOURCE))
def test_cli_spectrum_and_run_report_one_summary(tmp_path, capsys, source):
    cfg = scenario_with(tmp_path, **{"grid": {"n": 16}, "bounds": [],
                                     **_PER_SOURCE[source][0]})
    assert main(["spectrum", "--config", str(cfg), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["source"] == source
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "square.json").read_text())
    assert report["spectrum"] == summary


@pytest.mark.parametrize("source", sorted(_PER_SOURCE))
def test_run_looks_spectrum_functions_up_when_called(tmp_path, monkeypatch,
                                                     source):
    # the source table must not hold the function objects it saw at import
    import spectral_bounds.scenario as scenario

    name = _PER_SOURCE[source][1]
    original = getattr(scenario, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, name, spy)
    run_scenario(load_scenario(scenario_with(tmp_path, **{
        "grid": {"n": 16}, "bounds": [], **_PER_SOURCE[source][0]})))
    assert calls == [name]


_SCIPY_PROBE = """
import sys
from spectral_bounds.cli import main
status = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(status, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


# fd-separable: constant fields on a box (closed forms); fd-dense: a
# weighted 24^2 box, below the dense crossover, that is no mirror image
# of itself along an axis or across the diagonal; fd-peeled: a 16x16x32 box
# (8192 dof) repeating along y and factoring along z, peeled along both
# into dense blocks of at most 32 dof; fd: a weighted 40^2 box (1600 dof)
# solved by shift-invert, which shows the probe does see scipy
_PROBE_FD = {
    "fd-separable": ({"n": 16}, {}, "separable"),
    "fd-dense": ({"n": 24}, {"w": "1 + x*y^2"}, "dense"),
    # an oscillator centred in the box: even and odd blocks, solved dense
    "fd-mirrored": ({"n": 24}, {"V": "(x - 0.5)^2 + (y - 0.5)^2"},
                    "mirrored"),
    "fd-peeled": ({"n": [16, 16, 32]}, {"w": "1 + 0.5*x", "rho": "0.2*z"},
                  "peeled"),
    "fd": ({"n": 40}, {"w": "1 + x*y"}, "iterative"),
}


@pytest.mark.parametrize("source,loads_scipy", [
    ("exact", False), ("fd-separable", False), ("fd-dense", False),
    ("fd-mirrored", False), ("fd-peeled", False), ("fd", True)])
def test_run_imports_scipy_only_for_fd(tmp_path, source, loads_scipy):
    import spectral_bounds

    if source == "exact":
        cfg = Path(spectral_bounds.__path__[0], "scenarios",
                   "square-kroger.json")
    else:
        grid, fields, _ = _PROBE_FD[source]
        domain = {"type": "box",
                  "sides": [1.0, 1.0, 2.0] if source == "fd-peeled"
                  else [1.0, 1.0]}
        cfg = scenario_with(tmp_path, domain=domain, grid=grid,
                            fields=fields,
                            spectrum={"source": "fd", "count": 12})
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(cfg), str(tmp_path / "o")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_scipy}"
    if source != "exact":
        report = json.loads((tmp_path / "o" / "square.json").read_text())
        assert report["spectrum"]["method"] == _PROBE_FD[source][2]


def test_cli_bound_subcommand(tmp_path, capsys):
    cfg = scenario_with(tmp_path)
    assert main(["bound", "--config", str(cfg), "--kind", "general-sum",
                 "--param", "5", "10"]) == 0
    out = capsys.readouterr().out
    assert out.count("general-sum") == 2
    assert "ok" in out
    assert main(["bound", "--config", str(cfg), "--kind", "astrology",
                 "--param", "1"]) == 2


def test_bundled_scenarios_load_and_run():
    import spectral_bounds

    root = spectral_bounds.__path__[0]
    from pathlib import Path

    files = sorted(Path(root, "scenarios").glob("*.json"))
    assert len(files) >= 2
    for f in files:
        s = load_scenario(f)
        report = run_scenario(s)
        assert report.all_hold, f.name
        assert not report.errors, f.name


_EXPRESSIONS = ["1", "2.5", "x", "x - 0.5", "1 + 0.5*x", "x^2 + y^2",
                "1/x", "log(x)", "sqrt(x - 1)", "exp(800*x)", "z", "(",
                "", "0*x", "1.2.3", "1e+", "x^(1.2.3)", "x^(1/0)", "1e400*x"]
# moderate values only where they size an enumeration (torus basis,
# cutoff, k): the exact spectra and Lambda(k) grow without a cap
_NUMBERS = st.one_of(st.integers(-3, 12),
                     st.sampled_from([0.0, -1.0, 0.5, 1.5, float("inf"),
                                      float("nan")]))
_LENGTHS = st.one_of(_NUMBERS, st.sampled_from([1e300, 1e-300, 10 ** 400]))
_DOMAINS = st.one_of(
    st.fixed_dictionaries({"type": st.just("box"),
                           "sides": st.lists(_LENGTHS, max_size=4)}),
    st.fixed_dictionaries({"type": st.just("disk"), "radius": _LENGTHS}),
    st.fixed_dictionaries({"type": st.just("masked_box"),
                           "sides": st.lists(_LENGTHS, min_size=2,
                                             max_size=2),
                           "inside": st.sampled_from(_EXPRESSIONS)}),
    st.fixed_dictionaries({"type": st.just("torus"),
                           "e1": st.lists(_NUMBERS, min_size=2, max_size=2),
                           "e2": st.lists(_NUMBERS, min_size=2, max_size=2)}),
    st.fixed_dictionaries({"type": st.sampled_from(["ball", 3])}))
_KINDS = ["kroger-avg", "general-sum", "riesz-lower", "heat-lower",
          "individual-sk", "individual-pos", "phase-space-sum", "heat-torus",
          "no-such-kind"]


def _sized(small):
    """Small values, or sizes past the load-time limits in every dimension
    (grid nodes, spectrum values, sphere degree): refused before anything
    is allocated, so the run stays quick."""
    return st.one_of(small, st.sampled_from([2 ** 22, 3 * 10 ** 9]))


@st.composite
def _bound_entries(draw):
    kind = draw(st.sampled_from(_KINDS))
    key = draw(st.sampled_from(["k", "z", "t"]))
    entry = {"kind": kind, key: draw(st.lists(_NUMBERS, max_size=3))}
    if kind == "phase-space-sum":
        entry.update(draw(st.fixed_dictionaries(
            {}, optional={"grid_n": _sized(st.integers(-1, 12)),
                          "lip_override": _NUMBERS,
                          "bessel_order": _NUMBERS})))
    return entry


# the grid is always given: the default of 64 nodes per axis makes a 3-D
# box too large for a quick run
_SCENARIOS = st.fixed_dictionaries(
    {"domain": _DOMAINS,
     "grid": st.fixed_dictionaries({"n": st.one_of(
         _sized(st.integers(-1, 10)),
         st.lists(_sized(st.integers(1, 10)), max_size=3))})},
    optional={
        "fields": st.dictionaries(st.sampled_from(["w", "rho", "V", "q"]),
                                  st.sampled_from(_EXPRESSIONS), max_size=3),
        "spectrum": st.fixed_dictionaries({}, optional={
            "source": st.sampled_from(["fd", "exact-rectangle",
                                       "exact-torus", "exact-sphere",
                                       "magic"]),
            "count": _sized(st.integers(-1, 10)),
            "method": st.sampled_from(["dense", "iterative", "fast"]),
            "cutoff": _NUMBERS,
            "nu": st.integers(-1, 4),
            "l_max": _sized(st.integers(-1, 6))}),
        "bounds": st.lists(_bound_entries(), max_size=3),
    })


@settings(max_examples=150, deadline=None)
@given(_SCENARIOS)
def test_cli_exit_status_contract(scenario):
    # any input exits 0 (holds), 1 (violated) or 2 (could not evaluate),
    # with a message instead of a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.json"
        cfg.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            status = main(["run", "--config", str(cfg),
                           "--out", str(Path(tmp) / "out")])
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
