import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from planefield import chartio, geometry
from planefield.chartio import (load_atlas, load_model, model_payload, save_model,
                                validate_payload)
from planefield.catalog import (flat_torus_model, random_periodic_form, sphere_model,
                               two_pi_torus_model)
from planefield.cli import main
from planefield.errors import ConfigError
from planefield.models import contact_deformation_scan


@pytest.fixture()
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    save_model(flat_torus_model(), path)
    return path


@pytest.fixture()
def reeb_file(tmp_path):
    path = tmp_path / "reeb.json"
    assert main(["model", "reeb", "--emit", str(path)]) == 0
    return path


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _shipped_schema(name):
    ref = resources.files("planefield.schemas").joinpath(f"{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _broken_chart():
    payload = model_payload(flat_torus_model())
    payload["metric"] = payload["metric"][:5]
    payload["periodic"] = "yes"
    return payload


@pytest.mark.parametrize("name, payload", [
    ("chart", _broken_chart()),
    ("report", {"body": {"chart": "c", "grid": [8, 8, 0], "tol": -1.0}, "timings": {}}),
])
def test_schema_errors_read_as_jsonschema_validate_reports_them(name, payload):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(payload, _shipped_schema(name))
    with pytest.raises(ConfigError) as got:
        validate_payload(payload, name)
    assert str(got.value) == f"payload fails {name} schema: {want.value.message}"


def test_each_schema_is_checked_once_per_process(monkeypatch):
    cls = jsonschema.validators.validator_for(_shipped_schema("chart"))
    check = cls.check_schema
    calls = []
    monkeypatch.setattr(cls, "check_schema",
                        classmethod(lambda c, schema: calls.append(1) or check(schema)))
    chartio._validator.cache_clear()
    payload = model_payload(flat_torus_model())
    validate_payload(payload, "chart")
    validate_payload(payload, "chart")
    with pytest.raises(ConfigError):
        validate_payload(_broken_chart(), "chart")
    assert calls == [1]


def test_valid_inputs_never_import_jsonschema(tmp_path):
    """Emitting the Reeb model, classifying it and running a builtin suite
    in one interpreter leave jsonschema unimported: the shipped schemas are
    checked without it, and it is only imported to word a rejection."""
    script = """if True:
        import sys
        from planefield.cli import main
        assert main(["model", "reeb", "--emit", "reeb.json"]) == 0
        assert main(["classify", "reeb.json", "--grid", "16,16,16",
                     "--output", "reeb16.json"]) == 0
        assert main(["verify", "builtin:open-book-collar"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema"))
        """
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert _read(tmp_path / "reeb16.json")["body"]["classification"] == "parabolic"


_LITERALS = pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])


@_LITERALS
def test_load_model_refuses_the_literals_dump_json_never_writes(reeb_file, tmp_path, literal):
    path = tmp_path / "model.json"
    path.write_text(reeb_file.read_text().replace('"value": 0.0', f'"value": {literal}'))
    with pytest.raises(ConfigError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: not valid JSON ({literal} is not a JSON number)"


@_LITERALS
def test_load_atlas_refuses_the_literals_dump_json_never_writes(tmp_path, literal):
    path = tmp_path / "atlas.json"
    assert main(["model", "atlas", "--emit", str(path)]) == 0
    text = path.read_text()
    lo = text.index("0.", text.index('"overlap"'))
    path.write_text(text[:lo] + literal + text[text.index(",", lo):])
    with pytest.raises(ConfigError) as err:
        load_atlas(path)
    assert str(err.value) == f"{path}: not valid JSON ({literal} is not a JSON number)"


@_LITERALS
def test_verify_refuses_a_suite_file_with_the_literals(tmp_path, literal, capsys):
    path = tmp_path / "suite.json"
    path.write_text('{"suite": "s", "checks": [{"name": "c", "operation": '
                    f'"classify-expect", "tolerance": {literal}}}]}}')
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not valid JSON ({literal} is not a JSON number)\n")


@pytest.mark.parametrize("old, new, message", [
    ('[\n      0.0,\n      1.0\n    ]', '[0.0, 1e999]', "interval for 'r' is not finite: [0.0, inf]"),
    ('"value": 0.0', '"value": -1e999', "singular locus of 'r' is not finite: -inf"),
])
def test_classify_names_a_non_finite_chart_bound(reeb_file, tmp_path, capsys, old, new,
                                                 message):
    """JSON reads 1e999 as inf; the chart refuses it instead of sampling it."""
    path = tmp_path / "reeb.json"
    text = reeb_file.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert main(["classify", str(path), "--grid", "4,4,4"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_classify_refuses_a_domain_whose_width_overflows(reeb_file, tmp_path, capsys):
    """[-1e308, 1e308] has finite ends, but its width is inf, so every grid
    point would be +-inf."""
    path = tmp_path / "reeb.json"
    text = reeb_file.read_text()
    old = '[\n      0.0,\n      1.0\n    ]'
    assert text.count(old) == 1
    path.write_text(text.replace(old, '[-1e308, 1e308]'))
    assert main(["classify", str(path), "--grid", "4,4,4"]) == 2
    assert capsys.readouterr().err == "error: interval for 'r' is too wide: [-1e+308, 1e+308]\n"


def test_model_emit_round_trips(reeb_file):
    model = load_model(reeb_file)
    assert model.model_id == "reeb-solid-torus"
    assert model.foliation == "foliation"
    assert "paper" in model.named_frames


def test_classify_reports_parabolic(reeb_file, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["classify", str(reeb_file), "--grid", "32,8,8",
                 "--output", str(out)])
    assert code == 0
    payload = _read(out)
    validate_payload(payload, "report")
    assert payload["body"]["classification"] == "parabolic"
    assert payload["body"]["grid"] == [32, 8, 8]
    assert payload["body"]["tol"] == 1e-8


def test_grid_and_tol_overrides_echoed(reeb_file, tmp_path):
    out = tmp_path / "rep.json"
    main(["classify", str(reeb_file), "--grid", "8x4x4", "--tol", "1e-6",
          "--output", str(out)])
    body = _read(out)["body"]
    assert body["grid"] == [8, 4, 4]
    assert body["tol"] == 1e-6


def test_check_writes_worst_points(reeb_file, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["check", str(reeb_file), "--grid", "16,4,4",
                 "--output", str(out)]) == 0
    body = _read(out)["body"]
    assert "worst_points" in body and len(body["worst_points"]) == 10


def test_check_csv_dump(reeb_file, tmp_path, monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 50)    # 3 blocks
    out = tmp_path / "points.csv"
    assert main(["check", str(reeb_file), "--grid", "8,4,4",
                 "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("p1,p2,p3,b00")
    assert len(lines) == 1 + 8 * 4 * 4
    points = load_model(reeb_file).chart.sample_grid((8, 4, 4)).points
    assert [[float(v) for v in line.split(",")[:3]] for line in lines[1:]] \
        == points.T.tolist()


def test_check_csv_without_output_fails_before_the_sweep(reeb_file, monkeypatch,
                                                       capsys):
    from planefield import cli
    for name in ("classify_op", "write_point_csv"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("the sweep ran"))
    assert main(["check", str(reeb_file), "--format", "csv"]) == 2
    assert "--format csv requires --output" in capsys.readouterr().err


def test_check_csv_never_runs_classify(reeb_file, tmp_path, monkeypatch):
    """The CSV comes from the sweep blocks alone: no classify call and no
    block reduction."""
    from planefield import cli, distributions
    monkeypatch.setattr(cli, "classify_op", lambda *a, **k: pytest.fail("classify ran"))
    monkeypatch.setattr(distributions, "_summarise",
                        lambda *a, **k: pytest.fail("a block was reduced"))
    out = tmp_path / "points.csv"
    assert main(["check", str(reeb_file), "--grid", "8,4,4", "--format", "csv",
                 "--output", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 8 * 4 * 4


def test_check_csv_refuses_a_non_finite_tolerance(reeb_file, tmp_path, capsys):
    """The rows do not depend on --tol, but it is checked as for classify."""
    out = tmp_path / "points.csv"
    assert main(["check", str(reeb_file), "--format", "csv", "--tol", "nan",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: tolerance must be positive and finite, got nan\n"
    assert not out.exists()


@pytest.fixture()
def random_torus_file(tmp_path):
    """The flat torus foliated by ``random_periodic_form(0)``, whose
    components read all three coordinates."""
    model = flat_torus_model()
    model.forms["random"] = random_periodic_form(0)
    model.foliation = "random"
    path = tmp_path / "random-torus.json"
    save_model(model, path)
    return path


def test_classify_refuses_a_grid_too_large_to_allocate(random_torus_file, capsys):
    """The foliation reads every axis, so the sweep needs all 10^15 points,
    an array that cannot be allocated: one error line naming the grid,
    exit 2."""
    assert main(["classify", str(random_torus_file), "--grid", "100000,100000,100000"]) == 2
    assert capsys.readouterr().err == ("error: grid 100000x100000x100000 has "
                                       "1,000,000,000,000,000 points, more than can "
                                       "be allocated\n")


def test_classify_counts_every_point_of_a_grid_swept_on_one_axis(reeb_file, tmp_path):
    """The Reeb fields read r alone, so a 100000^3 grid is swept on its
    100,000 values of r, and the report counts all 10^15 points."""
    out = tmp_path / "rep.json"
    assert main(["check", str(reeb_file), "--grid", "100000,100000,100000",
                 "--output", str(out)]) == 0
    body = _read(out)["body"]
    assert body["n_points"] == body["n_valid"] == 10 ** 15
    assert body["classification"] == "parabolic" and body["errors"] == []
    # K_e vanishes everywhere, so the worst points are the first ten, all at
    # the first r and the first phi
    axes = load_model(reeb_file).chart.sample_grid((100000,) * 3).axes
    assert [w["point"] for w in body["worst_points"]] == \
        [[axes[0][0], axes[1][0], t] for t in axes[2][:10].tolist()]


def test_classify_refuses_a_grid_past_int64(reeb_file, capsys):
    """Grid point indices are int64: a grid of more than 2**63 - 1 points is
    refused before anything is allocated, exit 2."""
    assert main(["classify", str(reeb_file), "--grid", "3000000,3000000,3000000"]) == 2
    assert capsys.readouterr().err == ("error: grid 3000000x3000000x3000000 has "
                                       "27,000,000,000,000,000,000 points, more than "
                                       "2**63 - 1\n")


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "missing.json"]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_bad_grid_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["classify", "whatever.json", "--grid", "1,1"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_jobs_below_one_is_usage_error(command, capsys):
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as err:
            main([command, "whatever.json", "--jobs", jobs])
        assert err.value.code == 2
        assert f"jobs must be at least 1, got {int(jobs)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_non_integer_jobs_names_the_option_and_the_value(command, capsys, monkeypatch):
    with pytest.raises(SystemExit) as err:
        main([command, "whatever.json", "--jobs", "abc"])
    assert err.value.code == 2
    assert "argument --jobs: jobs must be an integer, got 'abc'" in capsys.readouterr().err
    monkeypatch.setenv("PLANEFIELD_JOBS", "abc")
    with pytest.raises(SystemExit) as err:
        main([command, "whatever.json"])
    assert err.value.code == 2
    assert "PLANEFIELD_JOBS: jobs must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_bad_env_jobs_is_usage_error(value, torus_file, capsys, monkeypatch):
    monkeypatch.setenv("PLANEFIELD_JOBS", value)
    for command in ("classify", "verify"):
        with pytest.raises(SystemExit) as err:
            main([command, str(torus_file)])
        assert err.value.code == 2
        assert "PLANEFIELD_JOBS" in capsys.readouterr().err
    # an explicit --jobs does not read the variable
    assert main(["classify", str(torus_file), "--grid", "4,4,4", "--jobs", "1"]) == 0


def test_verify_builtin_suite(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["verify", "builtin:contact-deformation",
                 "--output", str(out)]) == 0
    payload = _read(out)
    validate_payload(payload, "suite-report")
    assert payload["body"]["all_passed"]


def test_verify_unknown_builtin_is_usage_error():
    assert main(["verify", "builtin:nope"]) == 2


def test_verify_suite_file_failure_exit_code(tmp_path):
    spec = {"suite": "custom", "checks": [
        {"name": "impossible", "operation": "classify-expect",
         "target": "spheres", "grid": [6, 6, 6], "tolerance": 1e-8,
         "expectation": "parabolic"}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", str(path)]) == 1


def test_verify_rejects_negative_tolerance(tmp_path):
    spec = {"suite": "custom", "checks": [
        {"name": "bad", "operation": "classify-expect",
         "target": "spheres", "tolerance": -1.0,
         "expectation": "elliptic"}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", str(path)]) == 2


@pytest.mark.parametrize("model, tol", [("reeb", "nan"), ("spheres", "inf")])
def test_classify_refuses_a_non_finite_tolerance(reeb_file, tmp_path, capsys, model, tol):
    path = reeb_file
    if model == "spheres":
        path = tmp_path / "spheres.json"
        save_model(sphere_model(), path)
    assert main(["classify", str(path), "--grid", "8,8,8", "--tol", tol]) == 2
    assert capsys.readouterr().err == f"error: tolerance must be positive and finite, got {tol}\n"


def test_verify_refuses_an_infinite_tolerance(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text('{"suite": "custom", "checks": [{"name": "loose", '
                    '"operation": "classify-expect", "target": "reeb", "grid": [8, 8, 8], '
                    '"tolerance": 1e999, "expectation": "parabolic"}]}')
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: check 'loose': tolerance must be positive and finite, got inf\n")


@pytest.mark.parametrize("output", [False, True])
def test_scan_refuses_a_non_finite_s_range(torus_file, tmp_path, capsys, output):
    args = ["scan", str(torus_file), "--alpha", "vertical", "--beta", "winding-contact",
            "--grid", "4,4,4", "--s-range", "nan:1:2"]
    with pytest.raises(SystemExit) as err:
        main(args + ["--output", str(tmp_path / "scan.json")] if output else args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --s-range: s-range endpoints must be finite, got 'nan:1:2'" in captured.err


@pytest.mark.parametrize("s", [np.nan, np.inf])
def test_scan_refuses_a_non_finite_deformation_parameter(s):
    model = flat_torus_model()
    with pytest.raises(ConfigError, match="deformation parameters must be finite"):
        contact_deformation_scan(model.metric, model.forms["vertical"],
                                 model.forms["winding-contact"], [0.0, s], grid=(4, 4, 4))


def test_scan_subcommand(tmp_path):
    chart = tmp_path / "torus2pi.json"
    save_model(two_pi_torus_model(), chart)
    out = tmp_path / "scan.json"
    code = main(["scan", str(chart), "--alpha", "vertical",
                 "--beta", "winding-contact", "--s-range", "0:0.4:3",
                 "--grid", "5,5,5", "--output", str(out)])
    assert code == 0
    payload = _read(out)
    validate_payload(payload, "scan-report")
    rows = payload["body"]["rows"]
    assert [r["s"] for r in rows] == [0.0, 0.2, 0.4]
    assert rows[2]["contact_volume_min"] == pytest.approx(-0.16, abs=1e-12)


@pytest.mark.parametrize("command, option", [("scan", ["--jobs", "2"]),
                                             ("scan", ["--tol", "1e-6"]),
                                             ("integrate-h", ["--tol", "1e-6"])])
def test_options_a_command_does_not_use_are_usage_errors(command, option, torus_file, capsys):
    args = ["--alpha", "vertical", "--beta", "tilted", "--s-range", "0:1:2"] if command == "scan" else []
    with pytest.raises(SystemExit) as err:
        main([command, str(torus_file), *args, "--grid", "4,4,4", *option])
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_integrate_h_subcommand(torus_file, tmp_path):
    out = tmp_path / "ih.json"
    code = main(["integrate-h", str(torus_file),
                 "--distribution", "graph-foliation",
                 "--grid", "16,16,16", "--output", str(out)])
    assert code == 0
    payload = _read(out)
    validate_payload(payload, "integrate-report")
    assert abs(payload["body"]["integral_h"]) <= 1e-8
    assert payload["body"]["max_pointwise_defect"] <= 1e-9


def test_integrate_h_requires_periodic_chart(reeb_file):
    assert main(["integrate-h", str(reeb_file), "--grid", "4,4,4"]) == 2


def test_plotdata_csv(reeb_file, tmp_path):
    out = tmp_path / "line.csv"
    code = main(["plotdata", str(reeb_file), "--along", "r", "--n", "16",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,k_e,h"
    assert len(lines) == 17
    values = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    assert np.max(np.abs(values[:, 1])) <= 1e-8   # parabolic along the line


def test_plotdata_evaluates_each_field_once(reeb_file, tmp_path, monkeypatch):
    """One pass over the line: one tape run for the 6 metric entries and
    one for the 3 form components; the CSV holds the single-point API's K_e
    and H."""
    from planefield import expr
    from planefield.distributions import extrinsic_curvature, mean_curvature
    model = load_model(reeb_file)
    chart, dist = model.chart, model.distribution(None)
    line, _ = chart.axis_points(0, 16, margin=1e-3)
    pts = np.zeros((3, 16))
    pts[0] = line
    pts[1:] = [[0.5 * sum(chart.domain[i])] for i in (1, 2)]
    k_e = extrinsic_curvature(model.metric, dist, pts)
    h = mean_curvature(model.metric, dist, pts)
    want = "r,k_e,h\n" + "".join(f"{float(line[j])!r},{float(k_e[j])!r},{float(h[j])!r}\n"
                                  for j in range(16))
    calls = []
    real = expr.Tape.run
    monkeypatch.setattr(expr.Tape, "run",
                        lambda tape, p: calls.append(tape) or real(tape, p))
    out = tmp_path / "line.csv"
    assert main(["plotdata", str(reeb_file), "--along", "r", "--n", "16",
                 "--output", str(out)]) == 0
    assert len(calls) == 2
    assert out.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("args, message", [
    (["--along", "r", "--fixed", "a,b"], "--fixed 'a,b': could not convert string to float: 'a'"),
    (["--along", "q"], "unknown coordinate 'q'; the chart's are r, phi, t"),
    (["--along", "r", "--fixed", "nan,0"], "--fixed values must be finite, got 'nan,0'"),
    (["--along", "phi", "--fixed", "0.5,-inf"], "--fixed values must be finite, got '0.5,-inf'"),
])
def test_plotdata_refuses_a_bad_line_with_a_usage_error(reeb_file, args, message, capsys):
    assert main(["plotdata", str(reeb_file), *args, "--n", "4"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_plotdata_names_a_nan_leading_minor(reeb_file, tmp_path, capsys):
    """With r up to 1e308 the Reeb metric's r^2 overflows: its leading
    minors are 1, nan, nan, and the error names minor 2."""
    payload = _read(reeb_file)
    payload["domain"][0] = [0.0, 1e308]
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(payload), encoding="utf-8")
    with np.errstate(all="ignore"):
        assert main(["plotdata", str(wide), "--along", "r", "--n", "4"]) == 1
    assert capsys.readouterr().err.endswith("leading minor 2 = nan\n")


@pytest.mark.parametrize("command", [["classify"], ["scan", "--alpha", "a", "--beta", "b",
                                                    "--s-range", "0:1:2"], ["verify"]])
def test_a_directory_as_input_file_is_a_usage_error(tmp_path, command, capsys):
    """Model, suite and atlas files are read through one function, which
    names the path it cannot read."""
    assert main([command[0], str(tmp_path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}: cannot read (") and err.endswith(")\n")
    with pytest.raises(ConfigError, match="cannot read"):
        load_atlas(tmp_path)


@pytest.mark.parametrize("command", [
    ["check", "--format", "csv", "--grid", "4,4,4"], ["check", "--grid", "4,4,4"],
    ["classify", "--grid", "4,4,4"], ["plotdata", "--along", "r", "--n", "4"],
])
def test_an_output_that_cannot_be_written_is_a_usage_error(reeb_file, tmp_path, command,
                                                          capsys, monkeypatch):
    """One error line naming the path, exit 2; the CSV path finds out
    before its sweep."""
    from planefield import distributions

    def no_sweep(*args):
        raise AssertionError("the sweep ran before the output was opened")

    if "csv" in command:
        monkeypatch.setattr(distributions, "chunked_eval", no_sweep)
    out = tmp_path / "nodir" / "x"
    assert main([command[0], str(reeb_file), *command[1:], "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: cannot write (") and err.endswith(")\n")
    assert err.count("\n") == 1 and not out.parent.exists()


def test_model_atlas_emit(tmp_path):
    out = tmp_path / "atlas.json"
    assert main(["model", "atlas", "--emit", str(out)]) == 0
    payload = _read(out)
    validate_payload(payload, "atlas")
    for chart in payload["charts"]:
        validate_payload(chart, "chart")
    assert len(payload["transitions"]) == 4


def test_model_product_emit(tmp_path):
    out = tmp_path / "product.json"
    assert main(["model", "product", "--emit", str(out)]) == 0
    model = load_model(out)
    assert model.foliation == "foliation"


def test_report_bodies_identical_across_worker_counts(torus_file, tmp_path):
    bodies = []
    for jobs in (1, 2, 8):
        out = tmp_path / f"rep{jobs}.json"
        code = main(["classify", str(torus_file),
                     "--distribution", "graph-foliation",
                     "--grid", "12,12,12", "--jobs", str(jobs),
                     "--output", str(out)])
        assert code == 0
        bodies.append(json.dumps(_read(out)["body"], sort_keys=True))
    assert bodies[0] == bodies[1] == bodies[2]


def test_env_var_sets_default_jobs(torus_file, tmp_path, monkeypatch):
    monkeypatch.setenv("PLANEFIELD_JOBS", "3")
    out = tmp_path / "rep.json"
    assert main(["classify", str(torus_file), "--grid", "6,6,6",
                 "--output", str(out)]) == 0
