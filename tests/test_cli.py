import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from sodekit.analysis import MAX_COUNT, Options
from sodekit.cli import _build_parser, _overrides, main
from sodekit.corpus import corpus_get, corpus_list, corpus_raw
from sodekit.manifest import (
    ManifestError, load_manifest, load_manifest_text,
)
from sodekit.runner import (
    COMMANDS, EXIT_INPUT, EXIT_MATH_FAIL, EXIT_NUMERIC, EXIT_OK,
    report_to_json, run_command,
)
from sodekit.sampling import MAX_SEED
from tests.conftest import INSTANCES, make_manifest


def inline_manifest(**kw):
    base = {
        "name": "inline",
        "chart": {"coordinates": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "field": {"components": ["y", "0"]},
        "frame": [{"components": ["0", "1"]}],
    }
    base.update(kw)
    return base


# -- manifests -----------------------------------------------------------------

def test_corpus_listing_is_complete():
    assert corpus_list() == [
        "beta-rescaled", "cubic-demo", "oscillator-scrambled",
        "quadratic-demo", "routh-abelian", "timedep-scrambled",
    ]


def test_corpus_get_builds_manifests():
    m = corpus_get("routh-abelian")
    assert m.chart.names == ("x1", "x2", "v1", "v2", "mu")
    assert m.n == 2
    m2 = corpus_get("oscillator-scrambled")
    assert [str(c) for c in m2.field_components] == [
        "z2 - z1^2", "-z1 + 2*z1*(z2 - z1^2)"
    ]


def test_corpus_unknown_name():
    with pytest.raises(ManifestError, match="no corpus instance"):
        corpus_get("nonexistent")


def test_manifest_validation_errors():
    with pytest.raises(ManifestError, match="field.components"):
        load_manifest(inline_manifest(field={"components": ["y"]}))
    with pytest.raises(ManifestError, match="frame"):
        load_manifest(inline_manifest(frame=[]))
    with pytest.raises(ManifestError, match="unknown symbols"):
        load_manifest(inline_manifest(field={"components": ["y", "q"]}))
    with pytest.raises(ManifestError, match="2 \\* frame size"):
        load_manifest(inline_manifest(
            frame=[{"components": ["1", "0"]}, {"components": ["0", "1"]}]
        ))
    with pytest.raises(ManifestError, match="line 1"):
        load_manifest(inline_manifest(field={"components": ["y +* 1", "0"]}))
    with pytest.raises(ManifestError, match="JSON"):
        load_manifest_text("{not json")


# -- runners -------------------------------------------------------------------

def test_run_check_passes_on_corpus():
    report, code = run_command("check", corpus_get("oscillator-scrambled"))
    assert code == EXIT_OK
    assert report["verdicts"]["regularity"]["status"] == "pass"
    assert report["verdicts"]["w_involutive"]["involutive"] is True


def test_run_check_fails_on_degenerate_field():
    manifest = load_manifest(inline_manifest(
        field={"components": ["x", "0"]}
    ))
    report, code = run_command("check", manifest)
    assert code == EXIT_MATH_FAIL
    assert report["verdicts"]["regularity"]["status"] == "fail"


def test_run_classify_cases():
    report, code = run_command("classify", corpus_get("oscillator-scrambled"))
    assert code == EXIT_OK
    assert report["analysis"]["classification"] == "case1-sode-with-parameters"
    assert report["analysis"]["parameter_count"] == 0
    report, code = run_command("classify", corpus_get("timedep-scrambled"))
    assert code == EXIT_OK
    assert report["analysis"]["classification"] == "case2-time-dependent"
    assert report["analysis"]["parameter_count"] == 1
    assert report["analysis"]["extra_parameter_count"] == 0
    report, code = run_command("classify", corpus_get("routh-abelian"))
    assert code == EXIT_OK
    assert report["analysis"]["parameter_count"] == 1


def test_degenerate_frame_is_math_failure_for_every_command():
    manifest = load_manifest(inline_manifest(
        frame=[{"components": ["0", "0"]}],   # not a frame at all
    ))
    for command in ("check", "classify", "connection", "quadratic",
                    "straighten", "report"):
        report, code = run_command(command, manifest)
        assert code == EXIT_MATH_FAIL, command
        blob = json.dumps(report)
        assert "rank" in blob or "error" in report, command


def test_run_straighten_numeric_failure_when_locus_outside_box():
    manifest = load_manifest(inline_manifest(
        chart={"coordinates": ["x", "y"], "box": [[-1, 1], [2.0, 3.0]]},
    ))
    report, code = run_command("straighten", manifest)
    assert code == EXIT_NUMERIC
    assert "cross-section" in report["error"]


def test_numeric_adaptation_runs_end_to_end():
    # V = du for the fibre coordinate y = u + u^2/4 is not adapted, and
    # normalization leaves it as it is: the fibre flows carry the transported
    # basis matrix
    manifest = INSTANCES["reparam-fibre"]()
    for command in ("straighten", "quadratic"):
        start = time.perf_counter()
        report, code = run_command(command, manifest)
        assert code == EXIT_OK, command
        assert report["analysis"]["adaptation"]["mode"] == "numeric"
        assert time.perf_counter() - start < 10.0, command
    assert report["quadratic_coefficients"]["max_fit_residual"] < 1e-8


def test_a_basis_that_does_not_commute_is_normalized():
    # V1 = dy1 + y2 dy2, V2 = dy2 do not commute; they are carried by the
    # rows y1, y2, so V.B^-1 = (dy1, dy2) takes their place
    manifest = load_manifest(inline_manifest(
        chart={"coordinates": ["x1", "x2", "y1", "y2"],
               "box": [[-1, 1]] * 4},
        field={"components": ["y1", "y2", "-x1", "-x2"]},
        frame=[{"components": ["0", "0", "1", "y2"]},
               {"components": ["0", "0", "0", "1"]}]))
    for command in ("classify", "report"):
        report, code = run_command(command, manifest)
        assert code == EXIT_OK, command
        analysis = report["analysis"]
        assert analysis["adaptation"]["mode"] == "normalized"
        assert analysis["adaptation"]["coordinates"] == ["y1", "y2"]
        assert all(s["status"] == "pass"
                   for s in analysis["identity_suites"]), command


def test_a_wide_basis_that_does_not_commute_is_refused():
    # V1 = dx1 + dy1 + y2 dy2 spans three rows with V2 = dy2: no n x n block
    # carries V, so it is not normalized and the refusal stands
    manifest = load_manifest(inline_manifest(
        chart={"coordinates": ["x1", "x2", "y1", "y2"],
               "box": [[-1, 1]] * 4},
        field={"components": ["y1", "y2", "-x1", "-x2"]},
        frame=[{"components": ["1", "0", "1", "y2"]},
               {"components": ["0", "0", "0", "1"]}]))
    for command in ("classify", "report"):
        report, code = run_command(command, manifest)
        assert code == EXIT_MATH_FAIL, command
        assert "does not commute" in report["analysis"]["reason"]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_run_report_all_corpus_instances_pass(name):
    for command in ("connection", "report"):
        report, code = run_command(command, INSTANCES[name]())
        if name == "regularity-fail":
            assert code == EXIT_MATH_FAIL, command
            continue
        assert code == EXIT_OK, (name, command)
        suites = report["analysis"]["identity_suites"]
        assert all(s["status"] == "pass" for s in suites), (name, command)
        if name == "cubic-demo":
            # not of quadratic type, but still a healthy second-order field
            assert report["analysis"]["mixed_curvature"]["verdict"] \
                == "not_quadratic"


def test_run_report_deterministic_excluding_timings():
    manifest = corpus_get("quadratic-demo")
    r1, _ = run_command("report", manifest)
    r2, _ = run_command("report", manifest)
    del r1["timings"], r2["timings"]
    assert report_to_json(r1) == report_to_json(r2)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_report_agrees_with_straighten_and_quadratic(name):
    # report solves the cross-check's and the fit's stencils in one batch;
    # its sections must be those of the commands that solve them alone,
    # down to the notice that the fit is skipped above dimension 4
    def sections(command, seed, keys):
        report, _ = run_command(command, INSTANCES[name](),
                                {"seed": seed})
        return [json.dumps(report.get(key), sort_keys=True) for key in keys]

    for seed in (0, 1):
        chart_keys = ("transform", "residuals")
        fit_keys = ("quadratic_coefficients", "warnings")
        report = sections("report", seed, chart_keys + fit_keys)
        assert report[:2] == sections("straighten", seed, chart_keys)
        assert report[2:] == sections("quadratic", seed, fit_keys)


# -- CLI entry point -------------------------------------------------------------

def test_cli_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == corpus_list()


def test_cli_corpus_show(capsys):
    assert main(["corpus", "--show", "cubic-demo"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown == json.loads(json.dumps(corpus_raw("cubic-demo")))


@pytest.mark.parametrize("argv", [["corpus", "--show", "nosuch"],
                                  ["check", "--corpus", "nosuch"]])
def test_cli_unknown_corpus_name_lists_the_available_ones(capsys, argv):
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "no corpus instance named 'nosuch'; available: " in err
    assert ", ".join(corpus_list()) in err


def test_cli_classify_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["classify", "--corpus", "cubic-demo", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["analysis"]["classification"] == "case1-sode-with-parameters"
    assert "timings" in data


def test_cli_unwritable_json_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["classify", "--corpus", "quadratic-demo", "--json", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write report: ")
    assert not out.exists()


def test_cli_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(inline_manifest(
        field={"components": ["y +* 1", "0"]}
    )))
    assert main(["check", str(bad)]) == EXIT_INPUT
    assert main(["check"]) == EXIT_INPUT  # neither path nor corpus
    assert main(["check", str(bad), "--corpus", "cubic-demo"]) == EXIT_INPUT
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == EXIT_INPUT


def test_cli_math_failure_exit(tmp_path):
    bad = tmp_path / "xdx.json"
    bad.write_text(json.dumps(inline_manifest(
        field={"components": ["x", "0"]}
    )))
    assert main(["check", str(bad)]) == EXIT_MATH_FAIL


@pytest.mark.parametrize("force", ["1000000*y^2", "(x+y)^14"])
def test_cli_a_large_force_is_still_second_order(tmp_path, force):
    # det(V, [F, V]) = -1 everywhere: the rank must not read |df/dy| ~ 1e5
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(inline_manifest(
        field={"components": ["y", force]})))
    out = tmp_path / "report.json"
    assert main(["classify", str(path), "--json", str(out)]) == EXIT_OK
    analysis = json.loads(out.read_text())["analysis"]
    assert analysis["classification"] == "case1-sode-with-parameters"
    assert analysis["verdicts"]["regularity"]["status"] == "pass"


def test_cli_degenerate_expression_is_input_error(tmp_path, capsys):
    # a divisor that normalizes to zero is rejected at parse time, with the
    # component and the place of the division, in the field and in a frame
    bad = tmp_path / "div0.json"
    bad.write_text(json.dumps(inline_manifest(
        field={"components": ["y", "1/(x - x)"]}
    )))
    assert main(["check", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: field.components[1]: division by an expression that "
        "normalizes to zero: 'x - x' (line 1, column 2)\n")
    bad.write_text(json.dumps(inline_manifest(
        frame=[{"components": ["0", "1 + y/(2*x - x - x)"]}]
    )))
    assert main(["classify", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: frame[0].components[1]: division by an expression "
        "that normalizes to zero: '2*x - x - x' (line 1, column 6)\n")


@pytest.mark.parametrize("component,log", [("log(0)", "log(0)"),
                                           ("y*log(x - x)", "log(x - x)")])
def test_cli_log_of_zero_names_the_log_and_its_component(tmp_path, capsys,
                                                         component, log):
    # the derivative u'/u of log(u) divides by zero; the message names the
    # log the input holds, not that division
    path = write_manifest(tmp_path, field={"components": ["y", component]})
    assert main(["classify", path]) == EXIT_INPUT
    column = component.index("log") + 1
    assert capsys.readouterr().err == (
        f"input error: field.components[1]: log of an expression that "
        f"normalizes to zero: '{log}' (line 1, column {column})\n")


FIRST_SAMPLE = load_manifest(inline_manifest()).chart.sample(200)[0]


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("part,field", [
    ({"frame": [{"components": ["0", "log(x - 3)"]}]}, "field 0"),
    ({"field": {"components": ["y", "log(x - 3)"]}}, "F")])
def test_cli_a_component_undefined_everywhere_is_named(tmp_path, capsys,
                                                        command, part, field):
    # log(x - 3) has no value on [-1, 1]: an input error that names the
    # field, its component, the first sample point and the failing log
    assert main([command, write_manifest(tmp_path, **part)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: all sample points hit evaluation domain errors: "
        f"component 1 ('y') of {field} fails at {FIRST_SAMPLE}: log of a "
        "nonpositive value in 'log(x - 3)'\n")


def test_a_field_undefined_at_some_samples_warns_once():
    # log(x) fails on the left half of the box: the run goes on, with one
    # warning naming the component and the first failing sample point
    manifest = load_manifest(inline_manifest(
        field={"components": ["y", "log(x)"]}))
    points = manifest.chart.sample(200)
    bad = [p for p in points if p[0] <= 0]
    report, code = run_command("classify", manifest)
    assert code == EXIT_OK
    assert report["analysis"]["warnings"] == [
        f"F fails to evaluate at {len(bad)} of 200 sample points; the first: "
        f"component 1 ('y') of F fails at {bad[0]}: log of a nonpositive "
        "value in 'log(x)'"]


def test_a_frame_field_undefined_at_some_samples_warns_once():
    # x^(1/2) fails on the left half of the box: the frame keeps its rank
    # on the other half, and one warning names the V-basis's first failure
    manifest = load_manifest(inline_manifest(
        field={"components": ["y", "0"]},
        frame=[{"components": ["0", "(x^(1/2) + 2)"]}]))
    points = manifest.chart.sample(200)
    bad = [p for p in points if p[0] < 0]
    report, code = run_command("classify", manifest)
    assert code == EXIT_OK
    assert report["analysis"]["warnings"] == [
        f"the V-basis fails to evaluate at {len(bad)} of 200 sample points; "
        f"the first: component 1 ('y') of field 0 fails at {bad[0]}: "
        "fractional power of a negative value in 'x^(1/2)'"]


def test_an_overflowing_flow_raises_no_runtime_warning():
    # flows across a box of width 2e200 overflow the integrator's error
    # norm; RuntimeWarnings are errors under this suite, so the commands
    # reach their exit codes only if none escapes
    manifest = load_manifest(inline_manifest(
        chart={"coordinates": ["x", "y"], "box": [[-1e200, 1e200], [-1, 1]]},
        field={"components": ["y", "x"]}))
    report, code = run_command("straighten", manifest)
    assert code == EXIT_NUMERIC
    assert report["error"] == "no grid node passed the cross-check"
    report, code = run_command("quadratic", manifest)
    assert code == EXIT_OK
    assert report["warnings"] == [
        "coefficient extraction failed: flow left the sampling box (beyond "
        "the allowed slack)"]


def test_cli_seed_override_changes_samples(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["classify", "--corpus", "quadratic-demo", "--seed", "1",
          "--json", str(out1)])
    main(["classify", "--corpus", "quadratic-demo", "--seed", "2",
          "--json", str(out2)])
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    p1 = d1["analysis"]["zero_section_points"]
    p2 = d2["analysis"]["zero_section_points"]
    assert p1 != p2  # different starts, different located points


@pytest.mark.parametrize("grid", ["-1", "0", "1000"])
def test_cli_bad_grid_is_input_error(grid, capsys):
    # 1000 on the five-dimensional routh chart would be 10^15 nodes
    code = main(["straighten", "--corpus", "routh-abelian", "--grid", grid])
    assert code == EXIT_INPUT
    assert "option 'grid' must be an integer >= 1" in capsys.readouterr().err


def test_cli_non_numeric_tolerance_is_input_error(tmp_path, capsys):
    bad = tmp_path / "tol.json"
    bad.write_text(json.dumps(inline_manifest(options={"tolerance": "abc"})))
    assert main(["report", str(bad)]) == EXIT_INPUT
    assert "option 'tolerance' must be a positive number" \
        in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command gets as far as building the V frame."""
    import sodekit.runner as runner

    def refuse(*args, **kwargs):
        raise AssertionError("the command started work")

    monkeypatch.setattr(runner, "Frame", refuse)


@pytest.mark.parametrize("flag,value", [
    ("--tol", "-1"), ("--tol", "nan"),
    ("--extent", "nan"), ("--extent", "inf"), ("--extent", "0"),
])
def test_cli_bad_tolerance_or_extent_is_input_error(flag, value, capsys,
                                                    no_work):
    code = main(["straighten", "--corpus", "oscillator-scrambled",
                 flag, value])
    assert code == EXIT_INPUT
    assert "must be a positive number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["straighten", "report"])
def test_cli_no_default_grid_above_dimension_six(tmp_path, capsys, no_work,
                                                 command):
    names = ["x1", "x2", "x3", "y1", "y2", "y3", "t"]
    path = write_manifest(
        tmp_path,
        chart={"coordinates": names, "box": [[-1, 1]] * 7},
        field={"components": ["y1", "y2", "y3", "-x1", "-x2", "-x3", "0"]},
        frame=[{"components": ["1" if j == i else "0" for j in names]}
               for i in names[3:6]],
    )
    assert main([command, path]) == EXIT_INPUT
    assert "charts up to dimension 6" in capsys.readouterr().err


def test_error_report_names_the_manifest():
    manifest = load_manifest(inline_manifest(
        frame=[{"components": ["0", "0"]}],
    ))
    report, code = run_command("classify", manifest)
    assert code == EXIT_MATH_FAIL
    assert "V frame is not constant full rank" in report["error"]
    assert report["manifest"]["name"] == "inline"
    assert report["conventions"]["w_basis"] == "W_i = [F, V_i]"


def test_cli_error_summary_names_the_manifest(tmp_path, capsys):
    path = write_manifest(tmp_path, frame=[{"components": ["0", "0"]}])
    assert main(["classify", path]) == EXIT_MATH_FAIL
    assert "sodekit classify: inline" in capsys.readouterr().out


def test_check_stops_after_a_noninvolutive_frame():
    # [dy1, dy2 + y1 dx1] = dx1 leaves the span of V
    manifest = load_manifest(inline_manifest(
        chart={"coordinates": ["x1", "x2", "y1", "y2"],
               "box": [[-1, 1]] * 4},
        field={"components": ["y1", "y2", "0", "0"]},
        frame=[{"components": ["0", "0", "1", "0"]},
               {"components": ["y1", "0", "0", "1"]}],
    ))
    report, code = run_command("check", manifest)
    assert code == EXIT_MATH_FAIL
    assert list(report["verdicts"]) == ["v_involutive"]
    assert report["verdicts"]["v_involutive"]["involutive"] is False
    classified, _ = run_command("classify", manifest)
    assert classified["analysis"]["verdicts"] == report["verdicts"]


def write_manifest(tmp_path, **kw):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(inline_manifest(**kw)))
    return str(path)


@pytest.mark.parametrize("shape,message", [
    ({"field": ["y", "0"]}, "'field' object"),
    ({"field": {"components": "y"}}, "'field' object"),
    ({"frame": {"components": ["0", "1"]}}, "nonempty 'frame' list"),
    ({"frame": ["0", "1"]}, "frame\\[0\\] must list 2"),
    ({"chart": ["x", "y"]}, "'chart' object"),
    ({"chart": {"coordinates": ["x", 2], "box": [[-1, 1], [-1, 1]]}},
     "list of names"),
    ({"chart": {"coordinates": ["x", "y"], "box": [[-1, 1], [-1, "1"]]}},
     "pair of numbers"),
    ({"chart": {"coordinates": ["x", "y"], "box": [[-1, 1], [-1, 10**400]]}},
     "pair of numbers"),
    ({"chart": {"coordinates": ["x", "y"],
                "box": [[-1e308, 1e308], [-1, 1]]}},
     "box interval for 'x' is wider than a float can hold"),
    ({"field": {"components": ["y", "1" * 4400 + "*y"]}},
     r"components\[1\]: unreadable number.*\(line 1, column 1\)"),
])
def test_cli_wrong_manifest_shape_is_input_error(tmp_path, capsys, shape,
                                                 message):
    assert main(["check", write_manifest(tmp_path, **shape)]) == EXIT_INPUT
    assert re.search(message, capsys.readouterr().err)


def test_cli_a_constant_past_the_digit_limit_is_evaluated(tmp_path):
    # 1 + 10^(-5000) has 5001 digits: the evaluator takes the true division
    # of its two ints, and never writes the constant out as text
    path = write_manifest(
        tmp_path, field={"components": ["y", "(1 + 10^(-5000))*y^2"]})
    assert main(["check", path]) == EXIT_OK


@pytest.mark.parametrize("command", ["classify", "connection", "quadratic",
                                     "straighten", "report"])
def test_cli_printing_a_constant_past_the_digit_limit_is_input_error(
        tmp_path, capsys, command):
    # the reports print F's coefficients, and Python writes no integer of
    # more than 4300 digits as text: an input error, not an internal one
    path = write_manifest(
        tmp_path, field={"components": ["y", "(1 + 10^(-5000))*y^2"]})
    assert main([command, path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: a constant has more than 4300 digits")
    assert "Traceback" not in err


def test_cli_too_many_coordinates_is_input_error(tmp_path, capsys):
    names = [f"z{i}" for i in range(17)]
    path = write_manifest(
        tmp_path,
        chart={"coordinates": names, "box": [[-1, 1]] * 17},
        field={"components": ["0"] * 17},
        frame=[{"components": ["0"] * 16 + ["1"]}],
    )
    assert main(["classify", path]) == EXIT_INPUT
    assert "17 coordinates; at most 16" in capsys.readouterr().err


@pytest.mark.parametrize("options,message", [
    ({"colour": "red"}, "unknown option 'colour'"),
    ({"samples": 2.5}, "option 'samples' must be an integer >= 1, got 2.5"),
    ({"samples": True}, "option 'samples' must be an integer"),
    ({"seed": "abc"}, "option 'seed' must be an integer >= 0, got 'abc'"),
    ({"seed": -1}, "option 'seed' must be an integer >= 0"),
    ({"tolerance": 0}, "option 'tolerance' must be a positive number"),
    ({"samples": MAX_COUNT + 1},
     f"option 'samples' must be at most {MAX_COUNT}, got {MAX_COUNT + 1}"),
    # budgets of the method, not options
    *(({key: 1}, f"unknown option '{key}'")
      for key in ("trials", "newton_starts", "newton_max_iter", "zero_tol",
                  "newton_tol")),
    ({"seed": 2**64}, f"option 'seed' must be at most {MAX_SEED}, "
                      f"got {2**64}"),
])
def test_cli_bad_option_is_input_error(tmp_path, capsys, options, message):
    path = write_manifest(tmp_path, options=options)
    assert main(["classify", path]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_the_options_are_the_cli_flags():
    # every option flag given: the overrides name exactly the Options fields
    sub = _build_parser()._subparsers._group_actions[0].choices["classify"]
    argv = ["classify", "m.json"]
    for action in sub._actions:
        if action.option_strings and action.dest not in ("help", "corpus",
                                                         "json"):
            argv += [action.option_strings[0], "1"]
    assert set(_overrides(_build_parser().parse_args(argv))) == {
        f.name for f in fields(Options)}


def test_cli_bad_override_is_input_error(capsys):
    # the sampler reads a seed modulo 2^64: 2^64 + 5 would repeat seed 5
    assert MAX_SEED == 2**64 - 1
    for key, value in (("samples", 0), ("samples", MAX_COUNT + 1),
                       ("seed", MAX_SEED + 1), ("seed", 2**64 + 5)):
        assert main(["classify", "--corpus", "cubic-demo",
                     f"--{key}", str(value)]) == EXIT_INPUT
        assert f"option '{key}'" in capsys.readouterr().err


def test_cli_a_zero_test_that_evaluated_no_point_is_not_quadratic(
        tmp_path, capsys):
    # theta = 3*log(x - 99/100) is nonzero wherever it is defined, but no
    # trial point of the zero test, first try or jittered retry, lies in
    # x > 0.99
    path = write_manifest(
        tmp_path, field={"components": ["y", "y^3*log(x - 0.99)"]})
    out = tmp_path / "quadratic.json"
    assert main(["quadratic", path, "--json", str(out)]) == EXIT_MATH_FAIL
    curvature = json.loads(out.read_text())["analysis"]["mixed_curvature"]
    assert curvature["verdict"] == "inconclusive"
    assert curvature["max_residual"] == 1.0
    for command in ("classify", "connection"):
        main([command, path])
        assert "quadratic verdict: inconclusive" in capsys.readouterr().out


def test_cli_deeply_nested_expression_is_input_error(tmp_path, capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    path = write_manifest(tmp_path, field={"components": ["y", deep]})
    assert main(["straighten", path]) == EXIT_INPUT
    assert "nested deeper than 100 levels" in capsys.readouterr().err


def test_cli_maps_an_unexpected_exception_to_exit_4(monkeypatch, capsys):
    import sodekit.runner as runner

    def broken(*args, **kwargs):
        raise RuntimeError("stage broke\nin two lines")

    monkeypatch.setattr(runner, "pushforward_residuals", broken)
    assert main(["straighten", "--corpus", "quadratic-demo"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: stage broke in two lines\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("error,prefix", [
    ("InternalInconsistencyError", "internal inconsistency"),
    ("AnalysisError", "analysis failed"),
])
def test_run_command_maps_an_analysis_error_to_exit_3(monkeypatch, error,
                                                      prefix):
    import sodekit.runner as runner

    def broken(*args, **kwargs):
        raise getattr(runner, error)("stage broke")

    monkeypatch.setattr(runner, "build_normal_coordinates", broken)
    report, code = run_command("straighten", corpus_get("quadratic-demo"))
    assert code == EXIT_NUMERIC
    assert report["error"] == f"{prefix}: stage broke"


def test_quadratic_warns_when_its_chart_cannot_be_built(monkeypatch):
    import sodekit.runner as runner

    def broken(*args, **kwargs):
        raise runner.NumericFailure("no chart")

    monkeypatch.setattr(runner, "build_normal_coordinates", broken)
    report, code = run_command("quadratic", corpus_get("quadratic-demo"))
    assert code == EXIT_OK
    assert report["warnings"] == ["coefficient extraction failed: no chart"]
    assert "error" not in report and "quadratic_coefficients" not in report


@pytest.mark.parametrize("command", ["classify", "connection", "report"])
def test_a_field_that_does_not_preserve_w_fails(command):
    # V = d/dy, W = [F, V] = -d/dx, and [F, W] = 2x d/dz leaves span(V, W)
    manifest = make_manifest("not-preserving", ["x", "y", "z"],
                             ["y", "0", "1 + x^2"], [["0", "1", "0"]])
    report, code = run_command(command, manifest)
    assert code == EXIT_MATH_FAIL
    analysis = report["analysis"]
    assert analysis["verdicts"]["f_preserves_w"]["status"] == "fail"
    assert analysis["reason"] == "[F, W] is not contained in W"


# -- charts that cannot be certified -------------------------------------------

def error_lines(out: str) -> list:
    return [line for line in out.splitlines() if "error" in line]


@pytest.mark.parametrize("command,name,extent,message", [
    # every grid node's flow leaves the box
    ("straighten", "oscillator-scrambled", "100",
     "every grid node was flagged or failed"),
    # one grid node of 243 stays in the box, and it is not cross-checked
    ("report", "routh-abelian", "1e6", "no grid node passed the cross-check"),
])
def test_cli_a_grid_beyond_the_box_is_a_numeric_failure(
        command, name, extent, message, capsys):
    assert main([command, "--corpus", name, "--extent", extent]) \
        == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert error_lines(captured.out) == [
        f"  {'straighten ' if command == 'report' else ''}error: {message}"]
    assert "Traceback" not in captured.out + captured.err


def test_cli_a_flow_without_end_stops_at_the_attempt_budget():
    # flows over times of 1e300 end only by the integrator's attempt budget
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    out = subprocess.run(
        [sys.executable, "-m", "sodekit.cli", "straighten", "--corpus",
         "timedep-scrambled", "--extent", "1e300"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=10)
    assert out.returncode == EXIT_NUMERIC, out.stderr
    assert len(error_lines(out.stdout)) == 1
    assert "Traceback" not in out.stdout + out.stderr
