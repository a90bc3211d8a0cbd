import json
import re

import pytest

from sodekit.cli import main
from sodekit.corpus import corpus_get, corpus_list, corpus_raw
from sodekit.manifest import ManifestError, load_manifest, load_manifest_text
from sodekit.runner import (
    EXIT_INPUT, EXIT_MATH_FAIL, EXIT_NUMERIC, EXIT_OK, report_to_json,
    run_check, run_classify, run_command, run_report, run_straighten,
)


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
    report, code = run_check(corpus_get("oscillator-scrambled"))
    assert code == EXIT_OK
    assert report["verdicts"]["regularity"]["status"] == "pass"
    assert report["verdicts"]["w_involutive"]["involutive"] is True


def test_run_check_fails_on_degenerate_field():
    manifest = load_manifest(inline_manifest(
        field={"components": ["x", "0"]}
    ))
    report, code = run_check(manifest)
    assert code == EXIT_MATH_FAIL
    assert report["verdicts"]["regularity"]["status"] == "fail"


def test_run_classify_cases():
    report, code = run_classify(corpus_get("oscillator-scrambled"))
    assert code == EXIT_OK
    assert report["analysis"]["classification"] == "case1-sode-with-parameters"
    assert report["analysis"]["parameter_count"] == 0
    report, code = run_classify(corpus_get("timedep-scrambled"))
    assert code == EXIT_OK
    assert report["analysis"]["classification"] == "case2-time-dependent"
    assert report["analysis"]["parameter_count"] == 1
    assert report["analysis"]["extra_parameter_count"] == 0
    report, code = run_classify(corpus_get("routh-abelian"))
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
    report, code = run_straighten(manifest)
    assert code == EXIT_NUMERIC
    assert "cross-section" in report["error"]


def test_run_report_all_corpus_instances_pass():
    for name in corpus_list():
        manifest = corpus_get(name)
        report, code = run_command("report", manifest)
        if name == "cubic-demo":
            # not of quadratic type, but still a healthy second-order field
            assert code == EXIT_OK
            assert report["analysis"]["mixed_curvature"]["verdict"] \
                == "not_quadratic"
        else:
            assert code == EXIT_OK, name
        suites = report["analysis"]["identity_suites"]
        assert all(s["status"] == "pass" for s in suites), name


def test_run_report_deterministic_excluding_timings():
    manifest = corpus_get("quadratic-demo")
    r1, _ = run_report(manifest)
    r2, _ = run_report(manifest)
    del r1["timings"], r2["timings"]
    assert report_to_json(r1) == report_to_json(r2)


# -- CLI entry point -------------------------------------------------------------

def test_cli_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == corpus_list()


def test_cli_corpus_show(capsys):
    assert main(["corpus", "--show", "cubic-demo"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown == json.loads(json.dumps(corpus_raw("cubic-demo")))


def test_cli_classify_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["classify", "--corpus", "cubic-demo", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["analysis"]["classification"] == "case1-sode-with-parameters"
    assert "timings" in data


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


def test_cli_degenerate_expression_is_input_error(tmp_path):
    # parses fine but normalizes into a division by zero during analysis
    bad = tmp_path / "div0.json"
    bad.write_text(json.dumps(inline_manifest(
        field={"components": ["y", "1/(x - x)"]}
    )))
    assert main(["check", str(bad)]) == EXIT_INPUT


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
    assert "grid must be an integer >= 1" in capsys.readouterr().err


def test_cli_non_numeric_tolerance_is_input_error(tmp_path, capsys):
    bad = tmp_path / "tol.json"
    bad.write_text(json.dumps(inline_manifest(options={"tolerance": "abc"})))
    assert main(["report", str(bad)]) == EXIT_INPUT
    assert "must be numbers" in capsys.readouterr().err


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
])
def test_cli_wrong_manifest_shape_is_input_error(tmp_path, capsys, shape,
                                                 message):
    assert main(["check", write_manifest(tmp_path, **shape)]) == EXIT_INPUT
    assert re.search(message, capsys.readouterr().err)


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
    ({"zero_tol": 0}, "option 'zero_tol' must be a positive number"),
])
def test_cli_bad_option_is_input_error(tmp_path, capsys, options, message):
    path = write_manifest(tmp_path, options=options)
    assert main(["classify", path]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_cli_bad_override_is_input_error(capsys):
    assert main(["classify", "--corpus", "cubic-demo",
                 "--samples", "0"]) == EXIT_INPUT
    assert "option 'samples'" in capsys.readouterr().err


def test_cli_deeply_nested_expression_is_input_error(tmp_path, capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    path = write_manifest(tmp_path, field={"components": ["y", deep]})
    assert main(["straighten", path]) == EXIT_INPUT
    assert "nested deeper than 100 levels" in capsys.readouterr().err
