from __future__ import annotations

import json
import shlex
import time
from pathlib import Path

import pytest

from floersurgery import cone
from floersurgery.cli import main, parse_q_values, parse_slope, resolve_model_path
from floersurgery.errors import ModelError
from floersurgery.numth import MAX_TABLE_P, MAX_TOTIENT_N
from floersurgery.obstruct import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_slope():
    assert parse_slope("2/5") == (1, 2, 5)
    assert parse_slope("7") == (1, 7, 1)
    assert parse_slope("-3/4") == (-1, 3, 4)
    assert parse_slope("+3/4") == (1, 3, 4)
    # one sign in front, then digits, as model rationals are written
    for text in [" 3/2", "3/2 ", "3 /2", "3/+2", "3/-2", "+-3/2", "--3/2", "3/", "/2"]:
        with pytest.raises(ModelError) as err:
            parse_slope(text)
        assert str(err.value) == f"Syntax: bad slope {text!r}; expected p/q"
    for text in ["0/1", "0", "2/0", "-0/3"]:
        with pytest.raises(ModelError) as err:
            parse_slope(text)
        assert str(err.value) == f"Syntax: slope must have positive p and q: {text!r}"


@pytest.mark.parametrize("slope", [" 3/2", "3/2 ", "3/+2"])
def test_slope_with_space_or_inner_sign_exits_2(slope, capsys):
    code, out, err = run(capsys, "surgery", "trefoil_rh_s3", slope)
    assert (code, out) == (2, "")
    assert err == f"error: Syntax: bad slope {slope!r}; expected p/q\n"


def test_parse_q_values():
    assert parse_q_values(["3", "5..8"]) == [3, 5, 6, 7, 8]


@pytest.mark.parametrize("value", ["1..x", "abc", "1...3", "..4"])
def test_unparsable_q_value_is_an_input_error(value, capsys):
    code, out, err = run(
        capsys, "obstruct", "--cosmetic-scan", "trefoil_rh_s3", "--p", "2", "--q", value
    )
    assert code == 2
    assert out == ""
    assert err == f"error: bad --q value {value!r}; expected Q or LOW..HIGH\n"


def test_reversed_q_range_is_an_input_error(capsys):
    code, out, err = run(
        capsys,
        "obstruct", "--z-special", "--p", "3", "--q", "5..1", "--chi", "1",
        "--h1", "2",
    )
    assert code == 2
    assert out == ""
    assert "empty range '5..1'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # int() reads these as 10/3, 3/2 (an Arabic-Indic three), q = 10
        # and L(10,3); model files refuse them
        (["surgery", "trefoil_rh_s3", "1_0/3"], "error: Syntax: bad slope '1_0/3'"),
        (["surgery", "trefoil_rh_s3", "٣/2"], "error: Syntax: bad slope '٣/2'"),
        (
            ["obstruct", "--cosmetic-scan", "trefoil_rh_s3", "--p", "2", "--q", "1_0"],
            "error: bad --q value '1_0'",
        ),
        (["lens", "1_0", "3"], "argument p: invalid integer value: '1_0'"),
    ],
)
def test_integers_are_ascii_digits(argv, message, capsys):
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse's own usage errors
        code = exit_.code
    out = capsys.readouterr()
    assert code == 2, argv
    assert out.out == ""
    assert message in out.err and "Traceback" not in out.err


def test_shipped_models_resolve():
    for name in ("unknot_s3", "trefoil_rh_s3.json", "figure8_s3", "sigma237_ambient"):
        assert resolve_model_path(name).is_file()


def test_surgery_text(capsys):
    code, out, _ = run(capsys, "surgery", "trefoil_rh_s3", "2/5")
    assert code == 0
    assert "dim HF_red = 3" in out
    assert "d = -7/4" in out


def test_surgery_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "surgery", "figure8_s3", "2/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_dim_red"] == 3
    assert canonical_json(payload) == out.strip()


def test_surgery_unknot_three_towers(capsys):
    code, out, _ = run(capsys, "--format", "json", "surgery", "unknot_s3", "3/1")
    payload = json.loads(out)
    assert code == 0
    assert payload["total_dim_red"] == 0
    assert [s["d"] for s in payload["spin_c"]] == ["1/2", "-1/6", "-1/6"]
    assert all(s["red"] == [] for s in payload["spin_c"])


def test_lens_text(capsys):
    code, out, _ = run(capsys, "lens", "2", "1")
    assert code == 0
    assert "s(1,2) = 0" in out
    assert "lambda = 0" in out
    assert "tau = 0" in out
    assert "{1/4, -1/4}" in out


def test_lens_trivial(capsys):
    code, out, _ = run(capsys, "lens", "1", "1")
    assert code == 0
    assert "{0}" in out


def test_lens_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "lens", "3", "1")
    assert code == 0
    assert canonical_json(json.loads(out)) == out.strip()


def test_lens_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "lens", "4", "2")
    assert code == 2
    assert "gcd" in err


def test_casson_walker(capsys):
    code, out, _ = run(capsys, "casson-walker", "figure8_s3", "2/1")
    assert code == 0
    assert "-1/2" in out
    assert "consistent: yes" in out


def test_obstruct_lens_complement(capsys):
    code, out, _ = run(capsys, "obstruct", "--lens-complement", "4", "1", "2")
    assert code == 0
    assert '"candidates":[0,-2]' in out


def test_obstruct_z_special(capsys):
    code, out, _ = run(
        capsys,
        "obstruct", "--z-special", "--h1", "2", "--chi", "1",
        "--p", "2", "--q", "3", "--q", "7",
    )
    assert code == 0
    assert "Z_SPECIAL: FAIL" in out


def test_k_special_takes_h1_from_p(capsys):
    # N = 2 |H1(Z)| dim HF_red(Y) + dim HF_red(Z) = 2*5*1 + 1, so q = 4
    # does not exceed it
    code, out, _ = run(
        capsys,
        "--format", "json",
        "obstruct", "--k-special", "sigma237_ambient", "--p", "5", "--q", "4",
        "--dim-red", "1",
    )
    assert code == 0
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["status"] == "inapplicable"
    assert verdict["witness"]["N"] == 11


def test_z_special_takes_h1_from_p(capsys):
    # |H1(Z)| = 3 does not divide chi = 1, and phi(3) = 2 < 4 slopes
    code, out, _ = run(
        capsys,
        "--format", "json",
        "obstruct", "--z-special", "--p", "3", "--q", "1..2", "--q", "4..5",
        "--chi", "1",
    )
    assert code == 0
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["status"] == "fail"
    assert verdict["witness"]["h1_order"] == 3
    assert verdict["witness"]["slope_bound"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--k-special", "sigma237_ambient", "--p", "5", "--q", "4", "--chi", "1"],
         "this rule needs --dim-red"),
        (["--v0-bound", "trefoil_rh_s3", "--p", "5", "--q", "4"],
         "this rule needs --dim-red"),
        (["--v0-bound", "trefoil_rh_s3", "--q", "4", "--dim-red", "1"],
         "--v0-bound needs --p and --q"),
        (["--z-special", "--p", "3", "--q", "1", "--dim-red", "1"],
         "this rule needs --chi"),
        (["--chi-relation", "1", "--chi", "2"], "--chi-relation needs --p"),
    ],
    ids=["k_special", "v0_bound", "v0_bound_p", "z_special", "chi_relation"],
)
def test_obstruct_rules_need_the_numbers_they_read(argv, message, capsys):
    code, out, err = run(capsys, "obstruct", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: Syntax: {message}\n"


def test_obstruct_chi_relation(capsys):
    # chi(HF_red(Z)) = p chi(HF_red(Y)) and p | chi(HF_red(Z)), read with
    # --p alone: chi 3 at p = 3 over chi(Y) = 1 passes both, chi 2 fails both
    argv = ["obstruct", "--chi-relation", "1", "--p", "3", "--chi"]
    assert run(capsys, *argv, "3") == (
        0,
        'CHI_EQ: PASS  {"chi_red_y":1,"chi_red_z":3,"expected":3,"p":3}\n'
        'CHI_DIVIS: PASS  {"chi_red_y":1,"chi_red_z":3,"p":3}\n',
        "",
    )
    code, out, _ = run(capsys, "--format", "json", *argv, "2")
    verdicts = json.loads(out)["verdicts"]
    assert code == 0
    assert [(v["rule"], v["status"]) for v in verdicts] == [
        ("CHI_EQ", "fail"),
        ("CHI_DIVIS", "fail"),
    ]


@pytest.mark.parametrize("argv", [[], ["--p", "3", "--q", "1"]], ids=["bare", "numbers"])
def test_obstruct_without_a_rule_exits_2(argv, capsys):
    assert run(capsys, "obstruct", *argv) == (
        2,
        "",
        "error: Syntax: no obstruction rule selected\n",
    )


def test_genus_bound_runs_without_chi(capsys):
    code, out, _ = run(
        capsys,
        "obstruct", "--genus-bound", "sigma237_ambient", "--p", "1", "--q", "3",
        "--d-excess", "5/2",
    )
    assert code == 0
    assert out.startswith("GENUS_BOUND: ")


def test_obstruct_cosmetic_scan(capsys):
    code, out, _ = run(
        capsys,
        "obstruct", "--cosmetic-scan", "trefoil_rh_s3", "--p", "2", "--q", "1..9",
    )
    assert code == 0
    assert "no cosmetic pairs" in out


def test_obstruct_cosmetic_scan_names_only_the_scanned_q(capsys):
    # q = 2 and 4 are not coprime to 4, so the scan never computes them
    code, out, _ = run(
        capsys, "obstruct", "--cosmetic-scan", "unknot_s3", "--p", "4", "--q", "1..4"
    )
    assert code == 0
    assert out == (
        "COSMETIC_SCAN: no cosmetic pairs for unknot_s3 p=4 q in [1, 3]; "
        "skipped q=2, 4 (not coprime to 4)\n"
    )
    code, out, _ = run(
        capsys, "obstruct", "--cosmetic-scan", "unknot_s3", "--p", "2", "--q=-1..3"
    )
    assert code == 0
    assert out == (
        "COSMETIC_SCAN: pairs with matching Floer data: (1,3); "
        "skipped q=-1, 0 (not positive); skipped q=2 (not coprime to 2)\n"
    )
    # the JSON q_range is the requested list
    code, out, _ = run(
        capsys,
        "--format", "json",
        "obstruct", "--cosmetic-scan", "unknot_s3", "--p", "4", "--q", "1..4",
    )
    assert code == 0
    assert json.loads(out)["cosmetic_scans"][0]["q_range"] == [1, 2, 3, 4]


def test_obstruct_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "obstruct", "--dedekind-necessary", "5", "1", "1",
        "--lens-complement", "4", "1", "2",
    )
    assert code == 0
    assert canonical_json(json.loads(out)) == out.strip()


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "unknot_s3", "sigma237_ambient")
    assert code == 0
    assert "unknot_s3: ok" in out
    assert "ambient summary" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}', encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "Syntax" in out


def test_validate_reports_a_missing_file_and_goes_on(capsys):
    code, out, err = run(
        capsys, "validate", "trefoil_rh_s3", "missing.json", "figure8_s3"
    )
    assert code == 2
    assert err == ""
    assert out.splitlines() == [
        "trefoil_rh_s3: ok",
        "missing.json: Syntax: model file not found: missing.json",
        "figure8_s3: ok",
    ]


def test_missing_model_is_input_error(capsys):
    code, _, err = run(capsys, "surgery", "no_such_model", "2/3")
    assert code == 2
    assert "not found" in err


def test_truncation_too_small_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cone, "default_depth", lambda model, shape: 1)
    code, _, err = run(capsys, "surgery", "trefoil_rh_s3", "2/3")
    assert code == 3
    assert err == (
        "error: trefoil_rh_s3 at 2/3 block 0: towers cut below the safe minimum\n"
    )
    assert "depth" not in err


def test_depth_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--depth", "8", "surgery", "trefoil_rh_s3", "2/3"])
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: floersurgery")


@pytest.mark.parametrize(
    "argv",
    [
        # the first trefoil 2/q whose tower bottoms are over the limit:
        # 125,001 A-columns and 125,000 B-columns in block 0
        ("surgery", "trefoil_rh_s3", "2/249999"),
        # a window of 10^8 columns
        ("surgery", "trefoil_rh_s3", "2/100000001"),
    ],
    ids=["first_over", "window"],
)
def test_oversized_cone_is_refused_quickly(capsys, argv):
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1
    assert code == 2
    assert out == ""
    assert "generators" in err
    assert "depth" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, p",
    [
        (("lens", "99999999999999999999", "1"), 99999999999999999999),
        (("lens", "20000000", "3"), 20000000),
        # surgery reads one whole lens table
        (("surgery", "trefoil_rh_s3", "1000000/1"), 1000000),
        # V0_BOUND's witness lists one n_i per block
        (
            ("obstruct", "--v0-bound", "trefoil_rh_s3", "--p", "300000000",
             "--q", "1", "--dim-red", "0"),
            300000000,
        ),
    ],
    ids=["lens_huge", "lens_20000000", "surgery_1000000", "v0_bound_300000000"],
)
def test_oversized_lens_table_is_refused_quickly(capsys, argv, p):
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1
    assert code == 2
    assert out == ""
    assert f"{p} entries, more than the limit of {MAX_TABLE_P}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "q_range, count",
    [
        ("2..600002", 600001),
        ("1..1000000000000", 1000000000000),
        # beyond a machine-sized length
        ("1..99999999999999999999", 99999999999999999999),
    ],
)
def test_oversized_q_list_is_refused_quickly(capsys, q_range, count):
    argv = "obstruct --cosmetic-scan trefoil_rh_s3 --p 5 --q"
    started = time.monotonic()
    code, out, err = run(capsys, *argv.split(), q_range)
    assert time.monotonic() - started < 1
    assert code == 2
    assert out == ""
    assert f"{count} q values, more than the limit of {MAX_TABLE_P}" in err
    assert "Traceback" not in err


def test_oversized_h1_order_is_refused_quickly(capsys):
    # Z_SPECIAL takes the totient of --h1, which trial division would not
    # finish for this prime
    h1 = 1000000000000000003
    argv = "obstruct --z-special --p 2 --q 1 --q 3 --chi 1 --dim-red 1 --h1"
    started = time.monotonic()
    code, out, err = run(capsys, *argv.split(), str(h1))
    assert time.monotonic() - started < 1
    assert code == 2
    assert out == ""
    assert f"totient of {h1}: more than the limit of {MAX_TOTIENT_N}" in err
    assert "Traceback" not in err


def test_negative_slope_requires_mirror(capsys):
    code, _, err = run(capsys, "surgery", "figure8_s3", "--", "-2/1")
    assert code == 2
    assert "--mirror" in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("surgery", "negative slopes need --mirror MODEL"),
        ("casson-walker", "casson-walker expects a positive slope"),
    ],
)
def test_negative_slope_needs_no_double_dash(command, message, capsys):
    # -5/2 is the slope, not an unknown option, with or without "--"
    for dashes in ([], ["--"]):
        argv = [command, "trefoil_rh_s3", *dashes, "-5/2"]
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert message in err and "Traceback" not in err


def test_negative_d_excess_is_a_value(capsys):
    code, out, _ = run(
        capsys, "obstruct", "--genus-bound", "sigma237_ambient",
        "--p", "3", "--q", "2", "--d-excess", "-5/2",
    )
    assert code == 0
    assert '"D_Z":"-5/2"' in out


def test_negative_slope_before_mirror(capsys):
    code, out, _ = run(
        capsys, "surgery", "figure8_s3", "-2/1", "--mirror", "figure8_s3"
    )
    assert code == 0
    assert "orientation reversal" in out


def test_negative_slope_with_mirror(capsys):
    # the figure-eight is amphichiral, so it serves as its own mirror
    code, out, _ = run(
        capsys,
        "surgery", "figure8_s3", "--mirror", "figure8_s3", "--", "-2/1",
    )
    assert code == 0
    assert "orientation reversal" in out
    assert "dim HF_red = 1" in out


def test_mirror_with_a_positive_slope_is_refused(capsys):
    code, out, err = run(
        capsys, "surgery", "trefoil_rh_s3", "--mirror", "figure8_s3", "2/1"
    )
    assert code == 2
    assert out == ""
    assert "Syntax" in err and "--mirror" in err


def _readme_commands() -> list[str]:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("floersurgery ")]


def test_readme_lists_the_command_examples():
    assert len(_readme_commands()) >= 9


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_examples_run(line, capsys):
    code, _, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0, err


def test_readme_library_example_runs(monkeypatch):
    # each commented value of the example is the repr of the expression
    # on its line, or on the line above for a comment on a line of its own
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(Path(__file__).parents[1])
    namespace: dict = {}
    checked, value = 0, None
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            try:
                value = eval(compile(code, "README", "eval"), namespace)
            except SyntaxError:
                exec(code, namespace)
                value = None
        if comment:
            assert repr(value) == comment.strip(), line
            checked += 1
    assert checked == block.count("#") == 5


def _edited_model(tmp_path, name, edit):
    doc = json.loads(resolve_model_path(name).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / f"{name}_edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _increasing_v(doc):
    doc["V"] = [0, 1]


def test_validate_reports_the_error_of_a_broken_model(tmp_path, capsys):
    path = _edited_model(tmp_path, "trefoil_rh_s3", _increasing_v)
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert "MonotonicityViolation" in out
    assert "ambient summary" not in out


@pytest.mark.parametrize("rule", ["--k-special", "--genus-bound"])
def test_obstruct_reports_the_error_of_a_broken_model(rule, tmp_path, capsys):
    path = _edited_model(tmp_path, "trefoil_rh_s3", _increasing_v)
    code, out, err = run(
        capsys,
        "obstruct", rule, path, "--p", "1", "--q", "9", "--dim-red", "1",
        "--d-excess", "3",
    )
    assert code == 2
    assert out == ""
    assert "MonotonicityViolation" in err


def _half_step_block(doc):
    doc["a_red"]["0"]["generators"][0]["grading"] = "-1/2"


def _half_step_ambient(doc):
    doc["ambient"]["b_red"][0]["grading"] = "-1/2"


@pytest.mark.parametrize(
    "name, edit",
    [("figure8_s3", _half_step_block), ("sigma237_ambient", _half_step_ambient)],
    ids=["a_red", "ambient"],
)
def test_validate_rejects_half_step_grading(name, edit, tmp_path, capsys):
    code, out, _ = run(capsys, "validate", _edited_model(tmp_path, name, edit))
    assert code == 2
    assert "ParityMismatch" in out
    assert "is not an integer" in out


def _list_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]", encoding="utf-8")
    return path


def _a_red_key_x(doc):
    doc["a_red"] = {"x": doc["a_red"]["0"]}


def _huge_ambient_d(doc):
    doc["ambient"]["d"] = "1" * 5000  # over int's digit limit


@pytest.mark.parametrize(
    "write, message",
    [
        (_list_document, "top level must be an object"),
        (lambda tmp: tmp, "cannot read"),
        (lambda tmp: _edited_model(tmp, "figure8_s3", _a_red_key_x),
         "a_red key 'x' is not an integer"),
        (lambda tmp: _edited_model(tmp, "figure8_s3", _huge_ambient_d),
         "ambient.d: "),
    ],
    ids=["list", "directory", "a_red_key", "huge_rational"],
)
def test_validate_refuses_a_hostile_document(write, message, tmp_path, capsys):
    path = write(tmp_path)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (2, "")
    assert out.startswith(f"{path}: Syntax: ")
    assert message in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--v0-bound", "trefoil_rh_s3", "--p", "3", "--q", "0", "--dim-red", "1"],
         "the bound applies to positive slopes"),
        (["--lens-complement", "4", "1", "-2"],
         "winding number must be non-negative"),
        (["--z-special", "--h1", "0", "--chi", "1", "--p", "2", "--q", "3"],
         "h1_order must be positive"),
        (["--k-special", "sigma237_ambient", "--dim-red", "-1", "--p", "2",
          "--q", "9"],
         "dim_red must be non-negative"),
    ],
    ids=["v0_bound_q", "winding", "h1", "dim_red"],
)
def test_obstruct_refuses_out_of_range_numbers(argv, message, capsys):
    code, out, err = run(capsys, "obstruct", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _zero_d(doc):
    doc["ambient"]["d"] = "1/0"


def _zero_offset(doc):
    doc["a_red"]["0"]["tower_offset"] = "1/0"


def _zero_grading(doc):
    doc["a_red"]["0"]["generators"][0]["grading"] = "1/0"


@pytest.mark.parametrize(
    "edit",
    [_zero_d, _zero_offset, _zero_grading, None],
    ids=["ambient_d", "tower_offset", "grading", "d_excess"],
)
def test_zero_denominator_is_a_syntax_error(edit, tmp_path, capsys):
    if edit is None:
        argv = [
            "obstruct", "--genus-bound", "sigma237_ambient", "--p", "1",
            "--q", "3", "--chi", "1", "--d-excess", "1/0",
        ]
    else:
        argv = ["surgery", _edited_model(tmp_path, "figure8_s3", edit), "2/1"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Syntax" in err
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--z-special", "--p", "0", "--q", "1", "--chi", "1"],
        ["--chi-relation", "1", "--p", "0", "--chi", "0"],
        [
            "--genus-bound", "sigma237_ambient", "--p", "0", "--q", "3",
            "--chi", "1", "--d-excess", "3",
        ],
        ["--d-sandwich", "trefoil_rh_s3", "--p", "0", "--q", "1"],
        ["--d-sandwich", "trefoil_rh_s3", "--p", "-3", "--q", "1"],
        ["--cosmetic-scan", "trefoil_rh_s3", "--p", "-2", "--q", "1..5"],
    ],
    ids=[
        "z_special",
        "chi_relation",
        "genus_bound",
        "d_sandwich_0",
        "d_sandwich_-3",
        "cosmetic_scan",
    ],
)
def test_obstruct_rules_reject_nonpositive_p(argv, capsys):
    code, out, err = run(capsys, "obstruct", *argv)
    assert code == 2
    assert out == ""
    assert "p must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        [
            "--genus-bound", "sigma237_ambient", "--p", "2", "--q", "4",
            "--chi", "1", "--d-excess", "3",
        ],
        ["--v0-bound", "trefoil_rh_s3", "--p", "3", "--q", "6", "--dim-red", "1"],
        ["--k-special", "sigma237_ambient", "--p", "0", "--q", "40", "--dim-red", "1"],
    ],
    ids=["genus_bound_2_4", "v0_bound_3_6", "k_special_0_40"],
)
def test_obstruct_rules_reject_non_slopes(argv, capsys):
    code, out, err = run(capsys, "obstruct", *argv)
    assert code == 2
    assert out == ""
    assert "not coprime" in err or "p must be positive" in err


def _u_row_not_a_list(doc):
    doc["a_red"]["0"]["u_matrix"] = [1]


def test_validate_rejects_a_u_row_that_is_not_a_list(tmp_path, capsys):
    path = _edited_model(tmp_path, "figure8_s3", _u_row_not_a_list)
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert "Syntax: a_red[0].u_matrix must be 1x1" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "is nested too deeply"),
        ('{"genus": ' + "1" * 5000 + "}", "is not valid JSON: Exceeds the limit"),
    ],
    ids=["nested", "long_integer"],
)
def test_unparsable_model_file_is_a_syntax_error(text, message, tmp_path, capsys):
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    started = time.monotonic()
    code, out, err = run(capsys, "validate", str(path), "unknot_s3")
    assert time.monotonic() - started < 1
    assert code == 2
    assert err == ""
    first, second = out.splitlines()
    assert first.startswith(f"{path}: Syntax: {path} ") and message in first
    assert second == "unknot_s3: ok"


def _exponent_d(doc):
    doc["ambient"]["d"] = "1e99999999"


@pytest.mark.parametrize("where", ["model", "d_excess"])
def test_rational_with_an_exponent_is_refused_quickly(where, tmp_path, capsys):
    # Fraction would expand the exponent; rationals are a/b or integers
    if where == "model":
        argv = ["validate", _edited_model(tmp_path, "figure8_s3", _exponent_d)]
    else:
        argv = [
            "obstruct", "--genus-bound", "sigma237_ambient", "--p", "1",
            "--q", "3", "--chi", "1", "--d-excess", "1e99999999",
        ]
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1
    assert code == 2
    assert "Syntax" in out + err
    assert "'1e99999999' is not a rational 'a/b' or an integer" in out + err


def test_far_apart_ambient_gradings_are_solved_quickly(tmp_path, capsys):
    # two reduced generators 2 * 10^9 apart: the barcode visits the two
    # occupied gradings, not the empty ones between them
    far = {
        "name": "unknot_far",
        "ambient": {
            "name": "far",
            "d": "0",
            "b_red": [
                {"grading": "1", "parity": 1},
                {"grading": "2000000001", "parity": 1},
            ],
            "u_matrix": [[0, 0], [0, 0]],
        },
        "genus": 0,
        "V": [0],
        "a_red": {},
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(far), encoding="utf-8")
    started = time.monotonic()
    assert run(capsys, "validate", str(path)) == (0, "unknot_far: ok\n", "")
    code, out, err = run(capsys, "surgery", str(path), "1/1")
    assert time.monotonic() - started < 1
    assert (code, err) == (0, "")
    assert "red: tau(1;1;p1) tau(2000000001;1;p1)" in out
