"""Exit codes, pinned outputs, determinism, and config resolution."""

import json

import pytest

from altfrob import cli
from altfrob.deform import problem_to_json, trivial_deformation_problem, universal_big_quantum
from altfrob.grassmann import QLRTable, alt_structure_constants
from altfrob.linalg import Mat
from altfrob.mirror import mirror_brieskorn
from altfrob.presaito import PreSaitoFamily, dumps_family, loads_family, wedge
from altfrob.projective import build_pn, pn_small_family
from altfrob.rings import Laurent, Series


MISSING = object()  # a field value that deletes the field


def set_field(doc, key, value):
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_usage_error(code, out, err, message):
    assert code == 2
    assert out == ""
    assert err.startswith("altfrob: error: ") and message in err
    assert err.count("\n") == 1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(["grassmann", "--r", "2", "--n", "3", "--bogus"], capsys)
        assert code == 2
        assert "usage:" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == 2
        assert "usage:" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 2

    def test_out_of_range_arguments(self, capsys):
        code, _, err = run(["grassmann", "--r", "5", "--n", "3"], capsys)
        assert code == 2
        assert "1 <= r <= n" in err
        code, _, _ = run(["pn", "--n", "0"], capsys)
        assert code == 2
        code, _, _ = run(["gw", "--dmax", "0"], capsys)
        assert code == 2
        code, out, err = run(["pn", "--n", "2", "--check", "--order", "-1"], capsys)
        assert_one_line_usage_error(code, out, err, "--order must be at least 0")

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(["verify", "--family", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "not found" in err

    @pytest.mark.parametrize("argv,message", [
        (["mirror", "--n", "2", "--b-max", "0"], "--b-max must be at least 1"),
        (["mirror", "--n", "2", "--b-max", "2"], "did not stabilize"),
        (["mirror", "--n", "2", "--compare", "--b-max", "2"], "did not stabilize"),
    ], ids=["zero", "algebra", "compare"])
    def test_mirror_box_bound(self, capsys, argv, message):
        assert_one_line_usage_error(*run(argv, capsys), message)

    def test_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "counts.txt"
        code, out, err = run(["gw", "--dmax", "1", "--out", str(target)], capsys)
        assert_one_line_usage_error(code, out, err, "cannot write")


class TestPinnedOutputs:
    def test_gw_dmax_3(self, capsys):
        code, out, _ = run(["gw", "--dmax", "3"], capsys)
        assert code == 0
        assert out == "N=[1,1,12]\n"

    def test_grassmann_oracle_2_3(self, capsys):
        code, out, _ = run(["grassmann", "--r", "2", "--n", "3", "--oracle"], capsys)
        assert code == 0
        assert out == "tables agree (20 products)\n"

    def test_grassmann_oracle_accepts_seed(self, capsys):
        code, out, _ = run(["grassmann", "--r", "1", "--n", "2",
                            "--oracle", "--seed", "5"], capsys)
        assert code == 0
        assert "tables agree" in out

    def test_gw_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "wdvv_oracle", lambda dmax: [0] * dmax)
        code, _, err = run(["gw", "--dmax", "2"], capsys)
        assert code == 1
        assert "check failed" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["grassmann", "--r", "2", "--n", "3"],
        ["grassmann", "--r", "2", "--n", "3", "--format", "csv"],
        ["grassmann", "--r", "2", "--n", "3", "--metric"],
        ["mirror", "--n", "2"],
        ["pn", "--n", "2"],
    ])
    def test_repeated_runs_are_byte_identical(self, argv, capsys):
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")

    @pytest.mark.parametrize("argv", [
        ["grassmann", "--r", "2", "--n", "3"],
        ["grassmann", "--r", "2", "--n", "3", "--metric"],
        ["mirror", "--n", "2"],
        ["mirror", "--n", "3", "--wedge", "2"],
        ["pn", "--n", "2"],
    ])
    def test_json_layout_is_sorted_with_indent_2(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_json_keys_are_sorted(self, capsys):
        _, out, _ = run(["mirror", "--n", "1"], capsys)
        doc = json.loads(out)
        assert list(doc) == sorted(doc)


class TestFormats:
    def test_csv_header(self, capsys):
        code, out, _ = run(["grassmann", "--r", "2", "--n", "2",
                            "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "lambda,mu,nu,qpow,coef"

    def test_pretty_lists_products(self, capsys):
        code, out, _ = run(["grassmann", "--r", "2", "--n", "2",
                            "--format", "pretty"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "alternate product on G(2, 3)"
        assert "(1) . (1 1) = (-) * [q]" in out

    def test_metric_payload_shape(self, capsys):
        code, out, _ = run(["grassmann", "--r", "2", "--n", "3", "--metric"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["r"] == 2 and doc["n"] == 3
        assert len(doc["partitions"]) == 6
        assert len(doc["entries"]) == 6

    def test_table_json_round_trips(self, capsys):
        code, out, _ = run(["grassmann", "--r", "3", "--n", "6"], capsys)
        assert code == 0
        assert QLRTable.from_json(json.loads(out)) == alt_structure_constants(3, 6)

    def test_out_flag_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run(["grassmann", "--r", "2", "--n", "3",
                            "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["r"] == 2


class TestPnAndVerify:
    def test_pn_emits_loadable_family(self, capsys):
        code, out, _ = run(["pn", "--n", "2"], capsys)
        assert code == 0
        fam = loads_family(out)
        assert fam.d == 3

    def test_pn_check_passes(self, capsys):
        code, out, _ = run(["pn", "--n", "3", "--check"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "pre-Saito relations" in out
        assert "metric relations" in out

    def test_verify_round_trip(self, capsys, tmp_path):
        fam_path = tmp_path / "p2.json"
        code, _, _ = run(["pn", "--n", "2", "--out", str(fam_path)], capsys)
        assert code == 0
        code, out, _ = run(["verify", "--family", str(fam_path)], capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_verify_mirror_wedge(self, capsys, tmp_path):
        fam_path = tmp_path / "mirror3-wedge2.json"
        fam_path.write_text(dumps_family(wedge(mirror_brieskorn(3)[0], 2)))
        code, out, _ = run(["verify", "--family", str(fam_path)], capsys)
        assert code == 0
        assert "FAIL" not in out and "pre-Saito relations" in out

    def test_verify_flags_a_corrupted_family(self, capsys, tmp_path):
        fam_path = tmp_path / "p2.json"
        run(["pn", "--n", "2", "--out", str(fam_path)], capsys)
        doc = json.loads(fam_path.read_text())
        doc["w"] = "5"
        fam_path.write_text(json.dumps(doc))
        code, out, _ = run(["verify", "--family", str(fam_path)], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_verify_flags_a_top_degree_perturbation(self, capsys, tmp_path):
        fam = universal_big_quantum(pn_small_family(2), 3)
        rows = [list(r) for r in fam.C["t2"].rows]
        rows[1][0] = rows[1][0] + Series(fam.svars, 3, {(0, 3): Laurent.gen(fam.qvars, "q")})
        bad = PreSaitoFamily(fam.base, fam.d, fam.Binf, fam.B0, {**fam.C, "t2": Mat(rows)},
                             fam.G, fam.w, fam.order, fam.params)
        fam_path = tmp_path / "bad.json"
        fam_path.write_text(dumps_family(bad))
        code, out, _ = run(["verify", "--family", str(fam_path)], capsys)
        assert code == 1
        assert "FAIL  [C(q), C(t2)] = 0  [entry (1,2), deformation exponent [0, 3]: q^2]" in out
        assert run(["verify", "--family", str(fam_path), "--order", "2"], capsys)[0] == 0

    def test_verify_rejects_malformed_family(self, capsys, tmp_path):
        fam_path = tmp_path / "bad.json"
        fam_path.write_text("{not json")
        code, _, err = run(["verify", "--family", str(fam_path)], capsys)
        assert code == 2
        assert "could not parse" in err

    @pytest.mark.parametrize("field,value,message", [
        ("w", [1], "w must be a rational string or an integer"),
        ("rank", 1.5, "rank must be a positive integer"),
    ], ids=["w-list", "rank-float"])
    def test_verify_rejects_mistyped_field(self, capsys, tmp_path,
                                           field, value, message):
        fam_path = tmp_path / "p1.json"
        run(["pn", "--n", "1", "--out", str(fam_path)], capsys)
        doc = json.loads(fam_path.read_text())
        doc[field] = value
        fam_path.write_text(json.dumps(doc))
        code, out, err = run(["verify", "--family", str(fam_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("altfrob: error: ") and message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_verify_rejects_non_object_family(self, capsys, tmp_path):
        fam_path = tmp_path / "list.json"
        fam_path.write_text("[1]")
        code, out, err = run(["verify", "--family", str(fam_path)], capsys)
        assert_one_line_usage_error(code, out, err, "must be a JSON object")

    # (path into the pn --n 1 document, new value, message)
    MALFORMED = [
        (["vars"], 5, "vars must be a list of strings, got 5"),
        (["B0"], 5, "B0 must be a list of lists, got 5"),
        (["B0", 1, 0], [["x", "2"]], "an exponent must be an integer or a list of integers"),
        (["B0", 1, 0], [[0, "1/0"]], "zero denominator in '1/0'"),
        (["Binf", 1, 1], 0.5, "expected a rational string or an integer, got 0.5"),
        (["B0", 1, 0], [[0, 0.5]], "expected a rational string or an integer, got 0.5"),
        (["Binf"], MISSING, "missing field Binf"),
        (["C", "q"], MISSING, "missing field C[q]"),
    ]

    @pytest.mark.parametrize("command", ["verify", "hm"])
    @pytest.mark.parametrize("path,value,message", MALFORMED,
                             ids=["vars-int", "B0-int", "exponent-str", "zero-denominator",
                                  "Binf-float", "entry-float", "missing-Binf", "C-without-q"])
    def test_malformed_family_is_an_input_error(self, capsys, tmp_path, command,
                                                path, value, message):
        fam_path = tmp_path / "p1.json"
        run(["pn", "--n", "1", "--out", str(fam_path)], capsys)
        doc = json.loads(fam_path.read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        set_field(target, path[-1], value)
        fam_path.write_text(json.dumps(doc))
        psi_path = tmp_path / "psi.json"
        psi_path.write_text(json.dumps(problem_to_json(
            trivial_deformation_problem(build_pn(1), (1, 0), order=4))))
        argv = ["verify", "--family", str(fam_path)] if command == "verify" else \
            ["hm", "--family", str(fam_path), "--psi", str(psi_path)]
        code, out, err = run(argv, capsys)
        assert_one_line_usage_error(code, out, err, message)

    @pytest.mark.parametrize("order,message", [
        ("99", "--order 99 exceeds the family's truncation 3"),
        ("4", "--order 4 exceeds the family's truncation 3"),
        ("-1", "--order must be at least 0, got -1"),
    ], ids=["99", "4", "negative"])
    def test_verify_order_out_of_range_is_rejected(self, capsys, tmp_path, order, message):
        fam_path, psi_path = tmp_path / "p1.json", tmp_path / "psi.json"
        run(["pn", "--n", "1", "--out", str(fam_path)], capsys)
        psi_path.write_text(json.dumps(problem_to_json(
            trivial_deformation_problem(build_pn(1), (1, 0), order=3))))
        ext_path = tmp_path / "ext.json"
        assert run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                    "--out", str(ext_path)], capsys)[0] == 0
        assert run(["verify", "--family", str(ext_path), "--order", "3"], capsys)[0] == 0
        code, out, err = run(["verify", "--family", str(ext_path), "--order", order], capsys)
        assert_one_line_usage_error(code, out, err, message)

    @pytest.mark.parametrize("value,message", [
        (None, "order must be a non-negative integer, got None"),
        (-1, "order must be a non-negative integer, got -1"),
        ("3", "order must be a non-negative integer, got '3'"),
    ], ids=["missing", "negative", "str"])
    def test_series_family_order_is_checked(self, capsys, tmp_path, value, message):
        fam_path, psi_path = tmp_path / "p1.json", tmp_path / "psi.json"
        run(["pn", "--n", "1", "--out", str(fam_path)], capsys)
        psi_path.write_text(json.dumps(problem_to_json(
            trivial_deformation_problem(build_pn(1), (1, 0), order=3))))
        ext_path = tmp_path / "ext.json"
        assert run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                    "--out", str(ext_path)], capsys)[0] == 0
        doc = json.loads(ext_path.read_text())
        doc.pop("order")
        if value is not None:
            doc["order"] = value
        ext_path.write_text(json.dumps(doc))
        code, out, err = run(["verify", "--family", str(ext_path)], capsys)
        assert_one_line_usage_error(code, out, err, message)


class TestHm:
    @pytest.fixture()
    def inputs(self, capsys, tmp_path):
        fam_path = tmp_path / "p1.json"
        assert run(["pn", "--n", "1", "--out", str(fam_path)], capsys)[0] == 0
        problem = trivial_deformation_problem(build_pn(1), (1, 0), order=4)
        psi_path = tmp_path / "psi.json"
        psi_path.write_text(json.dumps(problem_to_json(problem)))
        return fam_path, psi_path

    def test_extension_round_trip(self, capsys, tmp_path, inputs):
        fam_path, psi_path = inputs
        out_path = tmp_path / "extended.json"
        code, _, _ = run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                          "--out", str(out_path)], capsys)
        assert code == 0
        extended = loads_family(out_path.read_text())
        assert "y" in [v.name for v in extended.base]
        code, out, _ = run(["verify", "--family", str(out_path)], capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_extension_layout_is_sorted_with_indent_2(self, capsys, tmp_path, inputs):
        fam_path, psi_path = inputs
        out_path = tmp_path / "extended.json"
        assert run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                    "--out", str(out_path)], capsys)[0] == 0
        text = out_path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("reader", ["config", "problem", "family"])
    @pytest.mark.parametrize("content", [b'{"order": "\xff"}', b"[" * 200000],
                             ids=["not-utf8", "nested-200000-deep"])
    def test_undecodable_input_is_an_input_error(self, capsys, tmp_path, inputs,
                                                 reader, content):
        fam_path, psi_path = inputs
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = {"config": ["gw", "--dmax", "1", "--config", str(bad)],
                "problem": ["hm", "--family", str(fam_path), "--psi", str(bad)],
                "family": ["hm", "--family", str(bad), "--psi", str(psi_path)]}[reader]
        code, out, err = run(argv, capsys)
        assert_one_line_usage_error(code, out, err, f"could not parse {reader} file")

    def test_order_flag_lowers_truncation(self, capsys, inputs):
        fam_path, psi_path = inputs
        code, out, _ = run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                            "--order", "2"], capsys)
        assert code == 0
        assert json.loads(out)["order"] == 2

    def test_order_above_problem_data_is_rejected(self, capsys, inputs):
        fam_path, psi_path = inputs
        code, _, err = run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                            "--order", "9"], capsys)
        assert code == 2
        assert "exceeds" in err

    def test_negative_order_is_rejected(self, capsys, inputs):
        fam_path, psi_path = inputs
        code, out, err = run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                              "--order", "-1"], capsys)
        assert_one_line_usage_error(code, out, err, "--order must be at least 0, got -1")

    @pytest.mark.parametrize("field,value,flags,message", [
        ("order", "x", [], "order must be an integer"),
        ("order", "x", ["--order", "2"], "order must be an integer"),
        ("order", True, [], "order must be an integer"),
        ("order", -1, [], "order must be at least 0, got -1"),
        ("newVars", 5, [], "newVars must be a list of strings"),
        ("newVars", [1], [], "newVars must be a list of strings"),
        ("psi", 3, [], "psi must be a list"),
        ("omega", [0.5, 1], [], "omega must be a list of rational strings or integers"),
        ("omega", "1", [], "omega must be a list of rational strings or integers"),
        ("psi", [[{"exps": ["x"], "coef": [[0, "1"]]}], []], [],
         "expected a list of 1 integer exponents, got ['x']"),
        ("psi", [[{"exps": [1], "coef": [[0, "1/0"]]}], []], [], "zero denominator"),
        ("omega", MISSING, [], "missing field omega"),
        ("psi", [[{"exps": [1]}], []], [], "missing field coef"),
    ], ids=["order-str", "order-str-with-flag", "order-bool", "order-negative",
            "newVars-int", "newVars-int-list", "psi-int", "omega-float", "omega-str",
            "psi-exps-str", "psi-zero-denominator", "missing-omega", "psi-without-coef"])
    def test_mistyped_problem_field_is_rejected(self, capsys, inputs,
                                                field, value, flags, message):
        fam_path, psi_path = inputs
        doc = json.loads(psi_path.read_text())
        set_field(doc, field, value)
        psi_path.write_text(json.dumps(doc))
        code, out, err = run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                              *flags], capsys)
        assert_one_line_usage_error(code, out, err, message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value,message", [
        ("omega", ["1", "1"], "D' leaves Q[q, 1/q] at order 0 of y"),
        ("psi", [[{"exps": [0], "coef": [[0, "1"]]}],
                 [{"exps": [1], "coef": [[0, "2"]]}]],
         "psi must vanish when the new variables do"),
        ("omega", ["1"], "omega must have one coordinate per rank"),
        ("newVars", ["q"], "new variable 'q' collides with a base variable"),
        ("omega", ["0", "0"], "omega generates a proper invariant subspace"),
    ], ids=["q-denominator", "psi-constant-term", "omega-short", "newVars-q",
            "omega-zero"])
    def test_unusable_problem_is_an_input_error(self, capsys, inputs,
                                                field, value, message):
        fam_path, psi_path = inputs
        doc = json.loads(psi_path.read_text())
        doc[field] = value
        psi_path.write_text(json.dumps(doc))
        code, out, err = run(["hm", "--family", str(fam_path), "--psi", str(psi_path)],
                             capsys)
        assert_one_line_usage_error(code, out, err, message)
        assert "Traceback" not in err


class TestConfigFile:
    def test_config_sets_format_and_flag_overrides(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text('{"format": "csv"}')
        _, out, _ = run(["grassmann", "--r", "2", "--n", "2"], capsys)
        assert out.startswith("lambda,mu,nu,")
        _, out, _ = run(["grassmann", "--r", "2", "--n", "2",
                         "--format", "json"], capsys)
        assert out.startswith("{")

    def test_unknown_config_key_is_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text('{"formatt": "csv"}')
        code, _, err = run(["grassmann", "--r", "2", "--n", "2"], capsys)
        assert code == 2
        assert "unknown config" in err

    def test_malformed_config_is_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text("[1, 2]")
        code, _, err = run(["gw", "--dmax", "1"], capsys)
        assert code == 2
        assert "JSON object" in err

    @pytest.mark.parametrize("doc,message", [
        ('{"verbosity": "x"}', "verbosity must be an integer"),
        ('{"B_max": "x"}', "B_max must be an integer"),
        ('{"seed": 1.5}', "seed must be an integer"),
        ('{"K": true}', "K must be an integer or null"),
        ('{"format": "xml"}', "format must be one of json, csv, pretty"),
        ('{"out": 5}', "out must be a string or null"),
    ], ids=["verbosity", "B_max", "seed", "K", "format", "out"])
    def test_mistyped_config_value_is_rejected(self, capsys, tmp_path, monkeypatch,
                                               doc, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text(doc)
        assert_one_line_usage_error(*run(["gw", "--dmax", "1"], capsys), message)

    def test_every_config_key_accepts_its_type(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text(json.dumps(
            {"K": None, "B_max": 3, "format": "json", "out": None,
             "seed": 1, "verbosity": 0}))
        code, out, _ = run(["gw", "--dmax", "1"], capsys)
        assert code == 0 and out == "N=[1]\n"

    def test_explicit_config_path(self, capsys, tmp_path):
        cfg = tmp_path / "other.json"
        cfg.write_text('{"format": "csv"}')
        _, out, _ = run(["grassmann", "--r", "2", "--n", "2",
                         "--config", str(cfg)], capsys)
        assert out.startswith("lambda,mu,nu,")


class TestMirrorPayloads:
    def test_algebra_payload(self, capsys):
        _, out, _ = run(["mirror", "--n", "1"], capsys)
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["basis"] == ["1", "q*u^(-1)"]
        assert doc["matrix"][0][1] == [[1, "2"]]
        assert doc["matrix"][1][0] == [[0, "2"]]

    def test_wedge_payload(self, capsys):
        _, out, _ = run(["mirror", "--n", "2", "--wedge", "2"], capsys)
        doc = json.loads(out)
        assert doc["rank"] == 3
        assert doc["labels"] == ["1^q*u^(-1,-1)", "1^q*u^(0,-1)", "q*u^(-1,-1)^q*u^(0,-1)"]
        assert doc["charpoly"] == [[[0, "1"]], [], [], [[1, "27"]]]

    def test_compare_reports_pass(self, capsys):
        code, out, _ = run(["mirror", "--n", "2", "--compare"], capsys)
        assert code == 0
        assert out.count("== quantum vs Gauss-Manin") == 2
        assert "FAIL" not in out

    def test_compare_single_wedge_degree(self, capsys):
        code, out, _ = run(["mirror", "--n", "3", "--compare", "--wedge", "2"], capsys)
        assert code == 0
        assert out.count("== quantum vs Gauss-Manin") == 1

    def test_wedge_out_of_range(self, capsys):
        code, _, _ = run(["mirror", "--n", "2", "--wedge", "3"], capsys)
        assert code == 2
