"""Exit codes, pinned outputs, determinism, and config resolution."""

import argparse
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altfrob import cli
from altfrob.deform import (GW_DMAX, DeformationProblem, hm_extend, problem_from_json,
                            problem_to_json, trivial_deformation_problem, universal_big_quantum)
from altfrob.grassmann import QLRTable, alt_metric, alt_structure_constants
from altfrob.linalg import Mat
from altfrob.mirror import NotTame, kouchnirenko_bound, mirror_brieskorn
from altfrob.presaito import PreSaitoFamily, dumps_family, loads_family, wedge
from altfrob.projective import build_pn, pn_small_family
from altfrob.rings import KEY_LIMIT, Laurent, Series, json_text


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

    def test_grassmann_oracle_with_metric_is_usage_error(self, capsys):
        assert_one_line_usage_error(
            *run(["grassmann", "--r", "2", "--n", "3", "--oracle", "--metric"], capsys),
            "--oracle and --metric cannot be combined")

    @pytest.mark.parametrize("dmax", [10923, 10924])
    def test_gw_dmax_past_the_series_key_limit(self, capsys, dmax):
        # rejected before any work: the potential would need Series order 3 * dmax - 1
        assert_one_line_usage_error(*run(["gw", "--dmax", str(dmax)], capsys),
                                    f"--dmax {dmax} exceeds the largest degree 10922")
        assert GW_DMAX == 10922
        Series.zero(("t",), 3 * GW_DMAX - 1)
        with pytest.raises(ValueError, match="order is at most"):
            Series.zero(("t",), 3 * dmax - 1)

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(["verify", "--family", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "not found" in err

    @pytest.mark.parametrize("extra", [[], ["--wedge", "2"], ["--compare"]],
                             ids=["algebra", "wedge", "compare"])
    def test_not_tame_exits_2(self, capsys, monkeypatch, extra):
        def refuse(f):
            raise NotTame("dimensions [3, 4, 5] did not stabilize")

        mirror_brieskorn.cache_clear()  # a cached lattice would skip the search
        monkeypatch.setattr("altfrob.mirror.jacobian_algebra", refuse)
        assert_one_line_usage_error(*run(["mirror", "--n", "2"] + extra, capsys),
                                    "did not stabilize")

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
        ["grassmann", "--r", "1", "--n", "1"],
        ["grassmann", "--r", "4", "--n", "7"],
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

    def test_metric_builds_no_table(self, capsys, monkeypatch):
        def no_table(r, n):
            raise AssertionError("--metric built the structure-constant table")
        monkeypatch.setattr(cli, "alt_structure_constants", no_table)
        code, out, _ = run(["grassmann", "--r", "3", "--n", "5", "--metric"], capsys)
        assert code == 0
        assert out == json_text(alt_metric(3, 5).to_json())

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
        (["kinds"], ["q", "series"], "kinds must name one kind per variable"),
        (["kinds"], ["laurent"], "unknown base variable kind 'laurent'"),
        (["B0", 0, 0], [[0, "1"], [0, "2"]], "repeated exponent 0 in a Laurent entry"),
        (["B0", 1, 0], [[0]], "a Laurent entry must be a list of [exponent, coefficient] pairs"),
        (["params"], ["q"], "duplicate names among the base variables and parameters"),
    ]

    @pytest.mark.parametrize("command", ["verify", "hm"])
    @pytest.mark.parametrize("path,value,message", MALFORMED,
                             ids=["vars-int", "B0-int", "exponent-str", "zero-denominator",
                                  "Binf-float", "entry-float", "missing-Binf", "C-without-q",
                                  "kinds-too-long", "kinds-laurent", "exponent-repeated",
                                  "pair-short", "params-q"])
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

    # q-powers put into B0[0][1] and C(q)[1][0] of big-quantum P^1; their
    # product is the (0, 0) entry of B0 @ C(q), which the checker forms
    @pytest.mark.parametrize("b0_power,cq_power,message", [
        (KEY_LIMIT + 1, 0, "could not parse family file"),
        (-KEY_LIMIT - 1, 0, "could not parse family file"),
        (20000, 20000, "multiply past the Series key limit"),
    ], ids=["past-limit", "past-negative-limit", "product-past-limit"])
    def test_q_exponent_past_the_key_limit_is_an_input_error(
            self, capsys, tmp_path, b0_power, cq_power, message):
        doc = json.loads(dumps_family(universal_big_quantum(pn_small_family(1), 3)))
        doc["B0"][0][1][0]["coef"][0][0] = b0_power
        doc["C"]["q"][1][0][0]["coef"][0][0] = cq_power
        fam_path = tmp_path / "far.json"
        fam_path.write_text(json.dumps(doc))
        code, out, err = run(["verify", "--family", str(fam_path)], capsys)
        assert_one_line_usage_error(code, out, err, message)
        assert "key limit 32767" in err


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

    def test_order_flag_decodes_the_problem_once(self, capsys, monkeypatch, inputs):
        fam_path, psi_path = inputs
        initial, doc = loads_family(fam_path.read_text()), json.loads(psi_path.read_text())
        assert doc["order"] == 4
        # the family of the document decoded anew at order 2
        expected = dumps_family(hm_extend(problem_from_json(initial, {**doc, "order": 2})))
        calls = []

        def counted(*a):
            calls.append(a)
            return problem_from_json(*a)

        monkeypatch.setattr(cli, "problem_from_json", counted)
        code, out, _ = run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                            "--order", "2"], capsys)
        assert code == 0 and len(calls) == 1
        assert out == expected

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
        ("psi", [[{"exps": [1], "coef": [[0, "1"]]}] * 2, []], [],
         "repeated exponent [1] in a series entry"),
    ], ids=["order-str", "order-str-with-flag", "order-bool", "order-negative",
            "newVars-int", "newVars-int-list", "psi-int", "omega-float", "omega-str",
            "psi-exps-str", "psi-zero-denominator", "missing-omega", "psi-without-coef",
            "psi-exps-repeated"])
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
        ("newVars", [], "a deformation needs at least one new variable"),
        ("newVars", ["y", "y"], "new variable 'y' collides with a new variable"),
    ], ids=["q-denominator", "psi-constant-term", "omega-short", "newVars-q",
            "omega-zero", "newVars-empty", "newVars-repeated"])
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

    def test_new_variable_named_like_a_series_direction_is_rejected(self, capsys, tmp_path,
                                                                     inputs):
        fam_path, psi_path = inputs
        ext_path = tmp_path / "ext.json"
        assert run(["hm", "--family", str(fam_path), "--psi", str(psi_path),
                    "--out", str(ext_path)], capsys)[0] == 0
        code, out, err = run(["hm", "--family", str(ext_path), "--psi", str(psi_path)],
                             capsys)
        assert_one_line_usage_error(code, out, err,
                                    "new variable 'y' collides with a base variable")


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
        ('{"seed": 1.5}', "seed must be an integer"),
        ('{"K": true}', "K must be an integer or null"),
        ('{"format": "xml"}', "format must be one of json, csv, pretty"),
        ('{"out": 5}', "out must be a string or null"),
    ], ids=["verbosity", "seed", "K", "format", "out"])
    def test_mistyped_config_value_is_rejected(self, capsys, tmp_path, monkeypatch,
                                               doc, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text(doc)
        assert_one_line_usage_error(*run(["gw", "--dmax", "1"], capsys), message)

    def test_every_config_key_accepts_its_type(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text(json.dumps(
            {"K": None, "format": "json", "out": None, "seed": 1, "verbosity": 0}))
        code, out, _ = run(["gw", "--dmax", "1"], capsys)
        assert code == 0 and out == "N=[1]\n"

    def test_renamed_keys_reach_their_flags(self, capsys, tmp_path, monkeypatch):
        # K is --order; the flag still overrides the key
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text('{"K": -1}')
        assert_one_line_usage_error(*run(["pn", "--n", "2", "--check"], capsys),
                                    "--order must be at least 0, got -1")
        assert run(["pn", "--n", "2", "--check", "--order", "1"], capsys)[0] == 0

    def test_b_max_is_an_unknown_key(self, capsys, tmp_path, monkeypatch):
        # the mirror search takes no box bound, so its old key is refused
        monkeypatch.chdir(tmp_path)
        (tmp_path / "altfrob.json").write_text('{"B_max": 8}')
        assert_one_line_usage_error(*run(["mirror", "--n", "1"], capsys),
                                    "unknown config keys in altfrob.json: B_max")

    def test_explicit_config_path(self, capsys, tmp_path):
        cfg = tmp_path / "other.json"
        cfg.write_text('{"format": "csv"}')
        _, out, _ = run(["grassmann", "--r", "2", "--n", "2",
                         "--config", str(cfg)], capsys)
        assert out.startswith("lambda,mu,nu,")

    @pytest.mark.parametrize("name", ["nope.json", "altfrob.json"])
    def test_missing_explicit_config_is_an_input_error(self, capsys, tmp_path,
                                                       monkeypatch, name):
        # only the implicit ./altfrob.json may be absent
        monkeypatch.chdir(tmp_path)
        assert run(["gw", "--dmax", "1"], capsys)[:2] == (0, "N=[1]\n")
        assert_one_line_usage_error(*run(["gw", "--dmax", "1", "--config", name], capsys),
                                    f"config file not found: {name}")


class TestMirrorPayloads:
    def test_algebra_payload(self, capsys):
        _, out, _ = run(["mirror", "--n", "1"], capsys)
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["basis"] == ["1", "q*u^(-1)"]
        assert doc["matrix"][0][1] == [[1, "2"]]
        assert doc["matrix"][1][0] == [[0, "2"]]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_algebra_dimension_is_certified(self, capsys, monkeypatch, n):
        # the one Jacobian algebra of the run checks its simplex support's
        # Kouchnirenko number, n + 1, once
        calls = []
        mirror_brieskorn.cache_clear()
        monkeypatch.setattr("altfrob.mirror.kouchnirenko_bound",
                            lambda f: calls.append(f) or kouchnirenko_bound(f))
        _, out, _ = run(["mirror", "--n", str(n)], capsys)
        assert [len(f.vars) for f in calls] == [n + 1]
        assert json.loads(out)["dim"] == kouchnirenko_bound(calls[0]) == n + 1

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
        # one range check serves the wedge and the compare branch
        for extra in [], ["--compare"]:
            assert_one_line_usage_error(
                *run(["mirror", "--n", "2", "--wedge", "3"] + extra, capsys),
                "need 1 <= wedge degree <= n")


# -- malformed family documents, fuzzed ---------------------------------------


@pytest.fixture(scope="module")
def family_docs(tmp_path_factory):
    """The family documents written by `pn --n 2` and by `hm` over P^1's q-line.

    Each comes with the fields it cannot do without; `kinds` may be left out
    of a family whose every direction is a q direction.
    """
    d = tmp_path_factory.mktemp("family_docs")
    pn1, pn2, psi, hm = (d / name for name in ("p1.json", "p2.json", "psi.json", "hm.json"))
    psi.write_text(json.dumps(problem_to_json(
        trivial_deformation_problem(build_pn(1), (1, 0), order=3))))
    assert cli.main(["pn", "--n", "1", "--out", str(pn1)]) == 0
    assert cli.main(["pn", "--n", "2", "--out", str(pn2)]) == 0
    assert cli.main(["hm", "--family", str(pn1), "--psi", str(psi), "--out", str(hm)]) == 0
    required = ["rank", "vars", "Binf", "B0", "C", "G", "w"]
    return {"pn": (json.loads(pn2.read_text()), required),
            "hm": (json.loads(hm.read_text()), required + ["kinds", "order"]),
            "path": d / "mutated.json"}


JSON_OF_TYPE = {int: st.integers(-3, 3), float: st.floats(-3, 3, allow_nan=False),
                str: st.text(max_size=3), list: st.lists(st.integers(-1, 1), max_size=2),
                dict: st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
                bool: st.booleans(), type(None): st.none()}
# variable names that are not identifiers
BAD_NAMES = st.one_of(st.sampled_from(["", "t0 ", " q", "1t", "a-b", "y\n"]),
                      st.text(max_size=4).filter(lambda x: not x.isidentifier()))
# the JSON types of each family field's proper values
FIELD_TYPES = {"rank": (int,), "vars": (list,), "kinds": (list,), "params": (list,),
               "Binf": (list,), "B0": (list,), "C": (dict,), "G": (list,), "w": (int, str),
               "order": (int,)}


@st.composite
def mutated_family(draw, doc, required):
    """A copy of a valid family document with one field dropped, retyped or reshaped."""
    doc = json.loads(json.dumps(doc))
    names = doc["vars"]
    matrices = [["Binf"], ["B0"], ["G"]] + [["C", v] for v in names]
    how = draw(st.sampled_from(["drop", "retype", "matrix", "entry", "list", "kind", "name"]))
    if how == "drop":
        del doc[draw(st.sampled_from(required))]
    elif how == "retype":
        field = draw(st.sampled_from(sorted(set(doc) | {"params"})))
        wrong = [t for t in JSON_OF_TYPE if t not in FIELD_TYPES[field]]
        doc[field] = draw(JSON_OF_TYPE[draw(st.sampled_from(wrong))])
    elif how in ("matrix", "entry"):
        *path, last = draw(st.sampled_from(matrices))
        parent = doc
        for key in path:
            parent = parent[key]
        rows = parent[last]
        i = draw(st.integers(0, len(rows) - 1))
        if how == "entry":  # one entry wrapped in a list
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = [rows[i][j]]
        else:
            draw(st.sampled_from([rows.pop, rows[i].pop, lambda: rows.append(rows[0])]))()
    elif how == "list":
        step = draw(st.sampled_from(["vars+", "vars-", "kinds+", "kinds-", "rank+",
                                     "rank-", "C+", "C-", "params"]))
        if step == "vars+":
            names.append("x")
        elif step == "vars-":
            names.pop()
        elif step == "kinds+":
            doc["kinds"].append("q")
        elif step == "kinds-":
            doc["kinds"].pop()
        elif step in ("rank+", "rank-"):
            doc["rank"] += 1 if step == "rank+" else -1
        elif step == "C+":
            doc["C"]["x"] = doc["C"][names[0]]
        elif step == "C-":
            del doc["C"][draw(st.sampled_from(names))]
        else:  # a parameter that repeats a base variable
            doc["params"] = [draw(st.sampled_from(names))]
    elif how == "name":  # a variable, its C key with it, or a parameter not an identifier
        bad = draw(BAD_NAMES)
        if draw(st.booleans()):
            i = draw(st.integers(0, len(names) - 1))
            doc["C"][bad] = doc["C"].pop(names[i])
            names[i] = bad
        else:
            doc["params"] = [bad]
    else:
        bad = st.one_of(st.just("laurent"), st.text(max_size=8), st.integers(), st.none())
        i = draw(st.integers(0, len(names) - 1))
        doc["kinds"][i] = draw(bad.filter(lambda k: k not in ("q", "series")))
    return doc


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_family_documents_are_input_errors(family_docs, data):
    doc, required = family_docs[data.draw(st.sampled_from(["pn", "hm"]))]
    bad = data.draw(mutated_family(doc, required))
    path = family_docs["path"]
    path.write_text(json.dumps(bad))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", "--family", str(path)])
    assert_one_line_usage_error(code, out.getvalue(), err.getvalue(), "")


# -- malformed problem documents, fuzzed --------------------------------------


@pytest.fixture(scope="module")
def problem_doc(tmp_path_factory):
    """P^1's q-line family file and the problem t0 * omega_0 on it through order 3."""
    d = tmp_path_factory.mktemp("problem_doc")
    fam = pn_small_family(1)
    (d / "p1.json").write_text(dumps_family(fam))
    one = Laurent.const(fam.qvars, 1)
    psi = (Series.gen(("t0",), 3, "t0", one), Series.zero(("t0",), 3))
    doc = problem_to_json(DeformationProblem(fam, ("t0",), psi, (1, 0), 3))
    (d / "psi1.json").write_text(json.dumps(doc))
    assert cli.main(["hm", "--family", str(d / "p1.json"), "--psi", str(d / "psi1.json"),
                     "--out", str(d / "hm.json")]) == 0
    return doc, d / "p1.json", d / "mutated.json"


# the JSON types of each problem field's proper values
PROBLEM_TYPES = {"order": (int,), "newVars": (list,), "psi": (list,), "omega": (list,)}


@st.composite
def mutated_problem(draw, doc):
    """A copy of a valid problem document with one field dropped, retyped or reshaped."""
    doc = json.loads(json.dumps(doc))
    how = draw(st.sampled_from(["drop", "retype", "psi", "omega", "exps", "newVars"]))
    if how == "drop":
        del doc[draw(st.sampled_from(sorted(PROBLEM_TYPES)))]
    elif how == "retype":
        field = draw(st.sampled_from(sorted(PROBLEM_TYPES)))
        wrong = [t for t in JSON_OF_TYPE if t not in PROBLEM_TYPES[field]]
        doc[field] = draw(JSON_OF_TYPE[draw(st.sampled_from(wrong))])
    elif how in ("psi", "omega"):  # one coordinate too few or too many
        coords = doc[how]
        draw(st.sampled_from([coords.pop, lambda: coords.append(coords[0])]))()
    elif how == "exps":  # a term with one exponent too few or too many
        exps = doc["psi"][0][0]["exps"]
        draw(st.sampled_from([exps.pop, lambda: exps.append(0)]))()
    else:  # a variable dropped, added, named like the base variable or not an identifier
        names = doc["newVars"]
        draw(st.sampled_from([names.pop, lambda: names.append("x"),
                              lambda: names.__setitem__(0, "q"),
                              lambda: names.__setitem__(0, draw(BAD_NAMES))]))()
    return doc


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_problem_documents_are_input_errors(problem_doc, data):
    doc, family, path = problem_doc
    path.write_text(json.dumps(data.draw(mutated_problem(doc))))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["hm", "--family", str(family), "--psi", str(path)])
    assert_one_line_usage_error(code, out.getvalue(), err.getvalue(), "")


class TestCorruptedExtensionWitnesses:
    """The witnesses of verify and hm on a corrupted P^4 extension, pinned.

    The family is the extension the deform benchmark writes: P^4's q-line
    extended along t0, t2, t3, t4 to order 6 by tautological period data.
    One entry of C(t2), then one of B0, gets a wrong term; every FAIL line of
    verify and the InvariantViolation of a further hm stage are pinned as
    the two-product commutators and differences reported them.
    """

    CORRUPTIONS = {
        "C(t2)": (("C", "t2", 3, 1), [0, 0, 1, 0], [[1, "1"]]),
        "B0": (("B0", 2, 0), [0, 1, 0, 0], [[1, "3"]]),
    }
    VERIFY_FAILS = {
        "C(t2)": [
            "FAIL  d_t2 C(q) = d_q C(t2)  [entry (3,1), deformation exponent [0, 0, 1, 0]: -q]",
            "FAIL  [C(q), C(t2)] = 0  [entry (0,1), deformation exponent [0, 0, 2, 3]: -1/2*q^4]",
            "FAIL  d_t3 C(t2) = d_t2 C(t3)  [entry (3,1), deformation exponent [0, 0, 0, 0]: q]",
            "FAIL  [C(t2), C(t3)] = 0  [entry (0,1), deformation exponent [0, 0, 1, 3]: 1/6*q^4]",
            "FAIL  [C(t2), C(t4)] = 0  [entry (0,1), deformation exponent [0, 0, 2, 2]: 1/2*q^4]",
            "FAIL  [B0, C(t2)] = 0  [entry (0,1), deformation exponent [0, 0, 2, 3]: 2/3*q^4]",
            "FAIL  C(t2) + d_t2 B0 = [Binf, C(t2)]  "
            "[entry (3,1), deformation exponent [0, 0, 1, 0]: -q]",
        ],
        "B0": [
            "FAIL  [B0, C(q)] = 0  [entry (0,0), deformation exponent [0, 1, 1, 0]: q + 3*q^2]",
            "FAIL  C(q) + d_q B0 = [Binf, C(q)]  "
            "[entry (2,0), deformation exponent [0, 1, 0, 0]: 3*q]",
            "FAIL  [B0, C(t2)] = 0  "
            "[entry (0,0), deformation exponent [0, 1, 0, 2]: 1/2*q^2 + 3/2*q^3]",
            "FAIL  C(t2) + d_t2 B0 = [Binf, C(t2)]  "
            "[entry (2,0), deformation exponent [0, 0, 0, 0]: 1 + 3*q]",
            "FAIL  [B0, C(t3)] = 0  [entry (0,0), deformation exponent [0, 1, 0, 0]: q + 3*q^2]",
            "FAIL  [B0, C(t4)] = 0  "
            "[entry (0,0), deformation exponent [0, 1, 1, 4]: 3/8*q^4 + 9/8*q^5]",
            "FAIL  B0* = B0  [entry (2,0), deformation exponent [0, 1, 0, 0]: -1 - 3*q]",
        ],
    }
    HM_WITNESS = {
        "C(t2)": "[D', C(t2)] != 0 at order 0 of s, entry (0,1)",
        "B0": "[D', B0] != 0 at order 0 of s, entry (0,0)",
    }

    @pytest.fixture(scope="class")
    def extension(self):
        fam, K = pn_small_family(4), 6
        new_vars = ("t0", "t2", "t3", "t4")
        one = Laurent.const(fam.qvars, 1)
        psi = tuple(Series.zero(new_vars, K) if i == 1 else Series.gen(new_vars, K, f"t{i}", one)
                    for i in range(fam.d))
        omega = tuple(Fraction(int(i == 0)) for i in range(fam.d))
        problem = DeformationProblem(fam, new_vars, psi, omega, K)
        return json.loads(dumps_family(hm_extend(problem)))

    @pytest.fixture(params=sorted(CORRUPTIONS))
    def corrupted(self, request, extension, tmp_path):
        path, exps, coef = self.CORRUPTIONS[request.param]
        doc = json.loads(json.dumps(extension))
        entry = doc
        for key in path:
            entry = entry[key]
        entry[:] = sorted([t for t in entry if t["exps"] != exps] + [{"coef": coef, "exps": exps}],
                          key=lambda t: t["exps"])
        fam_path = tmp_path / "bad.json"
        fam_path.write_text(json.dumps(doc))
        return request.param, fam_path

    def test_verify_fail_lines(self, capsys, corrupted):
        name, fam_path = corrupted
        code, out, _ = run(["verify", "--family", str(fam_path)], capsys)
        assert code == 1
        assert [line for line in out.splitlines() if "FAIL" in line] == self.VERIFY_FAILS[name]

    def test_hm_invariant_violation(self, capsys, corrupted, tmp_path):
        name, fam_path = corrupted
        psi = [[] for _ in range(5)]
        psi[2] = [{"coef": [[0, "1"]], "exps": [0, 0, 0, 0, 1]}]
        psi_path = tmp_path / "psi_s.json"
        psi_path.write_text(json.dumps({"newVars": ["s"], "omega": ["1", "0", "0", "0", "0"],
                                        "order": 6, "psi": psi}))
        code, out, err = run(["hm", "--family", str(fam_path), "--psi", str(psi_path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"altfrob: check failed: extension failed: {self.HM_WITNESS[name]}\n"


class TestReadme:
    """The README's command-line section documents the parser and the config keys."""

    @staticmethod
    def section():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]

    def test_every_documented_flag_is_an_option(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {opt for p in subparsers.choices.values() for opt in p._option_string_actions}
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", self.section()))
        assert flags and flags <= options, sorted(flags - options)

    def test_config_example_and_keys_match_the_defaults(self):
        section = self.section()
        example = re.search(r"```json\n(.*?)\n```", section, re.S).group(1)
        assert set(json.loads(example)) == set(cli.DEFAULTS)
        # the keys whose types the README lists
        types = re.search(r"mistyped values \((.*?)\)", section, re.S).group(1)
        keys = set(re.findall(r"`(\w+)`", types))
        assert keys and keys <= set(cli.DEFAULTS), sorted(keys - set(cli.DEFAULTS))
