"""CLI dispatch, exit codes and output determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from armould.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestShuffleCommand:
    def test_contracting_five_terms(self, capsys):
        rc, out = run(capsys, "shuffle", "(1,2)", "(4)", "--contracting")
        assert rc == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5
        assert "(5,2)  x1" in lines and "(1,6)  x1" in lines

    def test_plain_three_terms(self, capsys):
        rc, out = run(capsys, "shuffle", "(1,2)", "(4)")
        assert rc == 0
        assert len([l for l in out.splitlines() if l.strip()]) == 3

    def test_parse_error_exit_2(self, capsys, tmp_path):
        rc = main(["shuffle", "(0.5)", "(1)"])
        assert rc == 2
        # arithmetic errors in the input are usage errors too, not tracebacks
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/0"}}')
        for argv in (
            ["shuffle", "(1/0)", "(1)"],
            ["mould", "check", "--builtin", "redom", "--kind", "alternel", "--alphabet", "1/0"],
            ["synthesize", "--invariants", str(inv), "--c", "2", "--caps", "2,2,1"],
        ):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "error" in json.loads(capsys.readouterr().err), argv

    @pytest.mark.parametrize(
        "argv, literal",
        [
            (["shuffle", "(1/0)", "(2)"], "1/0"),
            (["forest", "extensions", "1/0(2)"], "1/0"),
            (["mould", "check", "--builtin", "redom", "--kind", "alternel", "--alphabet", "1,2/0"], "2/0"),
            (["synthesize", "--invariants", "INV", "--c", "2", "--caps", "2,2,1"], "1+1/0i"),
        ],
        ids=["shuffle", "forest", "alphabet", "invariants"],
    )
    def test_zero_denominator_exits_2_naming_the_literal(self, capsys, tmp_path, argv, literal):
        # the error once read "Fraction(1, 0)", naming neither the literal nor its field
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps({"A": {"1": literal}}))
        rc = main([str(inv) if a == "INV" else a for a in argv])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"zero denominator in exact literal: {literal!r}" in json.loads(captured.err)["error"]


class TestMouldCommands:
    def test_check_redom_passes(self, capsys):
        rc, out = run(capsys, "mould", "check", "--builtin", "redom", "--kind", "alternel", "--cap", "4")
        assert rc == 0
        assert "pass" in out

    def test_check_failure_exit_1(self, capsys):
        rc, out = run(capsys, "mould", "check", "--builtin", "unit1", "--kind", "alternel", "--cap", "2")
        assert rc == 1

    @pytest.mark.parametrize(
        "builtin, kind, cap, rc, line",
        [
            ("redom", "alternel", "4", 0, "[pass] alternel: 68 pairs, worst violation 0.000e+00"),
            ("unit1", "alternel", "2", 1, "[FAIL] alternel: 0 pairs, worst violation 1.000e+00 (empty-word value)"),
            ("standard_log", "alternal", "3", 1, "[FAIL] alternal: 20 pairs, worst violation 1.000e+00, first at (1) / (1)"),
        ],
        ids=["pass", "empty-word", "first-at"],
    )
    def test_check_stdout_pinned(self, capsys, builtin, kind, cap, rc, line):
        assert run(capsys, "mould", "check", "--builtin", builtin, "--kind", kind, "--cap", cap) == (rc, line + "\n")

    def test_check_with_no_pair_exits_2(self, capsys):
        rc = main(["mould", "check", "--builtin", "standard_log", "--kind", "alternel", "--cap", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "no pair of words" in json.loads(captured.err)["error"]

    def test_arborify_cherry(self, capsys):
        rc, out = run(
            capsys, "mould", "arborify", "--builtin", "standard_log", "--forest", "1(2,3)", "--mode", "contracting"
        )
        assert rc == 0
        # 1/3 + 1/3 + 2 * (-1/2) = -1/3
        assert out.strip() == "-1/3"

    @pytest.mark.parametrize("op", ["mul", "compose"])
    def test_negative_cap_exits_2_naming_it(self, tmp_path, capsys, op):
        # a cap below 0 used to print the empty word's entry and exit 0
        table = tmp_path / "m.json"
        table.write_text('{"alphabet": ["1"], "cap": 2, "entries": {"()": "1", "(1)": "1/2"}}')
        rc = main(["mould", op, str(table), str(table), "--cap", "-1"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "--cap -1" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("op", ["mul", "compose"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"alphabet": ["1"], "cap": "2", "entries": {"()": "1"}}', "mould table field 'cap' must be an integer >= 0, got \"2\""),
            ('{"alphabet": ["1"], "cap": -1, "entries": {"()": "1"}}', "mould table field 'cap' must be an integer >= 0, got -1"),
            ("[1, 2]", "a mould table must be a JSON object, got [1, 2]"),
            ('{"alphabet": ["1"], "cap": 1, "entries": {"()": "1", "(1)": 0.5}}', "mould table entries['(1)'] = 0.5 must be an exact literal string"),
            ('{"alphabet": [1], "cap": 1, "entries": {"()": "1"}}', "mould table alphabet[0] = 1 must be an exact literal string"),
            ('{"cap": 1, "entries": {"()": "1"}}', "mould table has no field 'alphabet'"),
            ('{"alphabet": ["1"], "cap": 1, "entries": []}', "mould table field 'entries' must be an object, got []"),
        ],
        ids=["string-cap", "negative-cap", "array", "float-entry", "integer-letter", "no-alphabet", "array-entries"],
    )
    def test_malformed_table_exits_2_naming_the_field(self, tmp_path, capsys, op, text, message):
        # each of these once crashed with a traceback and exit 1, or printed
        # a bare "'alphabet'"
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"alphabet": ["1"], "cap": 1, "entries": {"()": "1", "(1)": "1/2"}}')
        bad.write_text(text)
        rc = main(["mould", op, str(good), str(bad)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert json.loads(captured.err) == {"error": message}

    def test_missing_entry_message_has_no_quotes(self, tmp_path, capsys):
        # the KeyError's message, not its repr
        table = tmp_path / "m.json"
        table.write_text('{"alphabet": ["1", "2"], "cap": 1, "entries": {"()": "1", "(1)": "1/2"}}')
        rc = main(["mould", "mul", str(table), str(table)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {"error": "table mould has no entry for (2)"}

    @pytest.mark.parametrize("op", ["mul", "compose"])
    def test_cap_above_the_tables_exits_2_before_any_word(self, tmp_path, capsys, monkeypatch, op):
        # every word up to --cap was built before the first missing value
        import armould.cli as cli

        def no_words(*args):
            raise AssertionError("words were built")

        monkeypatch.setattr(cli, "words_over", no_words)
        small, large = tmp_path / "small.json", tmp_path / "large.json"
        small.write_text('{"alphabet": ["1"], "cap": 1, "entries": {"()": "1", "(1)": "1/2"}}')
        large.write_text('{"alphabet": ["1"], "cap": 2, "entries": {"()": "1", "(1)": "1/2", "(1,1)": "1/3"}}')
        rc = main(["mould", op, str(large), str(small), "--cap", "2"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert json.loads(captured.err)["error"] == "--cap 2 is above the tables' cap 1, beyond which they have no values"

    @pytest.mark.parametrize("cap", ["10", "1000000000"])
    def test_check_above_the_pair_limit_exits_2_before_any_word(self, capsys, monkeypatch, cap):
        # --cap 10 on two letters took 18 s, and no larger cap was refused
        import armould.moulds as moulds

        def no_words(*args):
            raise AssertionError("words were built")

        monkeypatch.setattr(moulds, "words_over", no_words)
        rc = main(["mould", "check", "--builtin", "redom", "--kind", "alternel", "--alphabet", "1,2", "--cap", cap])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "more than MAX_SYMMETRY_PAIRS = 10000 pairs" in json.loads(captured.err)["error"]

    def test_pair_limit_counts_the_pairs_the_check_tests(self, capsys, monkeypatch):
        import armould.moulds as moulds

        argv = ["mould", "check", "--builtin", "redom", "--kind", "alternel", "--alphabet", "1,2", "--cap", "6"]
        monkeypatch.setattr(moulds, "MAX_SYMMETRY_PAIRS", 516)
        assert run(capsys, *argv) == (0, "[pass] alternel: 516 pairs, worst violation 0.000e+00\n")
        monkeypatch.setattr(moulds, "MAX_SYMMETRY_PAIRS", 515)
        assert main(argv) == 2


class TestForestCommand:
    def test_extensions(self, capsys):
        rc, out = run(capsys, "forest", "extensions", "1(2,3)")
        assert rc == 0
        assert "(1,2,3)  x1" in out and "(1,3,2)  x1" in out

    def test_contracting_covers(self, capsys):
        rc, out = run(capsys, "forest", "extensions", "1(2,3)", "--contracting")
        assert "(1,5)  x2" in out


class TestKernelCommand:
    def test_eval_with_oracle(self, capsys):
        rc, out = run(capsys, "kernel", "eval", "--c", "1", "--omega", "1", "--x", "0", "--oracle")
        assert rc == 0
        payload = json.loads(out)
        assert float(payload["f_vs_oracle_rel"]) < 1e-10
        assert payload["f"].startswith("0.27973176363304")


    def test_oracle_comparison_when_f_underflows(self, capsys):
        # at c = 1e100 both f and its closed form underflow to 0
        rc, out = run(capsys, "kernel", "eval", "--c", "1e100", "--omega", "2", "--x", "1", "--oracle")
        assert rc == 0
        payload = json.loads(out)
        assert (payload["f"], payload["f_oracle"], payload["f_vs_oracle_rel"]) == ("0.0+0.0i", "0.0+0.0i", "0.0")

    def test_oracle_comparison_when_k1_underflows_at_omega_one(self, capsys):
        # the closed form's K1 argument is 2.8e100, where its continued
        # fraction does not converge; K1 underflows to 0 there
        rc, out = run(capsys, "kernel", "eval", "--c", "1e100", "--omega", "1", "--x", "1", "--oracle")
        assert rc == 0
        payload = json.loads(out)
        assert (payload["f"], payload["f_oracle"], payload["f_vs_oracle_rel"]) == ("0.0+0.0i", "0.0+0.0i", "0.0")

    def test_oracle_comparison_when_only_the_oracle_is_zero(self, capsys, monkeypatch):
        import armould.cli as cli

        monkeypatch.setattr(cli, "f_closed_form_oracle", lambda p, x: 0j)
        rc, out = run(capsys, "kernel", "eval", "--c", "1", "--omega", "1", "--x", "0", "--oracle")
        assert rc == 0
        assert json.loads(out)["f_vs_oracle_rel"] == "inf"


class TestMonomialCommands:
    def test_eval_json(self, capsys):
        rc, out = run(capsys, "monomial", "eval", "--word", "(1)", "--z", "-2", "--c", "1")
        assert rc == 0
        payload = json.loads(out)
        assert abs(float(payload["Ua(1)"]["re"]) - 0.07896393999251805) < 1e-10

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--word", "(1)", "--forest", "2", "--z=-2", "--c", "1"], "--forest"),
            (["--family", "hyperlog", "--word", "(1)", "--forest", "2", "--z=-3", "--c", "1"], "--forest"),
            (["--family", "hyperlog", "--forest", "2", "--z=-3", "--c", "0"], "--forest"),
            (["--family", "hyperlog", "--word", "(1)", "--z=-3", "--c", "1"], "--c"),
        ],
        ids=["word-and-forest", "hyperlog-word-and-forest", "hyperlog-forest", "hyperlog-nonzero-c"],
    )
    def test_eval_refuses_an_input_it_would_ignore(self, capsys, argv, named):
        rc = main(["monomial", "eval", *argv])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert named in json.loads(captured.err)["error"]

    def test_hyperlog_word_above_the_letter_limit_exits_2(self, capsys):
        rc = main(["monomial", "eval", "--family", "hyperlog", "--word", "(1,1,1,1)", "--z=-3", "--c", "0"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert "4 letters" in error and "HYPERLOG_MAX_LETTERS = 3" in error

    def test_pole_probe(self, capsys):
        rc, out = run(capsys, "monomial", "pole-probe", "--omega", "2", "--c", "0.5")
        assert rc == 0

    def test_pole_probe_computes_at_c0(self, capsys, monkeypatch):
        # the probe reads the pole off the closed form at c = 0 too, so a
        # pole moved by 0.01 fails its gate
        import armould.monomials as mono

        exact = mono.f_closed_form_oracle
        monkeypatch.setattr(mono, "f_closed_form_oracle", lambda p, x: exact(p, x + 0.01 if p.c == 0 else x))
        rc, out = run(capsys, "monomial", "pole-probe", "--omega", "3", "--c", "0")
        assert rc == 1
        assert float(json.loads(out)["location_error"]) > 1e-3

    def test_pole_probe_with_an_underflowing_minor_exits_2(self, capsys):
        # at c = 1e100 the closed form of f is 0 near the pole
        rc = main(["monomial", "pole-probe", "--omega", "2", "--c", "1e100"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert "c = 1e+100" in error and "omega = 2.0" in error

    def test_growth_scan_with_an_underflowing_column_exits_2(self, capsys):
        # every monomial at c = 1e100 is 0, and log K(c) would be -inf
        rc = main(["monomial", "growth-scan", "--c-grid", "1e100,1", "--norm-cap", "2", "--z", "-2"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "c = 1e+100" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("norm_cap", ["0", "-1"])
    def test_growth_scan_norm_cap_below_one_rejected(self, capsys, norm_cap):
        rc = main(["monomial", "growth-scan", "--norm-cap", norm_cap])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "norm cap" in json.loads(captured.err)["error"]

    def test_determinism_double_run(self, capsys):
        _, out1 = run(capsys, "monomial", "eval", "--word", "(1,2)", "--z", "-2", "--c", "1")
        _, out2 = run(capsys, "monomial", "eval", "--word", "(1,2)", "--z", "-2", "--c", "1")
        assert out1 == out2


class TestSynthesizeCommand:
    def test_identity_report(self, tmp_path, capsys):
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {}, "H": 1.0}')
        out_file = tmp_path / "report.json"
        rc, out = run(
            capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,3", "--out", str(out_file)
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["failures"] == []
        assert payload["coefficient_rows"] == [["-2.0+0.0i", 1, "1.0", "0.0"]]
        assert json.loads(out_file.read_text()) == payload

    def test_exact_invariant_literals(self, tmp_path, capsys):
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/4"}, "H": 1.0}')
        rc, out = run(capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2")
        assert rc == 0
        payload = json.loads(out)
        assert payload["invariants"]["1"] == "0.25+0.0i"
        assert float(payload["automorphism_defect"]) <= 1e-6

    @pytest.mark.parametrize(
        "table, key",
        [
            ('{"1": "1/4", "1 ": "1/16"}', "1 "),
            ('{"1": "1/4", "01": "1/16"}', "01"),
            ('{"1": true}', "1"),
            ('{"1": [1]}', "1"),
            ('{"1": null}', "1"),
            ('{"1.5": "1/4"}', "1.5"),
            ('{"1": "1/4", "1": "1/16"}', "1"),
        ],
        ids=["trailing-space", "leading-zero", "bool", "list", "null", "non-integer", "repeated"],
    )
    def test_bad_invariant_entries_exit_2_naming_the_key(self, tmp_path, capsys, table, key):
        # each would overwrite A_1, read true as 1, crash, or not say which key
        inv = tmp_path / "inv.json"
        inv.write_text(f'{{"A": {table}}}')
        rc = main(["synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"A[{key!r}]" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[1, 2]", "invariants"),
            ('"x"', "invariants"),
            ('{"A": [1]}', "A"),
            ('{"a": {"1": "1/4"}}', "'a'"),
            ('{"A": {"1": "1/4"}, "H": null}', "H"),
            ('{"A": {"1": "1/4"}, "H": [1]}', "H"),
            ('{"A": {"1": "1/4"}, "H": true}', "H"),
        ],
        ids=["top-list", "top-string", "A-list", "unknown-field", "H-null", "H-list", "H-bool"],
    )
    def test_bad_invariant_files_exit_2_naming_the_field(self, tmp_path, capsys, text, field):
        # each would crash with a traceback, drop the invariants, or read true as 1
        inv = tmp_path / "inv.json"
        inv.write_text(text)
        rc = main(["synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert field in json.loads(captured.err)["error"]

    def test_double_run_byte_identical(self, tmp_path, capsys):
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/4"}, "H": 1.0}')
        _, out1 = run(capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2")
        _, out2 = run(capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2")
        assert out1 == out2

    def test_synthesis_leaves_unused_modules_unloaded(self, tmp_path):
        # a fresh interpreter, since this one may hold these modules already;
        # the defects draw their series from the standard library's random,
        # NumPy 2 (the floor in pyproject.toml) loads numpy.random lazily, and
        # armould's classes are plain classes, so dataclasses and copy stay out
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/4"}}')
        code = (
            "import sys\n"
            "from armould.cli import main\n"
            f"rc = main(['synthesize', '--invariants', {str(inv)!r}, '--c', '2', '--caps', '1,1,1'])\n"
            "print(rc, [m for m in ('numpy.random', 'dataclasses', 'copy') if m in sys.modules])\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("caps", ["0,4,2", "4,4,-1", "8,4,7"])
    def test_degenerate_caps_fail_before_quadrature(self, tmp_path, capsys, monkeypatch, caps):
        import armould.monomials as mono

        def no_quadrature(*args):
            raise AssertionError("a quadrature pass ran")

        monkeypatch.setattr(mono, "_pass", no_quadrature)
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/4"}, "H": 1.0}')
        rc = main(["synthesize", "--invariants", str(inv), "--c", "0", "--caps", caps])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "error" in json.loads(captured.err)

    @pytest.mark.parametrize("caps", ["4,4", "4,4,2,1"])
    def test_caps_field_count_named(self, tmp_path, capsys, caps):
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/4"}, "H": 1.0}')
        rc = main(["synthesize", "--invariants", str(inv), "--c", "2", "--caps", caps])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "N_u,N_z,R_max" in json.loads(captured.err)["error"]

    def test_explosive_caps_fail_before_quadrature(self, tmp_path, capsys, monkeypatch):
        import armould.monomials as mono

        def no_quadrature(*args):
            raise AssertionError("a quadrature pass ran")

        monkeypatch.setattr(mono, "_pass", no_quadrature)
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/4", "2": "1/8", "3": "1/16"}, "H": 1.0}')
        rc = main(["synthesize", "--invariants", str(inv), "--c", "2", "--caps", "14,14,6"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "give 22165 forests" in json.loads(captured.err)["error"]

    def test_non_finite_output_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        # a NaN monomial value makes the field coefficients and both defects
        # come out NaN
        import armould.monomials as mono

        one_item = mono.paralog_Ua_eval

        def nan_value(*args, **kwargs):
            mv = one_item(*args, **kwargs)
            return mono.MonomialValue(complex(math.nan, 0.0), mv.error, complex(math.nan, 0.0), mv.derivative_error)

        monkeypatch.setattr(mono, "paralog_Ua_eval", nan_value)
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/4"}, "H": 1.0}')
        rc, out = run(capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2")
        assert rc == 1
        payload = json.loads(out)
        assert math.isnan(float(payload["automorphism_defect"]))
        assert math.isnan(float(payload["derivation_defect"]))
        checks = {f["check"]: f["value"] for f in payload["failures"]}
        assert checks == {"automorphism_defect": "nan", "derivation_defect": "nan", "finite_coefficient_rows": "3"}


@pytest.mark.parametrize(
    "invariants, argv",
    [
        ('{"A": {"1": "1/4"}}', ["synthesize", "--c", "nan"]),
        ('{"A": {"1": "1/4"}}', ["synthesize", "--c", "inf"]),
        ('{"A": {"1": "1/4"}}', ["synthesize", "--c", "2", "--z-moduli", "2,inf"]),
        ('{"A": {"1": NaN}}', ["synthesize", "--c", "2"]),
        ('{"A": {"1": "1/4"}, "H": Infinity}', ["synthesize", "--c", "2"]),
        (None, ["monomial", "eval", "--word", "(1)", "--z", "-2", "--c", "nan"]),
        (None, ["monomial", "eval", "--word", "(1)", "--z", "nan", "--c", "1"]),
        (None, ["monomial", "eval", "--forest", "1;2", "--z", "-2", "--c", "inf"]),
        (None, ["monomial", "eval", "--forest", "1(2)", "--z", "nan", "--c", "1"]),
        (None, ["monomial", "growth-scan", "--c-grid", "nan,1", "--norm-cap", "2"]),
        (None, ["kernel", "eval", "--c", "nan", "--omega", "1", "--x", "0"]),
        (None, ["kernel", "eval", "--c", "1", "--omega", "inf", "--y", "1"]),
        (None, ["linear-rh", "--a12", "1", "--a21", "nan", "--c", "1"]),
        (None, ["linear-rh", "--lambda1", "inf", "--a12", "1", "--a21", "1", "--c", "1"]),
        (None, ["linear-rh", "--lambda1", "1e308", "--lambda2=-1e308", "--a12", "1", "--a21", "1", "--c", "1"]),
        ('{"A": {"1": "1/4"}}', ["synthesize", "--c", "1e200"]),
        (None, ["monomial", "eval", "--word", "(1)", "--z=-2", "--c", "1e200"]),
        (None, ["kernel", "eval", "--c", "1e200", "--omega", "1", "--y", "1"]),
        (None, ["linear-rh", "--a12", "0", "--a21", "0", "--c", "nan"]),
        (None, ["linear-rh", "--a12", "0", "--a21", "0", "--c=-1"]),
    ],
    ids=[
        "c-nan", "c-inf", "z-inf", "A-nan", "H-inf", "eval-c-nan", "eval-z-nan", "forest-c-inf", "forest-z-nan", "scan-c-nan",
        "kernel-c-nan", "kernel-omega-inf", "rh-a21-nan", "rh-lambda1-inf", "rh-omega12-overflows", "c-square-overflows",
        "eval-c-square-overflows", "kernel-c-square-overflows", "rh-zero-data-c-nan", "rh-zero-data-c-negative",
    ],  # fmt: skip
)
def test_non_finite_inputs_rejected(tmp_path, capsys, monkeypatch, invariants, argv):
    # exit 2 with a JSON error, before any quadrature pass runs
    import armould.monomials as mono

    def no_quadrature(*args):
        raise AssertionError("a quadrature pass ran")

    if invariants is not None:
        inv = tmp_path / "inv.json"
        inv.write_text(invariants)
        argv = argv + ["--invariants", str(inv)]
    monkeypatch.setattr(mono, "_pass", no_quadrature)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "error" in json.loads(captured.err)


def _synthesize_argv(tmp_path, argv):
    if argv[0] != "synthesize":
        return argv
    inv = tmp_path / "inv.json"
    inv.write_text('{"A": {"1": "1/4"}}')
    return argv + ["--invariants", str(inv)]


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "--c", "1.2e154", "--caps", "4,4,2"],
        ["monomial", "eval", "--word", "(1,2)", "--z=-2", "--c", "1.2e154"],
        ["kernel", "eval", "--c", "1.2e154", "--omega", "2", "--y", "1", "--x", "1"],
    ],
    ids=["synthesize", "eval", "kernel"],
)
def test_c_too_large_for_what_is_computed_exits_2(tmp_path, capsys, argv):
    # c^2 is finite, but c^2 omega or the square of the farthest ray node
    # is not; the overflow warnings those would raise are errors here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(_synthesize_argv(tmp_path, argv))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "c = 1.2e+154" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        # farthest node (2c + 52/4)/cos(pi/4) + |z| of the nu = 4 ray: c < 4.740e153
        ["synthesize", "--c", "4.7e153", "--caps", "4,4,2"],
        # farthest node of the omega = 1 ray: c < 4.740e153
        ["monomial", "eval", "--word", "(1,2)", "--z=-2", "--c", "4.7e153"],
        # c^2 omega at omega = 10: c < 4.2399e153
        ["monomial", "eval", "--word", "(10)", "--z=-2", "--c", "4.2e153"],
        # c^2 omega at omega = 2: c < 9.4808e153
        ["kernel", "eval", "--c", "9.4e153", "--omega", "2", "--y", "1", "--x", "1"],
    ],
    ids=["synthesize", "eval-far-node", "eval-c2-omega", "kernel"],
)
def test_c_just_inside_the_bounds_runs_without_warning(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(_synthesize_argv(tmp_path, argv))
    assert rc == 0 and capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["synthesize", "--c", "2", "--caps", "4,x,4"], "--caps"),
        (["synthesize", "--c", "2", "--z-moduli", "2,,3"], "--z-moduli"),
        (["synthesize", "--c", "2", "--z-moduli", "abc"], "--z-moduli"),
        (["synthesize", "--c", "2", "--z-ray", "foo"], "--z-ray"),
        (["synthesize", "--c", "2", "--z-ray", "inf"], "--z-ray"),
        (["monomial", "growth-scan", "--c-grid", "abc"], "--c-grid"),
        (["monomial", "growth-scan", "--c-grid", "1"], "--c-grid"),
        (["monomial", "growth-scan", "--c-grid", "1,1"], "--c-grid"),
        (["monomial", "growth-scan", "--c-grid", "0,1"], "--c-grid"),
    ],
    ids=["caps-x", "z-moduli-empty", "z-moduli-abc", "z-ray-foo", "z-ray-inf", "c-grid-abc", "c-grid-one", "c-grid-repeated", "c-grid-one-positive"],
)
def test_bad_numeric_fields_exit_2_naming_the_flag(tmp_path, capsys, monkeypatch, argv, flag):
    # a field that does not read as the numbers it needs, or a c grid with
    # fewer than two positive values to fit, is refused before any quadrature
    import armould.monomials as mono

    def no_quadrature(*args):
        raise AssertionError("a quadrature pass ran")

    monkeypatch.setattr(mono, "_pass", no_quadrature)
    rc = main(_synthesize_argv(tmp_path, argv))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert flag in json.loads(captured.err)["error"]


@pytest.mark.parametrize("z_ray", ["0.2", "0"])
def test_z_near_the_singular_ray_exits_before_any_forest_row(tmp_path, capsys, monkeypatch, z_ray):
    import armould.synthesis as synth

    def no_rows(*args):
        raise AssertionError("a forest row was built")

    monkeypatch.setattr(synth, "_forest_rows", no_rows)
    inv = tmp_path / "inv.json"
    inv.write_text('{"A": {"1": "1/4", "2": "1/8"}}')
    rc = main(["synthesize", "--invariants", str(inv), "--c", "2", "--caps", "10,10,6", "--z-ray", z_ray, "--z-moduli", "1.5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "singular ray" in json.loads(captured.err)["error"]


def test_ue_factor_overflow_exits_before_any_forest_row(tmp_path, capsys, monkeypatch):
    # at z = 2 e^i, Re(z + c^2/z) = 5402 at c = 100, so exp(nu (z + c^2/z))
    # overflows
    import armould.synthesis as synth

    def no_rows(*args):
        raise AssertionError("a forest row was built")

    monkeypatch.setattr(synth, "_forest_rows", no_rows)
    inv = tmp_path / "inv.json"
    inv.write_text('{"A": {"1": "1/4"}}')
    rc = main(["synthesize", "--invariants", str(inv), "--c", "100", "--caps", "4,4,2", "--z-ray", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "c = 100.0" in error and "z = (1.080604611736+1.682941969616j)" in error


@pytest.mark.parametrize("invariants", ['{"A": {"2": "1/4"}, "H": 1e300}', '{"A": {"1": "1/4", "1100": "1/4"}, "H": 2}'], ids=["H-squared", "2-to-1100"])
def test_growth_bound_beyond_float_range_is_met(tmp_path, capsys, invariants):
    # H^n overflows a float, so it bounds every finite A_n
    inv = tmp_path / "inv.json"
    inv.write_text(invariants)
    rc, out = run(capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2")
    assert rc == 0 and json.loads(out)["failures"] == []


def test_growth_bound_exceeded_exits_2_naming_the_invariant(tmp_path, capsys):
    inv = tmp_path / "inv.json"
    inv.write_text('{"A": {"1": "1/4"}, "H": 1e-300}')
    rc = main(["synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "|A_1| = 0.25 exceeds declared bound H^n at H = 1e-300, n = 1"


def test_growth_scan_fails_on_a_nan_column(capsys, monkeypatch):
    # a NaN monomial in the c = 0 column, which the monotonicity and fit
    # gates do not read, makes K(0) NaN and the scan exit 1
    import armould.monomials as mono

    one_item = mono.paralog_Ua_eval

    def nan_at_c0(w, z, c, *args, **kwargs):
        mv = one_item(w, z, c, *args, **kwargs)
        return mono.MonomialValue(complex(math.nan, 0.0), mv.error) if c == 0 and w.length == 1 else mv

    monkeypatch.setattr(mono, "paralog_Ua_eval", nan_at_c0)
    rc, out = run(capsys, "monomial", "growth-scan", "--c-grid", "0.5,1,2,0", "--norm-cap", "2", "--z", "-2")
    payload = json.loads(out)
    assert rc == 1
    assert payload["khat"]["0"] == "nan" and payload["monotone_decreasing"] is True


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-second"])
def test_synthesize_tail_ratio_merge_keeps_nan(tmp_path, capsys, monkeypatch, nan_first):
    # the per-norm maximum over z samples is NaN whichever sample is NaN
    import armould.synthesis as synth

    def ratios(self):
        return {2: math.nan if (self.z == -1.5) == nan_first else 0.5}

    monkeypatch.setattr(synth.NormalizerExpansion, "tail_ratios", ratios)
    inv = tmp_path / "inv.json"
    inv.write_text('{"A": {"1": "1/4"}, "H": 1.0}')
    _, out = run(capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "3,3,2", "--z-moduli", "1.5,2.5")
    assert json.loads(out)["tail_ratios"] == {"2": "nan"}


class TestLinearRHCommand:
    def test_small_data(self, capsys):
        rc, out = run(capsys, "linear-rh", "--a12", "0.1", "--a21", "0.05", "--c", "1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["geometric_decay"] is True

    @pytest.mark.parametrize("r_max", ["0", "-3"])
    def test_r_max_below_one_rejected(self, capsys, r_max):
        rc = main(["linear-rh", "--a12", "1", "--a21", "1", "--c", "1", f"--r-max={r_max}"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "r_max" in json.loads(captured.err)["error"]

    def test_r_max_above_the_slots_exits_before_any_monomial(self, capsys, monkeypatch):
        # the contour has six slots, so a seventh letter is refused before
        # any word is evaluated or any matrix product built
        import armould.synthesis as synth

        def no_batch(*args):
            raise AssertionError("a monomial batch ran")

        monkeypatch.setattr(synth, "paralog_batch_eval", no_batch)
        rc = main(["linear-rh", "--a12", "10", "--a21", "10", "--c", "0.5", "--r-max", "7"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "r_max = 7" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["monomial", "eval", "--word", "(1)", "--z", "inf", "--c", "1"],
        ["monomial", "eval", "--forest", "1(2)", "--z=-inf", "--c", "1"],
        ["monomial", "eval", "--word", "(1,2)", "--z", "infinity", "--c", "2"],
        ["monomial", "eval", "--word", "(1)", "--z=-infi", "--c", "1"],
        ["monomial", "growth-scan", "--c-grid", "1,2", "--norm-cap", "2", "--z=-inf"],
    ],
    ids=["eval-inf", "forest-minus-inf", "eval-infinity", "eval-imaginary-inf", "scan-minus-inf"],
)
def test_infinite_z_reaches_the_non_finite_error(capsys, monkeypatch, argv):
    # an "inf" in --z is read as infinity, not as a malformed imaginary unit
    import armould.monomials as mono

    def no_quadrature(*args):
        raise AssertionError("a quadrature pass ran")

    monkeypatch.setattr(mono, "_pass", no_quadrature)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "is not finite" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("text, value", [("-2", -2), ("1+2i", 1 + 2j), ("-i", -1j), ("2.5-0.5i", 2.5 - 0.5j), ("1j", 1j)])
def test_complex_literals_read_a_trailing_imaginary_unit(text, value):
    from armould.cli import _parse_complex

    assert _parse_complex(text) == value
