"""CLI dispatch, exit codes and output determinism."""

import json

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


class TestMouldCommands:
    def test_check_redom_passes(self, capsys):
        rc, out = run(capsys, "mould", "check", "--builtin", "redom", "--kind", "alternel", "--cap", "4")
        assert rc == 0
        assert "pass" in out

    def test_check_failure_exit_1(self, capsys):
        rc, out = run(capsys, "mould", "check", "--builtin", "unit1", "--kind", "alternel", "--cap", "2")
        assert rc == 1

    def test_arborify_cherry(self, capsys):
        rc, out = run(
            capsys, "mould", "arborify", "--builtin", "standard_log", "--forest", "1(2,3)", "--mode", "contracting"
        )
        assert rc == 0
        # 1/3 + 1/3 + 2 * (-1/2) = -1/3
        assert out.strip() == "-1/3"


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


class TestMonomialCommands:
    def test_eval_json(self, capsys):
        rc, out = run(capsys, "monomial", "eval", "--word", "(1)", "--z", "-2", "--c", "1", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert abs(float(payload["Ua(1)"]["re"]) - 0.07896393999251805) < 1e-10

    def test_eval_csv(self, capsys):
        rc, out = run(capsys, "monomial", "eval", "--word", "(1)", "--z", "-2", "--c", "1", "--csv")
        assert rc == 0
        assert out.splitlines()[0] == "label,z,c,re,im,error"

    def test_pole_probe(self, capsys):
        rc, out = run(capsys, "monomial", "pole-probe", "--omega", "2", "--c", "0.5")
        assert rc == 0

    def test_determinism_double_run(self, capsys):
        _, out1 = run(capsys, "monomial", "eval", "--word", "(1,2)", "--z", "-2", "--c", "1", "--json")
        _, out2 = run(capsys, "monomial", "eval", "--word", "(1,2)", "--z", "-2", "--c", "1", "--json")
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

    def test_double_run_byte_identical(self, tmp_path, capsys):
        inv = tmp_path / "inv.json"
        inv.write_text('{"A": {"1": "1/4"}, "H": 1.0}')
        _, out1 = run(capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2")
        _, out2 = run(capsys, "synthesize", "--invariants", str(inv), "--c", "2", "--caps", "4,4,2")
        assert out1 == out2

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


class TestLinearRHCommand:
    def test_small_data(self, capsys):
        rc, out = run(capsys, "linear-rh", "--a12", "0.1", "--a21", "0.05", "--c", "1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["geometric_decay"] is True
