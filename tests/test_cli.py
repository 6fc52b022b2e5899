import json

from contactsurg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestD3Command:
    def test_worked_value(self, capsys):
        code, out, _ = run(capsys, "d3", "--tb", "-1", "--rot", "0", "--slope", "-1/2")
        assert code == 0
        assert "d3 spectrum: 1" in out

    def test_contact_frame_flag(self, capsys):
        code, out, _ = run(capsys, "d3", "--tb", "-2", "--rot", "1", "--coeff", "1")
        assert code == 0
        assert "d3 spectrum: 1" in out

    def test_excluded_slope_exits_2(self, capsys):
        code, _, err = run(capsys, "d3", "--tb", "-1", "--rot", "0", "--slope", "0")
        assert code == 2
        assert "non-torsion" in err

    def test_invalid_rot_exits_2(self, capsys):
        code, _, err = run(capsys, "d3", "--tb", "-1", "--rot", "1", "--slope", "-1/2")
        assert code == 2

    def test_malformed_slope_exits_2(self, capsys):
        for flag, text in (("--slope", "1/2/3"), ("--slope", "abc"),
                           ("--coeff", "1/"), ("--coeff", "/2")):
            code, out, err = run(capsys, "d3", "--tb", "-1", "--rot", "0", flag, text)
            assert code == 2 and out == ""
            assert err == f"error: malformed slope {text!r}: expected p/q, p or inf\n"

    def test_both_flags_rejected(self, capsys):
        code, _, _ = run(capsys, "d3", "--tb", "-1", "--rot", "0",
                         "--slope", "-1/2", "--coeff", "1/2")
        assert code == 2


class TestCsSetCommand:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "cs-set", "3", "1", "--bound", "10", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["results"]["members"] == [
            "-3", "-3/4", "-3/7", "-3/10", "3/8", "3/5", "3/2"]

    def test_six_members(self, capsys):
        code, out, _ = run(capsys, "cs-set", "2", "1", "--bound", "5", "--json")
        assert code == 0
        assert len(json.loads(out)["results"]["members"]) == 6

    def test_invalid_canonical_form(self, capsys):
        code, _, err = run(capsys, "cs-set", "3", "4", "--bound", "10")
        assert code == 2

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run(capsys, "cs-set", "7", "2", "--bound", "30", "--json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) == out.strip()


class TestUnknotCommand:
    def test_boundary_case(self, capsys):
        code, out, _ = run(capsys, "unknot", "--tb", "-1", "--rot", "0",
                           "--coeff", "5/3")
        assert code == 0
        assert "3 equivalent surgeries" in out

    def test_unique_case(self, capsys):
        code, out, _ = run(capsys, "unknot", "--tb", "-3", "--rot", "0",
                           "--coeff", "-1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["results"]["equivalence"] == "unique"

    def test_parity_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "unknot", "--tb", "-1", "--rot", "1",
                         "--coeff", "5/3")
        assert code == 2


class TestVerifyCommand:
    def test_small_bounds_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--k-max", "3", "--n-max", "3")
        assert code == 0
        assert "closed forms" in out and "MISMATCH" not in out

    def test_corrupted_formula_fails(self, capsys, monkeypatch):
        # negative control: corrupt one closed form and expect a nonzero exit
        import contactsurg.closedforms as cf
        import contactsurg.cli as cli

        original = cf.verify_closed_forms

        def corrupted(k_max, n_max, forms=None, **kw):
            return original(k_max, n_max,
                            forms={"chain_det": lambda n: (-1) ** n * (n + 2)}, **kw)

        monkeypatch.setattr(cli, "verify_closed_forms", corrupted)
        code, out, _ = run(capsys, "verify", "--k-max", "3", "--n-max", "3")
        assert code == 1
        assert "MISMATCH" in out
