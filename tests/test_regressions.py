import pytest

from contactsurg import cli, cosmetic, linalg
from contactsurg.closedforms import DEFAULT_FORMS
from contactsurg.invariants import PipelineCheckError
from contactsurg.regressions import verify
from oracles import regression_stage


def test_regressions_clean():
    report = verify(3, 12)["d3 regressions"]
    assert report["ok"] and report["mismatches"] == []


def test_cells_share_one_plan_per_slope(monkeypatch):
    # 126 cells over 82 (tb, slope) keys: tb = -2 is asked at rot 1 and -1,
    # tb = -3 at rot 0, 2 and -2, and each key is one path-kernel pass
    passes = []
    kernel = linalg._path_kernel
    monkeypatch.setattr(linalg, "_path_kernel",
                        lambda path, cols: passes.append(len(path.a)) or kernel(path, cols))
    results = regression_stage(20)
    assert all(ok for ok, _ in results) and len(results) == 126
    assert len(passes) <= 82


def test_unobstructed_cells_in_ascending_tb(monkeypatch):
    # the walk runs tb = -1, -2, ... but the scan's report lists the
    # unobstructed cells in ascending tb, as scan_cells does
    scan_tb = cosmetic._scan_tb

    def opened(tb, n_max, plans):
        cells, not_obstructed = scan_tb(tb, n_max, plans)
        return cells, not_obstructed + [{"tb": tb, "rot": 0, "v": "1"}] * (tb in (-2, -5))

    monkeypatch.setattr(cosmetic, "_scan_tb", opened)
    scan = verify(3, 1)["obstruction scan"]
    assert not scan["ok"] and scan["checks"] == 72
    assert scan["mismatches"][0]["not_obstructed"] == [
        {"tb": -5, "rot": 0, "v": "1"}, {"tb": -2, "rot": 0, "v": "1"},
        {"tb": -1, "rot": 0, "v": "2"}]


def test_a_solver_check_failure_is_one_scan_mismatch(monkeypatch, capsys):
    # one_pos_csq off by one at (k, n, i, e, s) = (3, 1, -2, -1, 0): the
    # closed-form stage reports the point, and the d3-equality solver's
    # check of its +-1/n solution against the forms fails; that is one
    # scan mismatch, not an internal error, and the CLI prints all three
    # stage lines and exits 1
    original = DEFAULT_FORMS["one_pos_csq"]
    monkeypatch.setitem(DEFAULT_FORMS, "one_pos_csq", lambda k, n, i, e, s: (
        original(k, n, i, e, s) + ((k, n, i, e, s) == (3, 1, -2, -1, 0))))
    with pytest.raises(PipelineCheckError, match="solver and closed forms disagree"):
        cosmetic.solve_d3_equation(-3, "pm_one_over_n", 4)
    report = verify(3, 4)
    assert [rep["ok"] for rep in report.values()] == [False, True, False]
    scan = report["obstruction scan"]
    assert scan["checks"] == 180
    error, summary = scan["mismatches"]
    assert error == {"check": "scan", "error": (
        "solver and closed forms disagree at tb=-3, {'family': 'pm_one_over_n', 'i': -2, "
        "'e1': -1, 'e2': -1, 'j': 1, 's': -3, 'n': 4}: d3 1 at -1/n against 0 at +1/n")}
    assert summary == {"check": "scan", "not_obstructed": [{"tb": -1, "rot": 0, "v": "2"}],
                       "solver_solutions": []}
    assert cli.main(["verify", "--k-max", "3", "--n-max", "4"]) == 1
    out, err = capsys.readouterr()
    stages = [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]
    assert stages == ["closed forms", "d3 regressions", "obstruction scan"]
    assert "internal check failed" not in err
