from contactsurg import cosmetic, linalg
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
