from contactsurg import linalg
from contactsurg.regressions import verify_d3_regressions


def test_regressions_clean():
    report = verify_d3_regressions(12)
    assert report["ok"] and report["mismatches"] == []


def test_cells_share_one_plan_per_slope(monkeypatch):
    # 126 cells over 82 (tb, slope) keys: tb = -2 is asked at rot 1 and -1,
    # tb = -3 at rot 0, 2 and -2, and each key is one path-kernel pass
    passes = []
    kernel = linalg._path_kernel
    monkeypatch.setattr(linalg, "_path_kernel",
                        lambda rows, *read: passes.append(len(rows)) or kernel(rows, *read))
    report = verify_d3_regressions(20)
    assert report["ok"] and report["checks"] == 126
    assert len(passes) <= 82
