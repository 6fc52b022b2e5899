from contactsurg.regressions import verify_d3_regressions


def test_regressions_clean():
    report = verify_d3_regressions(12)
    assert report["ok"] and report["mismatches"] == []

