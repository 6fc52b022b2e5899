import re
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name, file, snippet, replacement, ids", MUTANTS,
                         ids=[row[0] for row in MUTANTS])
def test_each_snippet_occurs_once_and_each_killer_exists(name, file, snippet, replacement, ids):
    # the catalogue runs outside tier-1; here it is kept applicable: a
    # snippet that a change rewrote or duplicated, or a renamed test,
    # fails at once, not when the catalogue next runs
    assert (ROOT / "src" / "contactsurg" / file).read_text().count(snippet) == 1
    assert snippet != replacement and ids
    for test in ids:
        path, *names = test.split("::")
        text = (ROOT / path).read_text()
        kinds = ["class"] * (len(names) - 1) + ["class" if names[-1][:4] == "Test" else "def"]
        for kind, found in zip(kinds, names):
            assert re.search(rf"^\s*{kind} {found}\b", text, re.M), test


def test_names_are_unique():
    assert len({row[0] for row in MUTANTS}) == len(MUTANTS)
