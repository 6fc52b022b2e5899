"""A catalogue of mutants of ``src/``, each with the tests that must kill it.

Each row of ``MUTANTS`` names a mutant, the file under
``src/contactsurg`` it changes, an exact snippet that occurs once in that
file, its replacement, and the ids of the tests that must fail once it is
applied.  A mutant is a fault that a later change could bring back
unnoticed: a check that reads the wrong coordinate, a shift dropped from
the c1^2 check, a continuant read one index off.

``python tests/mutants.py`` (from the repository root) runs the table.
It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory once and runs every named test there unmutated, which must
pass.  Then, one row at a time, it applies the patch to the copy, runs
the row's tests in one child process and restores the file.  A mutant is
killed when pytest reports a failed test (exit code 1); it survives when
the tests pass, and any other exit code (tests not collected, a usage
error) is an error of the table.  The run prints one line per mutant and
exits 1 if any mutant survives or errs.  ``tests/test_mutants.py`` checks
the table itself in tier-1: each snippet occurs exactly once in its file
and each test id names a test that exists.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SWEEP = "tests/test_closedforms.py::TestVerifier::test_small_sweep_clean"
_POINT = "tests/test_closedforms.py::TestVerifier::test_a_corrupted_point_reads_as_the_vector_sweep"
_JSON = "tests/test_cli.py::TestJsonText::test_equals_json_dumps"

# (name, file under src/contactsurg, snippet, replacement, test ids that must fail)
MUTANTS = [
    ("csq_shift_dropped", "closedforms.py",
     "[form(k, n, i + d, e, s) * det\n",
     "[form(k, n, i, e, s) * det\n",
     (_SWEEP, _POINT)),
    ("csq_push_off_difference_flipped", "closedforms.py",
     "lambda col: zip(col[0], map(sub, col[1], col[0]) if 1 in col else repeat(1)),",
     "lambda col: zip(col[0], map(sub, col[0], col[1]) if 1 in col else repeat(1)),",
     (_SWEEP,)),
    ("csq_chain_row_read_one_off", "closedforms.py",
     "col[k - 1] if n >= 2 else repeat(0)),",
     "col[k - 2] if n >= 2 else repeat(0)),",
     (_SWEEP,)),
    ("csq_mismatch_walk_without_det", "closedforms.py",
     "                if want * det != num:",
     "                if want != num:",
     ("tests/test_closedforms.py::TestVerifier::test_mismatch_provenance_digest",)),
    ("family_shifts_from_the_bottom", "closedforms.py",
     "top = LegendrianData(tb, rots[0]), [i - rots[0] for i in rots]",
     "top = LegendrianData(tb, rots[0]), [i - rots[-1] for i in rots]",
     (_SWEEP,)),
    ("table_entry_left_out_of_context", "closedforms.py",
     'context = {**context, "entry": entry}',
     "context = dict(context)",
     ("tests/test_closedforms.py::TestVerifier::test_table_mismatch_names_its_entry",)),
    ("shifted_d3_reads_the_other_family", "cosmetic.py",
     'f["one_pos_csq"],\n                                      f["one_pos_sigma"])',
     'f["one_pos_csq"],\n                                      f["one_neg_sigma"])',
     ("tests/test_cosmetic.py::TestEquationSolver::test_closed_d3_forms_match_pipeline",)),
    ("scan_sides_swapped", "cosmetic.py",
     "(neg_side, neg), (pos_side, pos) = spectra[0][r], spectra[1][r]",
     "(neg_side, neg), (pos_side, pos) = spectra[1][r], spectra[0][r]",
     ("tests/test_cosmetic.py::TestScanDigest::test_scan_json_is_unchanged",)),
    ("plan_contact_coefficient_sign", "invariants.py",
     "pres = _presentation(L, p - L.tb * q, q)",
     "pres = _presentation(L, p + L.tb * q, q)",
     (_SWEEP,)),
    ("support_loses_the_last_extra_row", "invariants.py",
     "*(i for i in extra if i < n)}))",
     "*(i for i in extra if i < n - 1)}))",
     (_SWEEP,)),
    ("meridian_reads_one_pin", "invariants.py",
     "bu = [sum(row[:pins]) for row in block]",
     "bu = [sum(row[:1]) for row in block]",
     (_SWEEP,)),
    ("phi_read_one_index_off", "linalg.py",
     "ends = [phi[j + 1] for j in touched]",
     "ends = [phi[j] for j in touched]",
     ("tests/test_linalg.py::TestPathKernel::test_one_pass_block_is_the_transposed_block",)),
    ("phi_left_reversed", "linalg.py",
     "    phi.reverse()\n",
     "",
     ("tests/test_linalg.py::TestPathKernel::test_one_pass_block_is_the_transposed_block",)),
    ("json_keys_unsorted", "cli.py",
     "for key in sorted(keys):",
     "for key in keys:",
     (_JSON,)),
    ("json_dict_list_indent", "cli.py",
     'order.setdefault(keys, _heads(keys, inner + "  "))',
     "order.setdefault(keys, _heads(keys, inner))",
     ("tests/test_cli.py::TestD3Digest",)),
]


def _pytest(workdir, ids):
    """The exit code of one pytest child on ``ids`` in ``workdir``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *ids], cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        every = sorted({test for *_, ids in MUTANTS for test in ids})
        code = _pytest(work, every)
        if code:
            print(f"the unmutated tree fails its mutants' tests (pytest exit {code})")
            return 1
        bad = 0
        for name, file, snippet, replacement, ids in MUTANTS:
            path = work / "src" / "contactsurg" / file
            source = path.read_text()
            if source.count(snippet) != 1:
                print(f"ERROR    {name}: the snippet occurs {source.count(snippet)} times in {file}")
                bad += 1
                continue
            path.write_text(source.replace(snippet, replacement))
            try:
                code = _pytest(work, ids)
            finally:
                path.write_text(source)
            status = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
            bad += code != 1
            print(f"{status:8} {name}")
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
