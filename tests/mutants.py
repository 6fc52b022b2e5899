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
all of the row's tests in one child process and restores the file.  A
mutant is killed when pytest exits 1 and every named test id has a
failed test among pytest's summary lines: a killer that stops catching
its mutant shows, even while another still does.  A mutant survives when
some named id has no failure (the row's line names them), and any other
exit code (tests not collected, a usage error) is an error of the table.
The run prints one line per mutant and exits 1 if any mutant survives
or errs.  ``tests/test_mutants.py`` checks
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
_SCAN_DIGEST = "tests/test_cosmetic.py::TestScanDigest::test_scan_json_is_unchanged"
_SCAN_PASS = "tests/test_cosmetic.py::TestScanPass::test_every_cell_of_the_scan_range"
_D3_DIGEST = "tests/test_cli.py::TestD3Digest"
_SPLIT = "tests/test_invariants.py::TestSplitPairCancellation::test_split_pair_leaves_the_spectrum"
_CASCADE = "tests/test_cosmetic.py::TestUnknotClassification::test_closed_form_is_the_merge_cascade"
_ENUMERATED = "tests/test_cosmetic.py::TestUnknotClassification::test_count_matches_enumeration"
_SOLVER_CHECK = "tests/test_regressions.py::test_a_solver_check_failure_is_one_scan_mismatch"
_REDUCTION = "tests/test_linalg.py::TestRunReduction::test_matches_char_poly_and_the_kernel"
_SIGNATURES = "tests/test_linalg.py::TestSignature::test_examples"
_KERNEL = "tests/test_linalg.py::TestPathKernel::test_matches_the_oracle"
_ONE_PASS = "tests/test_linalg.py::TestPathKernel::test_one_pass_block_is_the_transposed_block"
_LEADING = "tests/test_linalg.py::TestLeadingDeterminants::"
_LENS_TABLE = "tests/test_farey.py::TestCounts::test_lens_counts_match_continued_fraction_product"
_LENS_SHUFFLE = "tests/test_farey.py::TestCounts::test_honda_product_is_the_sign_shuffle_count"
_LENS_RUNS = "tests/test_farey.py::TestCounts::test_fused_count_is_the_product_over_runs"

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
     (_SCAN_DIGEST,)),
    ("scan_shifts_from_the_last_rot", "cosmetic.py",
     "shifts = [rot - plan.presentation.base_rot for rot in rots]",
     "shifts = [rot - rots[-1] for rot in rots]",
     (_SCAN_PASS, _SCAN_DIGEST)),
    ("scan_d3_text_integer_branch_flipped", "cosmetic.py",
     'str(a) if b == 1 else f"{a}/{b}"',
     'str(a) if b != 1 else f"{a}/{b}"',
     (_SCAN_PASS, _SCAN_DIGEST)),
    ("d3_pass_every_shift_reads_shift_zero", "invariants.py",
     "runs, table = [c1_numerators(plan, d) for d in shifts], {}",
     "runs, table = [c1_numerators(plan, shifts[0]) for d in shifts], {}",
     (_SCAN_PASS, _SCAN_DIGEST)),
    ("plan_contact_coefficient_sign", "invariants.py",
     "pres = _presentation(L, p - L.tb * q, q)",
     "pres = _presentation(L, p + L.tb * q, q)",
     (_SWEEP,)),
    ("support_loses_the_last_extra_row", "invariants.py",
     "*(i for i in extra if i < n)}))",
     "*(i for i in extra if i < n - 1)}))",
     (_SWEEP,)),
    ("d3_size_term_tripled", "invariants.py",
     "2 * len(pres.path.a)",
     "3 * len(pres.path.a)",
     (_D3_DIGEST, _SCAN_DIGEST, _SPLIT)),
    ("d3_contact_plus_term_three_per_component", "invariants.py",
     "4 * pres.l",
     "3 * pres.l",
     (_D3_DIGEST, _SCAN_DIGEST, _SPLIT)),
    ("meridian_reads_one_pin", "invariants.py",
     "bu = [sum(row[:pins]) for row in block]",
     "bu = [sum(row[:1]) for row in block]",
     (_SWEEP,)),
    ("phi_read_one_index_off", "linalg.py",
     "ends = [phi[j + 1] for j in touched]",
     "ends = [phi[j] for j in touched]",
     (_ONE_PASS,)),
    ("phi_left_reversed", "linalg.py",
     "    phi.reverse()\n",
     "",
     (_ONE_PASS,)),
    ("reduce_run_without_the_link_test", "linalg.py",
     " and (first is None or b[v - 1] ** 2 == 1)",
     "",
     (_REDUCTION,)),
    ("reduce_left_schur_term_over_r", "linalg.py",
     "* r * d[left] ** 2 // (r + 1)",
     "* r * d[left] ** 2 // r",
     (_REDUCTION, _SIGNATURES)),
    ("reduce_bridge_link_unsquared", "linalg.py",
     "bridge[right] = link * link",
     "bridge[right] = link",
     (_REDUCTION, "tests/test_linalg.py::TestSparseRows::test_linking_forms_match_the_dense_oracles")),
    ("descartes_negates_the_even_powers", "linalg.py",
     "negated[-2::-2]",
     "negated[-1::-2]",
     (_REDUCTION, _SIGNATURES)),
    ("check_basis_reads_the_link_after", "linalg.py",
     "b[min(i, j)]",
     "b[max(i, j)]",
     (_KERNEL, _ONE_PASS)),
    ("leading_determinants_link_one_row_late", "linalg.py",
     "zip(a, [0, *w])",
     "zip(a, [*w, 0])",
     (_LEADING + "test_each_entry_is_the_oracle_determinant_of_its_block",
      _LEADING + "test_singular_prefix_and_one_way_links")),
    ("theta_signs_without_the_empty_minor", "linalg.py",
     "signs = [t > 0 for t in theta]",
     "signs = [t > 0 for t in theta[1:]]",
     (_SIGNATURES, _KERNEL)),
    ("band_last_head_row_unlinked", "linalg.py",
     "row = [c] * h + (b[h - 1:h] if i == h - 1 else [])",
     "row = [c] * h",
     (_D3_DIGEST, "tests/test_cli.py::TestJsonText::test_paths_equal_json_dumps_of_dense_rows",
      "tests/test_linalg.py::TestDense::test_rows_are_the_form_entry_by_entry")),
    ("report_stabilized_push_off_tb_unstabilized", "cli.py",
     '"tb": framings[l] + 1,',
     '"tb": framings[l],',
     (_D3_DIGEST, "tests/test_cli.py::TestD3Report::test_components_are_the_listed_presentations")),
    ("json_keys_unsorted", "cli.py",
     "for key in sorted(keys):",
     "for key in keys:",
     (_JSON,)),
    ("json_dict_list_indent", "cli.py",
     'order.setdefault(keys, _heads(keys, inner + "  "))',
     "order.setdefault(keys, _heads(keys, inner))",
     (_D3_DIGEST,)),
    ("unknot_count_without_the_tb_minus_one_edge", "cosmetic.py",
     "return -(-smooth.denominator // smooth.numerator) + (tb == -1)",
     "return -(-smooth.denominator // smooth.numerator)",
     (_CASCADE, _ENUMERATED)),
    ("unknot_count_ceiling_read_as_floor", "cosmetic.py",
     "return -(-smooth.denominator // smooth.numerator) + (tb == -1)",
     "return smooth.denominator // smooth.numerator + (tb == -1)",
     (_CASCADE, _ENUMERATED)),
    ("honda_factor_read_as_minus_c", "farey.py",
     "count *= (n - 1) // b",
     "count *= -(-n // b)",
     (_LENS_TABLE, _LENS_SHUFFLE, _LENS_RUNS)),
    ("lens_euclid_takes_the_positive_remainder", "farey.py",
     "n, b = b, -n % b",
     "n, b = b, n % b",
     (_LENS_TABLE, _LENS_SHUFFLE, _LENS_RUNS)),
    ("lens_coprimality_accepts_a_common_factor", "farey.py",
     "    if n != 1:\n",
     "    if n == p:\n",
     (_LENS_RUNS, "tests/test_farey.py::TestCounts::test_pairs_that_are_no_lens_space_are_refused")),
    ("verify_lets_the_solver_check_escape", "regressions.py",
     "    except _ERRORS as exc:\n        solutions = []\n",
     "    except ZeroDivisionError as exc:\n        solutions = []\n",
     (_SOLVER_CHECK,)),
    ("solver_check_raises_a_bare_runtime_error", "cosmetic.py",
     "raise invariants.PipelineCheckError(",
     "raise RuntimeError(",
     (_SOLVER_CHECK,)),
    ("unknot_off_boundary_rotation_an_internal_error", "cosmetic.py",
     'raise ValueError("overtwisted regime: above 0',
     'raise RuntimeError("overtwisted regime: above 0',
     ("tests/test_cosmetic.py::TestUnknotClassification::"
      "test_off_boundary_rotations_above_zero_are_a_domain_error",)),
    ("unknot_count_rotation_parity_unchecked", "cosmetic.py",
     "abs(rot) > -tb - 1 or (rot - tb - 1) % 2",
     "abs(rot) > -tb - 1",
     ("tests/test_cosmetic.py::TestUnknotClassification::"
      "test_rotation_numbers_off_the_unknot_range_are_refused",)),
]


def _pytest(workdir, ids):
    """The exit code of one pytest child on ``ids`` in ``workdir``, and
    the named ids with no failed test in its summary."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                          *ids], cwd=workdir, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, [test for test in ids if not any(
        f == test or f.startswith((test + "::", test + "[")) for f in failed)]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        every = sorted({test for *_, ids in MUTANTS for test in ids})
        code, _ = _pytest(work, every)
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
                code, missed = _pytest(work, ids)
            finally:
                path.write_text(source)
            status = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
            if code == 1 and missed:
                status = "SURVIVED"
                name += f" (no failed test in {', '.join(missed)})"
            bad += status != "killed"
            print(f"{status:8} {name}")
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
