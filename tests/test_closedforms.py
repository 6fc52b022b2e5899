import hashlib
import itertools
import json
import sys
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from contactsurg import closedforms, cosmetic, invariants, linalg
from contactsurg.cli import main
from contactsurg.closedforms import DEFAULT_FORMS
from contactsurg.regressions import verify
from contactsurg.surgery import LegendrianData, _presentation, rot_range
from oracles import (
    band,
    bordered_block_matrix,
    chain_matrix,
    chain_matrix_primed,
    check_symmetric,
    closed_form_stage,
    closed_form_sweep,
    determinant,
    listed_convert,
    listed_linking_matrix,
    read,
    sparse,
    tb1_negative_matrix,
    tb1_positive_matrix,
    tb2_negative_matrix,
    tb2_positive_matrix,
    tbk_negative_matrix,
    tbk_positive_matrix,
    tbk_two_matrix,
)


class TestBlockDeterminant:
    def test_full_cube(self):
        # det of the bordered block equals (-1)^m ((a(c+1)-b^2) m + (ac-b^2)),
        # every m <= 10 read off one leading-minor pass, as verify reads them
        for a, b, c in itertools.product(range(-6, 7), repeat=3):
            dets = linalg.leading_determinants(*band(bordered_block_matrix(a, b, c, 10)))
            assert dets[3:] == [(-1) ** m * ((a * (c + 1) - b * b) * m + (a * c - b * b))
                                for m in range(1, 11)]

    def test_spot_value(self):
        # a=0, b=-1, c=0, m=1 gives determinant 2 (3x3 cofactor expansion)
        assert determinant(bordered_block_matrix(0, -1, 0, 1)) == 2


class TestLemmaPaths:
    def test_lemma_paths_are_the_oracle_rows(self, monkeypatch):
        # _lemmas builds each lemma matrix as its path: the diagonals and
        # link products it hands leading_determinants are the oracle rows'
        # a_ii and a_(i,i+1) a_(i+1,i) at every chain size up to 50 and every
        # (a, b, c) in -3..3 with m <= 6, zeros among a, b and c included,
        # and each path it hands adjugate_block is the oracle rows' path
        seen, paths = [], []
        monkeypatch.setattr(linalg, "leading_determinants",
                            lambda a, w: seen.append((a, w)) or [1] * (len(a) + 1))
        monkeypatch.setattr(linalg, "adjugate_block",
                            lambda path, support: paths.append(path) or (1, 0, ()))
        closedforms._lemmas(3, 1)
        (chain, chain_w), (primed, primed_w), *blocks = seen
        for n in range(1, 51):
            assert band(chain_matrix(n)) == (chain[:n], chain_w[:n - 1])
            assert band(chain_matrix_primed(n)) == (primed[:n], primed_w[:n - 1])
        assert (len(chain), len(primed)) == (50, 50) and primed_w[0] == 0
        cube = list(itertools.product(range(-3, 4), repeat=3))
        assert len(blocks) == len(cube)
        negdef = []
        for (a, b, c), (diag, w) in zip(cube, blocks):
            assert len(diag) == 8
            for m in range(1, 7):
                assert band(bordered_block_matrix(a, b, c, m)) == (diag[:m + 2], w[:m + 1])
            if a < 0 and a * c - b * b > 0 and a * (c + 1) - b * b >= 0:
                negdef += [read(bordered_block_matrix(a, b, c, m)) for m in range(1, 7)]
        assert paths == negdef and len(paths) == 150


class TestFamilies:
    def test_two_family_sizes(self):
        assert len(tbk_two_matrix(3, -1)) == 1
        assert tbk_two_matrix(3, -1) == [[-2]]
        assert len(tbk_two_matrix(7, 1)) == 9

    def test_negative_family_bump(self):
        m = tbk_negative_matrix(4, 3)
        assert m[3][3] == -3  # the single -3 entry sits at position k
        assert len(m) == 4 + 3 - 2

    def test_chain_caps(self):
        assert chain_matrix(0) == []
        assert chain_matrix(1) == [{0: -2}]

    def test_lemma_matrices_store_no_zero(self):
        # a, b, c may be 0, and check_symmetric rejects a stored 0
        assert chain_matrix_primed(3) == [{0: -1, 1: -1}, {1: -2, 2: -1}, {1: -1, 2: -2}]
        assert bordered_block_matrix(0, 0, 0, 1) == [{}, {2: -1}, {1: -1, 2: -2}]
        mats = [chain_matrix(n) for n in range(8)] + [chain_matrix_primed(n) for n in range(1, 8)]
        mats += [bordered_block_matrix(a, b, c, m)
                 for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)
                 for m in range(1, 5)]
        for m in mats:
            assert sparse([[row.get(j, 0) for j in range(len(m))] for row in m]) == m
        for m in mats[:8] + mats[15:]:
            assert check_symmetric(m) == tuple(m)

    def test_families_equal_the_pipeline_forms(self):
        # each family is the linking matrix of every presentation that
        # `listed_convert` gives at its tb and smooth slope, so the verifier checks
        # the forms the d3 pipeline uses
        cases = []
        for n in range(1, 21):
            cases += [(tb1_positive_matrix(n), -1, Fraction(1, n)),
                      (tb2_negative_matrix(n), -2, Fraction(-1, n)),
                      (tb2_positive_matrix(n), -2, Fraction(1, n))]
            if n >= 2:
                cases.append((tb1_negative_matrix(n), -1, Fraction(-1, n)))
        for k in range(3, 21):
            cases += [(tbk_two_matrix(k, sign), -k, Fraction(2 * sign)) for sign in (1, -1)]
            for n in range(1, 21):
                cases += [(tbk_negative_matrix(k, n), -k, Fraction(-1, n)),
                          (tbk_positive_matrix(k, n), -k, Fraction(1, n))]
        for family, tb, slope in cases:
            knot = LegendrianData(tb, rot_range(tb)[0])
            forms = [linalg.dense(read(listed_linking_matrix(pres).rows))
                     for pres in listed_convert(knot, slope - tb)]
            forms.append(linalg.dense(
                invariants._presentation(knot, *(slope - tb).as_integer_ratio()).path))
            assert forms and all(q == [list(row) for row in family] for q in forms), (tb, slope)


class TestHalvedForms:
    def test_two_csq_halves_exactly(self):
        # the +-2 forms of c1^2 are integers at the admissible parity of
        # i and refuse the other parity instead of rounding it
        for k in range(3, 12):
            for i in range(-k, k + 1):
                for e in (1, -1):
                    neg = Fraction(-i * i - k * k + 4 * k - 3, 2) + e * (k - 3) * i
                    pos = Fraction(i * i + k * k - 1, 2) - e * (k + 1) * i
                    for name, value in (("two_neg_csq", neg), ("two_pos_csq", pos)):
                        if (i - k - 1) % 2 == 0:
                            got = DEFAULT_FORMS[name](k, i, e)
                            assert type(got) is int and got == value
                        else:
                            with pytest.raises(ValueError, match="inadmissible parity"):
                                DEFAULT_FORMS[name](k, i, e)


class TestVerifier:
    def test_small_sweep_clean(self):
        rep = verify(k_max=6, n_max=6)["closed forms"]
        assert rep["ok"] and rep["mismatches"] == []
        assert rep["checks"] > 3000

    def test_corrupted_form_detected(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_FORMS, "one_neg_sigma", lambda k, n: -k - n + 3)
        rep = verify(k_max=4, n_max=3)["closed forms"]
        assert not rep["ok"]
        assert all(m["check"] == "one_neg_sigma" for m in rep["mismatches"])

    def test_corrupted_csq_detected(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_FORMS, "tb1_neg_csq", lambda n: 3 - n)
        rep = verify(k_max=4, n_max=2)["closed forms"]
        assert not rep["ok"]

    def test_table_mismatch_names_its_entry(self, monkeypatch):
        # a q table off at one entry is one mismatch, its context the
        # family's arguments and that entry, 1-indexed (row 2, column 1)
        table = DEFAULT_FORMS["tb2_pos_q"]

        def corrupted(n):
            q = table(n)
            q[1][0] += n == 2
            return q

        monkeypatch.setitem(DEFAULT_FORMS, "tb2_pos_q", corrupted)
        rep = verify(k_max=3, n_max=3)["closed forms"]
        assert [(m["check"], m["context"], m["expected"], m["actual"])
                for m in rep["mismatches"]] == [("tb2_pos_q", {"n": 2, "entry": (2, 1)}, "-5", "-6")]

    def test_tb2_neg_csq_checked_at_n_one(self, monkeypatch):
        # at n = 1 the form is the 1x1 matrix [-1] and c1^2 is -1
        original = DEFAULT_FORMS["tb2_neg_csq"]
        monkeypatch.setitem(DEFAULT_FORMS, "tb2_neg_csq",
                            lambda n, i, j: original(n, i, j) + (n == 1))
        rep = verify(k_max=3, n_max=2)["closed forms"]
        assert [(m["check"], m["context"]) for m in rep["mismatches"]] == [
            ("tb2_neg_csq", {"n": 1, "i": 1}), ("tb2_neg_csq", {"n": 1, "i": -1})]

    @staticmethod
    def _shifted_form(delta, tbs=None):
        # the presentation the d3 route builds, with its first chain
        # framing (the first row not pinned) moved by delta, on the knots of
        # every tb or of those in tbs
        def shifted(L, p, q):
            pres = _presentation(L, p, q)
            if 0 not in pres.pinned or tbs is not None and pres.base_tb not in tbs:
                return pres
            rows = linalg.dense(pres.path)
            i = pres.pinned.index(0)
            rows[i][i] += delta
            return replace(pres, path=read(sparse(rows)))

        return shifted

    def test_reads_the_pipeline_forms(self, monkeypatch):
        # a linking matrix with its first chain framing lowered by one must
        # fail the sweep: the verifier checks the forms the d3 route builds.
        # Most such forms fail the plan's form/slope check first; each is
        # one mismatch with its matrix, and that form gets no other check
        monkeypatch.setattr(invariants, "_presentation", self._shifted_form(-1))
        rep = verify(k_max=4, n_max=3)["closed forms"]
        assert not rep["ok"]
        slope = [m for m in rep["mismatches"] if m["check"].endswith("_slope")]
        assert {"tb2_neg_slope", "one_neg_slope", "one_pos_slope"} <= {m["check"] for m in slope}
        for m in slope:
            tag = m["check"][:-len("_slope")]
            assert m["matrix"] and "disagree with the slope" in m["actual"]
            assert [other for other in rep["mismatches"] if other["check"].startswith(tag)
                    and other["context"] == m["context"]] == [m]

    def test_slope_error_reduces_the_meridian_square(self, monkeypatch):
        # the meridian square U / det prints in lowest terms with a positive
        # denominator: "-5/2", not "5/-2"
        monkeypatch.setattr(invariants, "_presentation", self._shifted_form(-1))
        rep = verify(k_max=4, n_max=3)["closed forms"]
        texts = {(m["check"], tuple(m["context"].values())): m["actual"]
                 for m in rep["mismatches"] if m["check"].endswith("_slope")}
        assert "meridian square -5/2 disagree" in texts["tb2_neg_slope", (3,)]
        assert "meridian square -4 disagree" in texts["two_pos_slope", (3,)]
        assert not [text for text in texts.values() if "/-" in text]

    def test_pipeline_errors_of_later_stages_are_mismatches(self, monkeypatch, capsys):
        # with every linking matrix's first chain framing lowered by one,
        # regression and scan cells fail the plan's slope check too; verify
        # records each error as a mismatch of its stage, as the closed-form
        # families do, and returns all three reports, where the error ended
        # verify with no report.  The library's scan_cells still raises
        monkeypatch.setattr(invariants, "_presentation", self._shifted_form(-1))
        reports = verify(4, 3)
        assert list(reports) == ["closed forms", "d3 regressions", "obstruction scan"]
        assert not any(rep["ok"] for rep in reports.values())
        cells = reports["d3 regressions"]
        errors = [m for m in cells["mismatches"] if "error" in m]
        assert cells["checks"] == 24 and errors
        assert errors[0] == {"tb": -1, "rot": 0, "smooth_slope": "2", "expected": ["1/4"],
                             "error": "tb=-1, smooth slope 2: det Q = 3 and meridian square "
                                      "2/3 disagree with the slope"}
        scan = [m for m in reports["obstruction scan"]["mismatches"] if "error" in m]
        assert scan and all(m["check"] == "scan" and "disagree with the slope" in m["error"]
                            for m in scan)
        with pytest.raises(invariants.PipelineCheckError):
            cosmetic.scan_cells(-1, -1, 3)
        assert main(["verify", "--k-max", "4", "--n-max", "3"]) == 1
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if not line.startswith(" ")]
        assert [line.split(":")[0] for line in lines] == list(reports)
        assert all(line.endswith("checks, MISMATCH") for line in lines)
        assert "internal check failed" not in captured.err

    def test_a_scan_error_at_one_tb_fails_the_scan(self, monkeypatch):
        # with the shift held to tb = -3, the scan's unobstructed cells are
        # still the one expected; its report fails on the error of tb = -3
        # alone, whose 12 cells are not counted
        monkeypatch.setattr(invariants, "_presentation", self._shifted_form(-1, (-3,)))
        assert verify(4, 3)["obstruction scan"] == {"ok": False, "checks": 132, "mismatches": [
            {"check": "scan", "tb": -3, "error": "tb=-3, smooth slope 2: det Q = -1 and "
                                                 "meridian square -4 disagree with the slope"},
            {"check": "scan", "not_obstructed": [{"tb": -1, "rot": 0, "v": "2"}],
             "solver_solutions": []}]}

    def test_singular_form_is_a_mismatch(self, monkeypatch, capsys):
        # the first chain framing raised by one makes some forms singular;
        # each is one mismatch with its matrix, and the CLI exits 1.  The
        # shift is held to the closed-form families of each tb: the shifted
        # tb = -2 forms that pass the slope check (+1/n) fail the
        # regressions and open scan cells too, which read the plans the
        # families made at their tb, where a plan dict per stage left both ok
        families = closedforms._families

        def shifted(*args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(invariants, "_presentation", self._shifted_form(1))
                families(*args)

        monkeypatch.setattr(closedforms, "_families", shifted)
        rep = verify(4, 3)["closed forms"]
        assert not rep["ok"]
        singular = [m for m in rep["mismatches"] if m["check"].endswith("_invertible")]
        assert singular and all(m["actual"] == "det = 0"
                                and determinant(sparse(m["matrix"])) == 0 for m in singular)
        assert main(["verify", "--k-max", "4", "--n-max", "3"]) == 1
        out = capsys.readouterr().out
        assert f"closed forms: {rep['checks']} checks, MISMATCH" in out
        assert "d3 regressions: 24 checks, MISMATCH" in out
        assert "obstruction scan: 144 checks, MISMATCH" in out

    @pytest.mark.parametrize("mutate", [
        lambda plan: replace(plan, U=0),  # drops the d^2 U term of the shift
        lambda plan: replace(plan, cross=[-w for w in plan.cross]),  # flips the sign of W_v
    ], ids=["no_d2U", "flipped_W"])
    def test_route_mutants_fail_verify(self, monkeypatch, capsys, mutate):
        # every c1^2 check reads invariants.c1_numerators of its family's
        # plan at a shift d != 0 for most rotation numbers, so a broken
        # shift formula fails verify itself
        plan = invariants._plan
        monkeypatch.setattr(invariants, "_plan",
                            lambda *args, **kwargs: mutate(plan(*args, **kwargs)))
        rep = verify(k_max=4, n_max=3)["closed forms"]
        assert not rep["ok"]
        assert all(m["check"].endswith("_csq") for m in rep["mismatches"])
        assert main(["verify", "--k-max", "4", "--n-max", "3"]) == 1
        assert "closed forms: 2686 checks, MISMATCH" in capsys.readouterr().out

    def test_value_without_the_shift_fails_verify(self, monkeypatch):
        # _csq reads each plan's vectors once, at d = 0, and each family's
        # check adds each shift d on the push-off arguments of its one
        # comprehension; with every d dropped each family whose c1^2 moves
        # with the knot's rotation number fails
        csq = closedforms._csq
        monkeypatch.setattr(closedforms, "_csq", lambda rep, name, family, read, check, context: (
            csq(rep, name, family, read,
                lambda form, args, shifts, det: check(form, args, [0] * len(shifts), det),
                context)))
        rep = verify(4, 3)["closed forms"]
        assert not rep["ok"]
        assert {m["check"] for m in rep["mismatches"]} == {
            "tb2_neg_csq", "tb2_pos_csq", "two_neg_csq", "two_pos_csq", "one_neg_csq",
            "one_pos_csq"}

    def test_shifted_rotations_add_d_on_the_pinned_coordinates(self, monkeypatch):
        # the sweep reads each plan's vectors at d = 0 and adds d itself, so
        # this holds for every plan verify makes and every rotation number
        # of its tb: Plan.rotations(d) is rotations(0) with d added on the
        # presentation's pinned rows, which are the listed push-offs
        made = {}
        plan = invariants._plan

        def planned(knot, slope, *args, **kwargs):
            one = plan(knot, slope, *args, **kwargs)
            made[id(one)] = one, knot, slope  # kept, so that no id is reused
            return one

        monkeypatch.setattr(invariants, "_plan", planned)
        assert all(rep["ok"] for rep in verify(4, 3).values())
        assert len(made) == 61
        for one, knot, slope in made.values():
            pres = one.presentation
            vectors = list(one.rotations(0))
            listed = listed_convert(knot, slope - knot.tb)[0]
            assert pres.pinned == tuple(int(c.rot is not None) for c in listed.components)
            for d in (i - pres.base_rot for i in rot_range(pres.base_tb)):
                assert list(one.rotations(d)) == [
                    tuple(x + d * pin for x, pin in zip(v, pres.pinned)) for v in vectors]

    def test_one_vector_list_per_plan(self, monkeypatch):
        # _csq reads each family plan's vectors once, at d = 0 and over its
        # support, and checks every shift against the arguments read from
        # them: 835 reads of 9,780 vectors in all, and a clean sweep walks
        # no full rotation vector.  A walk per (plan, shift) made 8,813
        reads, walks = [], []
        csq, rotations = closedforms._csq, invariants.Plan.rotations

        def counted(rep, name, family, read, check, context):
            def recorded(cols):
                reads.append((family[0], {len(col) for col in cols.values()}))
                return read(cols)
            return csq(rep, name, family, recorded, check, context)

        monkeypatch.setattr(closedforms, "_csq", counted)
        monkeypatch.setattr(invariants.Plan, "rotations",
                            lambda one, d: walks.append(d) or rotations(one, d))
        assert closed_form_stage()["ok"]
        assert len(reads) == 835 and len({id(one) for one, _ in reads}) == 835
        assert all(len(sizes) == 1 for _, sizes in reads)
        assert sum(len(one.quad) for one, _ in reads) == sum(
            size for _, (size,) in reads) == 9780
        assert walks == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 6), st.integers(1, 5),
           st.sampled_from(sorted(name for name in DEFAULT_FORMS if name.endswith("_csq"))),
           st.data())
    def test_a_corrupted_point_reads_as_the_vector_sweep(self, k_max, n_max, name, data):
        # one c1^2 form off by one at one point the sweep checks it at: the
        # report of the one comprehension per (plan, shift) is the oracle's,
        # checked one full vector at a time (checks, mismatch order,
        # contexts, expected and actual)
        original, points = DEFAULT_FORMS[name], set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(DEFAULT_FORMS, name, lambda *args: points.add(args) or original(*args))
            assert closed_form_sweep(k_max, n_max)["ok"]
        assume(points)  # tb1_neg_csq starts at n = 2
        point = data.draw(st.sampled_from(sorted(points)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(DEFAULT_FORMS, name, lambda *args: original(*args) + (args == point))
            rep = verify(k_max, n_max)["closed forms"]
            assert rep == closed_form_sweep(k_max, n_max)
        assert rep["mismatches"] and {m["check"] for m in rep["mismatches"]} == {name}

    def test_mismatch_provenance_digest(self, monkeypatch):
        # closed forms off by one at a few points: sha256 of the report
        # pins the mismatches' order, contexts, expected and actual texts
        # and matrices, pinned from the sweep that built one context dict
        # per c1^2 check
        forms = dict(DEFAULT_FORMS)
        monkeypatch.setitem(DEFAULT_FORMS, "one_pos_csq", lambda k, n, i, e, s: (
            forms["one_pos_csq"](k, n, i, e, s) + (n == 2 and i == 1 and s > 0)))
        monkeypatch.setitem(DEFAULT_FORMS, "tb2_neg_csq", lambda n, i, j: (
            forms["tb2_neg_csq"](n, i, j) - (n == 3 and j > 0)))
        monkeypatch.setitem(DEFAULT_FORMS, "two_neg_sigma", lambda k: (
            forms["two_neg_sigma"](k) + (k == 4)))
        rep = verify(4, 3)["closed forms"]
        assert [m["check"] for m in rep["mismatches"]] == [
            "tb2_neg_csq"] * 3 + ["two_neg_sigma"] + ["one_pos_csq"] * 2
        digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
        assert digest == "88c24ab849cbdaf69201cf7d0cef2f7cf32e4313881d108d8fff23e5d5afa3bd"

    def test_one_elimination_pass_per_form(self, monkeypatch):
        # 835 family forms, one pass each, and 150 block_negdef matrices;
        # separate negdef, signature and block passes made 2,218
        passes = []
        kernel = linalg._path_kernel

        def counted(path, cols):
            passes.append(len(path.a))
            return kernel(path, cols)

        monkeypatch.setattr(linalg, "_path_kernel", counted)
        assert closed_form_stage()["ok"]
        assert len(passes) <= 985

    def test_char_poly_calls(self, monkeypatch):
        # one run reduction per adjugate_block pass, where one characteristic
        # polynomial of the whole form was built: 835 family forms and 150
        # block_negdef matrices.  The lemma determinants are 345
        # leading_determinants passes, where one characteristic polynomial
        # per lemma matrix made 3,143 calls in all; the kernel's thetas and
        # phis are two more per pass
        calls, lemma = [], []
        reduce, leading = linalg._reduce, linalg.leading_determinants

        def recorded(a, w):
            # the kernel's phi reads the path reversed, as iterators
            caller = sys._getframe(1).f_code.co_name
            lemma.append((caller, None if caller == "_path_kernel" else len(a)))
            return leading(a, w)

        monkeypatch.setattr(linalg, "_reduce",
                            lambda a, *rest: calls.append(len(a)) or reduce(a, *rest))
        monkeypatch.setattr(linalg, "leading_determinants", recorded)
        assert closed_form_stage()["ok"]
        assert len(calls) == 985
        assert [n for caller, n in lemma if caller != "_path_kernel"] == [50, 50] + [8] * 343
        assert [caller for caller, _ in lemma].count("_path_kernel") == 2 * 985

    def test_verify_elimination_passes(self, monkeypatch, capsys):
        # the closed forms' 985 and the (tb -1, +-2) plans the regressions
        # and the scan share: the three stages share each tb's plans, and
        # 222 of the 224 plans the last two made repeated a closed-form
        # plan.  A plan dict per stage made 1,207, and a pass per
        # regression cell 1,251
        passes = []
        kernel = linalg._path_kernel
        monkeypatch.setattr(linalg, "_path_kernel",
                            lambda path, cols: passes.append(len(path.a)) or kernel(path, cols))
        assert main(["verify", "--json"]) == 0
        capsys.readouterr()
        assert len(passes) == 987

    def test_no_plan_outlives_its_tb(self, monkeypatch, capsys):
        # verify's three stages share each tb's plans in one dict, dropped
        # when tb moves on: when a plan is made every live plan is of its
        # tb, and none is alive once verify returns.  A dict shared by the
        # stages for the whole run read +25% peak RSS
        made = []
        plan_type = invariants.Plan

        def recorded(*args):
            plan = plan_type(*args)
            tb = plan.presentation.base_tb
            assert [other for ref, other in made if ref() is not None and other != tb] == []
            made.append((weakref.ref(plan), tb))
            return plan

        monkeypatch.setattr(invariants, "Plan", recorded)
        assert main(["verify", "--json"]) == 0
        capsys.readouterr()
        # the 987 kernel passes less the 150 block_negdef matrices
        assert len(made) == 837
        assert sorted({tb for _, tb in made}) == list(range(-20, 0))
        assert [tb for ref, tb in made if ref() is not None] == []

    def test_c1_squares_read_off_plans(self, monkeypatch):
        # N_v = v^T B v once per vector of a plan, by one odometer walk per
        # plan, over every presentation, at the rotation number the plan is
        # made at; every rotation number, that one too, reads its
        # numerators through c1_numerators, once per (plan, rotation
        # number).  One adjugate_quadratic per checked vector made 105,134,
        # and a walk per presentation made 1,876 walks
        vectors, shifts, plans = [], [], {}
        walk, shift, plan = invariants._walk, invariants.c1_numerators, invariants._plan

        def walked(*args):
            quad, cross = walk(*args)
            vectors.append(len(quad))
            return quad, cross

        def planned(L, *args, **kwargs):
            made = plan(L, *args, **kwargs)  # kept, so that no id is reused
            plans[id(made)] = made, [i - L.rot for i in rot_range(L.tb)]
            return made

        monkeypatch.setattr(invariants, "_walk", walked)
        monkeypatch.setattr(invariants, "_plan", planned)
        monkeypatch.setattr(invariants, "c1_numerators",
                            lambda made, d: shifts.append((id(made), d)) or shift(made, d))
        assert closed_form_stage()["ok"]
        assert sum(vectors) == 9780 and len(vectors) == 835
        assert len(plans) == 835 and len(shifts) == 8813
        assert sorted(shifts) == sorted((key, d) for key, (_, ds) in plans.items() for d in ds)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            verify(k_max=2, n_max=5)
