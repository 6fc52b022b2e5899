import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurg import cosmetic, invariants, linalg
from contactsurg.closedforms import DEFAULT_FORMS
from contactsurg.cosmetic import (
    EXCEPTIONAL_FLAGS,
    candidate_slopes,
    equivalent_surgery_count,
    scan,
    scan_cells,
    solve_d3_equation,
    solve_d3_equations,
    unknot_classify,
)
from contactsurg.invariants import d3_spectrum
from contactsurg.slopes import SlopeError
from contactsurg.surgery import (Component, ContactZeroError, LegendrianData,
                                SurgeryPresentation, rot_range)
from oracles import (
    affine_solutions_loop,
    brute_force_d3_matches,
    equivalent_count_enumerated,
    solve_d3_equation_by_hand,
    solve_one_over_n_loop,
)


def lifted_rot_range(tb):
    """rot_range(tb) with the rotation parity constraint lifted."""
    return list(range(tb + 1, -tb))


class TestRotRange:
    def test_examples(self):
        assert rot_range(-1) == [0]
        assert rot_range(-2) == [-1, 1]
        assert rot_range(-4) == [-3, -1, 1, 3]

    def test_out_of_scope(self):
        with pytest.raises(ValueError):
            rot_range(0)


class TestCandidateSlopes:
    def test_genus_two_includes_two(self):
        got = candidate_slopes(2, n_max=5)
        assert Fraction(2) in got
        assert got == [Fraction(2)] + [Fraction(1, n) for n in range(1, 6)]

    def test_other_genus_excludes_two(self):
        got = candidate_slopes(3, n_max=4)
        assert Fraction(2) not in got
        assert got == [Fraction(1, n) for n in range(1, 5)]


def cell(tb, rot, v, n_max=1):
    """The scan cell of the pair {-v, +v} on the (tb, rot) knot, read off
    ``scan_cells(tb, tb, n_max)``."""
    pair = [str(-Fraction(v)), str(Fraction(v))]
    return next(c for c in scan_cells(tb, tb, n_max)["cells"]
                if c["rot"] == rot and c["pair"] == pair)


class TestScanVerdicts:
    def test_tb1_half_obstructed(self):
        v = cell(-1, 0, Fraction(1, 2), 2)["verdict"]
        assert v["outcome"] == "obstructed"
        assert v["spectrum_neg"] == ["1"] and v["spectrum_pos"] == ["0"]

    def test_tb1_two_is_the_exception(self):
        v = cell(-1, 0, Fraction(2))["verdict"]
        assert v["outcome"] == "not_obstructed"
        assert v["spectrum_neg"] == v["spectrum_pos"] == ["1/4"]
        assert v["exception_flags"] == list(EXCEPTIONAL_FLAGS)

    def test_contact_zero_cells_reported(self):
        for tb, rot, v in ((-1, 0, 1), (-2, 1, 2)):
            c = cell(tb, rot, v)
            assert c["verdict"] == {"slope_pair": c["pair"], "spectrum_neg": [],
                                    "spectrum_pos": [], "outcome": "contact_zero",
                                    "exception_flags": []}
            assert "provenance" not in c

    def test_tb2_parity_split(self):
        # negative side odd, positive side even, for every n
        cells = scan_cells(-2, -2, 50)["cells"]
        for rot in (1, -1):
            for n in range(1, 51):
                pair = [str(Fraction(-1, n)), str(Fraction(1, n))]
                v = next(c for c in cells if c["rot"] == rot and c["pair"] == pair)["verdict"]
                assert v["outcome"] == "obstructed"
                assert all(Fraction(x) % 2 == 1 for x in v["spectrum_neg"])
                assert all(Fraction(x) % 2 == 0 for x in v["spectrum_pos"])
                if n >= 2:
                    assert v["spectrum_neg"] == sorted(["1", str(3 - 2 * n)])

    def test_rules_on_made_up_spectra(self, monkeypatch):
        # the paper's data has no partly overlapping spectra and equal ones
        # only at (tb -1, v 2), so the rules are checked on spectra made up
        # here: a shared value does not obstruct, flags mark only the +-2
        # cell at tb -1, and contact-zero cells ask for no spectrum
        asked = []

        def overlapping(knots, slope, plans):
            asked.extend((L.tb, slope) for L in knots)
            return [((), {"0", "1"} if slope < 0 else {"1", "2"})] * len(knots)

        monkeypatch.setattr(cosmetic, "_spectra", overlapping)
        monkeypatch.setattr(cosmetic, "_provenance", lambda *side: [])
        report = scan_cells(-3, -1, 3)
        live = [c for c in report["cells"] if c["verdict"]["outcome"] != "contact_zero"]
        assert live and all(c["verdict"]["outcome"] == "not_obstructed" for c in live)
        assert all(c["verdict"]["spectrum_neg"] == ["0", "1"]
                   and c["verdict"]["spectrum_pos"] == ["1", "2"] for c in live)
        assert len(report["not_obstructed"]) == len(live)
        assert (-1, -1) not in asked and (-2, -2) not in asked
        assert len(asked) == 2 * len(live)

        monkeypatch.setattr(cosmetic, "_spectra",
                            lambda knots, slope, plans: [((), {"1/4"})] * len(knots))
        report = scan_cells(-3, -1, 3)
        flagged = {(c["tb"], c["rot"], c["pair"][1]) for c in report["cells"]
                   if c["verdict"]["exception_flags"]}
        assert flagged == {(-1, 0, "2")}
        assert all(c["verdict"]["exception_flags"] in ([], list(EXCEPTIONAL_FLAGS))
                   for c in report["cells"])

    def test_spectra_match_d3_spectrum(self):
        # every cell's spectra are the d3 spectra of a fresh plan at -v and v
        for c in scan_cells(-5, -1, 8)["cells"]:
            v = c["verdict"]
            if v["outcome"] == "contact_zero":
                continue
            L = LegendrianData(c["tb"], c["rot"])
            neg, pos = map(Fraction, c["pair"])
            assert v["spectrum_neg"] == sorted(map(str, d3_spectrum(L, neg)))
            assert v["spectrum_pos"] == sorted(map(str, d3_spectrum(L, pos)))
            assert v["outcome"] == ("obstructed" if set(v["spectrum_neg"]).isdisjoint(
                v["spectrum_pos"]) else "not_obstructed")


class TestEquationSolver:
    def test_pm_one_and_pm_two_empty(self):
        for k in range(3, 21):
            assert solve_d3_equation(-k, "pm_one") == []
            if k >= 4:
                assert solve_d3_equation(-k, "pm_two") == []

    def test_pm_one_over_n_empty(self):
        for k in range(3, 21):
            assert solve_d3_equation(-k, "pm_one_over_n", n_max=20) == []

    def test_closed_d3_forms_match_pipeline(self):
        # the polynomial d3 expressions used by the solver agree with the
        # full pipeline on the admissible data
        for k in (3, 4, 5):
            neg_n, pos_n, _, _ = cosmetic._shifted_d3(k)
            for n in (2, 3):
                for i in rot_range(-k):
                    L = LegendrianData(-k, i)
                    neg = d3_spectrum(L, Fraction(-1, n))
                    closed_neg = {
                        Fraction(neg_n(n, i, e, j) + 4, 4)
                        for e in (1, -1) for j in (1, -1)
                    }
                    assert neg == closed_neg
                    pos = d3_spectrum(L, Fraction(1, n))
                    closed_pos = {
                        Fraction(pos_n(n, i, e, s) + 4, 4)
                        for e in (1, -1) for s in range(n - 1, -n, -2)
                    }
                    assert pos == closed_pos

    def test_solver_agrees_with_brute_force(self):
        for k in (3, 4, 5, 6):
            brute = brute_force_d3_matches(-k, n_max=8)
            solved = solve_d3_equation(-k, "pm_one_over_n", n_max=8)
            solved += solve_d3_equation(-k, "pm_one")
            assert (brute == []) == (solved == [])
            assert brute == []

    def test_matches_hand_derived_equations(self, monkeypatch):
        # with the rotation parity constraint lifted the +-1/n equations
        # have solutions; the solver, which reads DEFAULT_FORMS, lists the
        # same ones as the hand-derived coefficients, in the same order
        monkeypatch.setattr(cosmetic, "rot_range", lifted_rot_range)
        assert solve_d3_equation(-3, "pm_one_over_n")
        for k in range(3, 13):
            for family in ("pm_one", "pm_one_over_n"):
                assert (solve_d3_equation(-k, family, n_max=20)
                        == solve_d3_equation_by_hand(-k, family, lifted_rot_range(-k)))
        for k in range(4, 41):
            # the +-2 forms halve an integer that is even exactly at the
            # admissible parity, so the lifted range is refused, not rounded
            with pytest.raises(ValueError, match="inadmissible parity"):
                solve_d3_equation(-k, "pm_two")
            assert solve_d3_equation_by_hand(-k, "pm_two", lifted_rot_range(-k)) == []
            assert solve_d3_equation_by_hand(-k, "pm_two", rot_range(-k)) == []

    @pytest.mark.parametrize("name, family, tb, expected", [
        # half the difference of the sides is i^2 + 2i + 2 + shift/2 at
        # tb = -3, e1 = 1, e2 = -1, and the shift -4 gives the roots -2, 0
        ("one_pos_csq", "pm_one", -3,
         [(0, 1, 1), (-2, 1, -1), (0, 1, -1), (0, -1, 1), (2, -1, 1), (0, -1, -1)]),
        # at tb = -4, e1 = -1, e2 = 1 the difference is i^2 - 4i + 7 + shift
        ("two_pos_csq", "pm_two", -4,
         [(-3, 1, -1), (-1, 1, -1), (1, -1, 1), (3, -1, 1)]),
    ])
    def test_corrupted_form_meets_other_side(self, monkeypatch, name, family, tb, expected):
        # a positive-side c1^2 shifted by -4 meets the negative side at
        # admissible rotation numbers; the solver reports each (i, e1, e2)
        original = DEFAULT_FORMS[name]
        monkeypatch.setitem(DEFAULT_FORMS, name, lambda *args: original(*args) - 4)
        assert solve_d3_equation(tb, family) == [
            {"family": family, "i": i, "e1": e1, "e2": e2} for i, e1, e2 in expected]

    def test_d3_equality_checked_on_every_solution(self, monkeypatch):
        # the solver reads the +-1/n coefficients at (n, s) = (0, 0), (1, 0)
        # and (0, 1), assuming the difference of the sides affine; a
        # corruption that vanishes there but not at n = 2 keeps the
        # solutions found with the parity lifted, and each must then fail
        # the d3 equality at its own (n, s), also under -O
        monkeypatch.setattr(cosmetic, "rot_range", lifted_rot_range)
        assert any(sol["n"] == 2 for sol in solve_d3_equation(-3, "pm_one_over_n"))
        original = DEFAULT_FORMS["one_pos_csq"]
        monkeypatch.setitem(DEFAULT_FORMS, "one_pos_csq",
                            lambda k, n, i, e, s: original(k, n, i, e, s) + 4 * n * (n - 1))
        message = ("solver and closed forms disagree at tb=-3, {'family': 'pm_one_over_n', "
                   "'i': -1, 'e1': -1, 'e2': -1, 'j': 1, 's': 1, 'n': 2}: "
                   "d3 1/2 at -1/n against 5/2 at +1/n")
        with pytest.raises(RuntimeError) as caught:
            solve_d3_equation(-3, "pm_one_over_n")
        assert str(caught.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-200, 200),
           st.integers(1, 60))
    @example(0, 0, 0, 5)  # every s, n "all"
    @example(0, 3, -6, 3)  # s = 2 is out of range at n_max = 3
    @example(2, 0, -8, 10)  # n = 4 for every s of the right parity
    @example(-3, 6, 30, 60)  # gcd 3; n and s move together
    def test_line_by_extended_euclid_equals_the_walk(self, a_n, d_s, c_0, n_max):
        assert cosmetic._affine_solutions(a_n, d_s, c_0, n_max) == \
            affine_solutions_loop(a_n, d_s, c_0, n_max)

    def test_solver_equals_the_walk(self, monkeypatch):
        # every admissible rotation number has no solution, and with the
        # parity lifted there are some, in the walk's ascending order of s
        for tb in range(-30, -2):
            for n_max in (1, 2, 3, 5, 8, 13, 21, 34, 55, 60):
                assert solve_d3_equation(tb, "pm_one_over_n", n_max) == \
                    solve_one_over_n_loop(tb, n_max, rot_range(tb)) == []
        monkeypatch.setattr(cosmetic, "rot_range", lifted_rot_range)
        found = 0
        for tb in range(-12, -2):
            for n_max in (2, 7, 20, 60):
                solved = solve_d3_equation(tb, "pm_one_over_n", n_max)
                assert solved == solve_one_over_n_loop(tb, n_max, lifted_rot_range(tb))
                found += len(solved)
        assert found > 20

    def test_solver_at_a_huge_n_max(self):
        # one interval of t per line, not a walk over 2 * 10^12 values of s
        assert solve_d3_equations(-20, -3, 10**12) == solve_d3_equations(-20, -3, 20) == []

    def test_bad_family(self):
        with pytest.raises(ValueError):
            solve_d3_equation(-4, "pm_seven")
        with pytest.raises(ValueError):
            solve_d3_equation(-3, "pm_two")


class TestScan:
    def test_small_scan(self):
        report = scan(-3, -1, 3)
        assert report["not_obstructed"] == [{"tb": -1, "rot": 0, "v": "2"}]
        assert report["solver_solutions"] == []
        zero_cells = [c for c in report["cells"]
                      if c["verdict"]["outcome"] == "contact_zero"]
        assert {(c["tb"], c["pair"][0]) for c in zero_cells} == {(-1, "-1"), (-2, "-2")}

    def test_empty_range(self):
        report = scan(-1, -2, 3)
        assert report["cells"] == [] and report["not_obstructed"] == []

    def test_provenance_recomputes(self):
        report = scan(-2, -2, 2)
        cell = next(c for c in report["cells"] if c["pair"] == ["-1", "1"])
        assert cell["provenance"]["pos"][0]["framings"] == [-1, -4, -2]


class TestScanSharesMatrixWork:
    """One d3 cache per tb: scan_cells(-12, -1, 12) plans each (tb, slope)
    once and reads the other rotation numbers off the plan in integers,
    with one path-kernel pass, its signature included, per plan."""

    @pytest.fixture(scope="class")
    def counted(self):
        calls = {"adjugate": 0, "convert": 0, "linking_matrix": 0, "kernel": 0,
                 "presentation": 0, "component": 0}
        presentation, linking_matrix = invariants._presentation, invariants.linking_matrix

        def counting(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "adjugate_block",
                       counting("adjugate", linalg.adjugate_block))
            mp.setattr(linalg, "_path_kernel", counting("kernel", linalg._path_kernel))
            mp.setattr(invariants, "_presentation", counting("convert", presentation))
            mp.setattr(SurgeryPresentation, "__init__",
                       counting("presentation", SurgeryPresentation.__init__))
            mp.setattr(Component, "__init__", counting("component", Component.__init__))
            mp.setattr(invariants, "linking_matrix",
                       counting("linking_matrix", linking_matrix))
            cosmetic.scan_cells(-12, -1, 12)
        return calls

    def test_one_adjugate_pass_per_distinct_form(self, counted):
        # 308 plans, each with one (Q, support) since the support holds the
        # push-offs; a support per rotation number made 586 passes, and a
        # cache per call 2,312
        assert counted["adjugate"] <= 308

    def test_one_conversion_per_tb_and_slope(self, counted):
        # 308 distinct (tb, slope); converting per (tb, rot, slope) made 2,022
        assert counted["convert"] <= 308

    def test_one_presentation_per_conversion(self, counted):
        # a plan holds one presentation for the 689 it stands for; building
        # each of them made 689
        assert counted["presentation"] <= 308

    def test_one_form_per_planned_presentation(self, counted):
        # the presentations of a plan share Q, so one form serves the 689
        # presentations of the 308 plans; a form per presentation made 689,
        # and per (tb, rot, slope) 4,125
        assert counted["linking_matrix"] <= 308

    def test_one_elimination_pass_per_form(self, counted):
        # the adjugate pass gives sigma too; a separate signature pass per
        # new Q made 893
        assert counted["kernel"] <= 308

    def test_no_component_per_row(self, counted):
        # a presentation is built from the runs of its continued fraction
        # as integers, and the records read its framings off the form: no
        # row becomes a Component, where one per run of rows made 1,515
        assert counted["component"] == 0

    def test_one_reduction_per_numerator_per_plan(self, monkeypatch):
        # the +-rot mirror repeats numerators across a tb's rotation
        # numbers: 13,643 distinct per call, 6,962 per plan, and each
        # reduction is one gcd; the d3 strings are read off the reduced pairs
        calls = []
        gcd = invariants.gcd
        monkeypatch.setattr(invariants, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
        cosmetic.scan_cells(-12, -1, 12)
        assert len(calls) <= 6962

    def test_fewer_fractions_than_d3_values(self):
        # d3 values are read off the plans as integer pairs and strings; a
        # Fraction per value (and more for c1^2) made 42,120 for 15,939
        calls = [0]
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls[0] += 1
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Fraction, "__new__", staticmethod(counting))
            report = cosmetic.scan_cells(-12, -1, 12)
        values = sum(len(rec["values"]) for cell in report["cells"]
                     for side in cell.get("provenance", {}).values() for rec in side)
        assert values == 15939
        assert calls[0] < values


class TestScanDigest:
    # sha256 of json.dumps(scan(-12, -1, 12), sort_keys=True), computed by a
    # scan that converted every (tb, rot, slope) afresh, so no plan shaped it
    SCAN_SHA256 = "a9e1a78e110d35e5d1f3de502d824966d712f37aa4874c5917b0faadc730ce1a"

    def test_scan_json_is_unchanged(self):
        text = json.dumps(scan(-12, -1, 12), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SCAN_SHA256


class TestUnknotClassification:
    def test_unique_case(self):
        L = LegendrianData(-3, 0)
        res = unknot_classify(L, -1)  # smooth -4 < tb
        assert res.tightness == "tight"
        assert res.equivalence == "unique"

    def test_boundary_rotation_counts(self):
        # counts at a positive companion slope follow the block quotient:
        # one more than the number of edges of the free torus layer
        L = LegendrianData(-1, 0)
        res = unknot_classify(L, Fraction(5, 3))  # smooth 2/3
        assert res.tightness == "tight"
        assert res.equivalence == "infinite"
        assert res.count_at_slope == 3

    def test_overtwisted_interval(self):
        L = LegendrianData(-1, 0)
        res = unknot_classify(L, Fraction(1, 2))  # smooth -1/2 in (tb, 0)
        assert res.tightness == "overtwisted"
        assert res.equivalence == "infinite"
        assert res.count_at_slope is None

    def test_rotation_outside_boundary_overtwisted_regime(self):
        L = LegendrianData(-3, 0)
        res = unknot_classify(L, 5)  # smooth 2 > tb
        assert res.tightness == "overtwisted"
        assert res.equivalence == "infinite"

    def test_plus_minus_two_on_tb1(self):
        L = LegendrianData(-1, 0)
        neg = unknot_classify(L, -1)  # smooth -2
        pos = unknot_classify(L, 3)   # smooth +2
        assert neg.tightness == pos.tightness == "tight"
        assert neg.lens == pos.lens == (2, 1)
        assert neg.canonical == pos.canonical == -2
        assert pos.count_at_slope == 2

    def test_count_closed_form(self):
        # ceil(1/r) + 1 equivalent surgeries at a positive slope r, and a
        # unique preimage at the canonical negative slope
        L = LegendrianData(-1, 0)
        for r in (Fraction(5, 3), Fraction(2, 3), Fraction(2, 5), Fraction(3, 7)):
            cc = r + 1
            m = -((-r.denominator) // r.numerator)  # ceil(1/r)
            assert equivalent_surgery_count(-1, 0, cc) == m + 1
        assert equivalent_surgery_count(-1, 0, Fraction(-3, 2)) == 1  # smooth -5/2

    def test_count_matches_enumeration(self):
        # every boundary-rotation unknot with tb in -5..-1 and every tight
        # smooth slope of height <= 15, below tb and above 0
        checked = {"below": 0, "above": 0}
        for tb in range(-5, 0):
            for rot in sorted({tb + 1, -tb - 1}):
                for den in range(1, 16):
                    for num in range(-15, 16):
                        smooth = Fraction(num, den)
                        if math.gcd(num, den) != 1 or tb <= smooth <= 0:
                            continue
                        tight, fibers = equivalent_count_enumerated(tb, rot, smooth - tb)
                        (size,) = set(fibers.values())
                        assert tight == size * len(fibers)
                        assert equivalent_surgery_count(tb, rot, smooth - tb) == size
                        checked["below" if smooth < tb else "above"] += 1
        assert checked == {"below": 247, "above": 1287}

    def test_count_at_large_denominators(self):
        # k + 1 at smooth slope 1/k, k + 2 inside (1/(k+1), 1/k): the path
        # ends in one block of about k edges, which the count never walks
        for k in (10**3, 3 * 10**5, 10**12):
            assert equivalent_surgery_count(-1, 0, Fraction(1, k) + 1) == k + 1
            assert equivalent_surgery_count(-1, 0, Fraction(2, 2 * k + 1) + 1) == k + 2
        # a long complement path, tb = -10^6, at both boundary rotations:
        # as for tb = -2 (checked above by enumeration), the path 1/3, 1/2,
        # 1, inf folds away with 3 choices
        for rot in (10**6 - 1, 1 - 10**6):
            assert equivalent_surgery_count(-(10**6), rot, Fraction(1, 3) + 10**6) == 3

    def test_errors(self):
        with pytest.raises(ContactZeroError):
            unknot_classify(LegendrianData(-1, 0), 0)
        with pytest.raises(SlopeError):
            unknot_classify(LegendrianData(-1, 0), 1)  # smooth 0
        with pytest.raises(ValueError):
            unknot_classify(LegendrianData(-2, 3), 1)  # rot too large
