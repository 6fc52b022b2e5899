from fractions import Fraction

import pytest

from contactsurg.cosmetic import (
    EXCEPTIONAL_FLAGS,
    candidate_slopes,
    check_pair,
    d3_negative_one_over_n,
    d3_positive_one_over_n,
    equivalent_surgery_count,
    rot_range,
    scan,
    solve_d3_equation,
    unknot_classify,
)
from contactsurg.invariants import d3_spectrum
from contactsurg.slopes import Slope, SlopeError
from contactsurg.surgery import ContactZeroError, LegendrianData
from oracles import brute_force_d3_matches


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


class TestCheckPair:
    def test_tb1_half_obstructed(self):
        v = check_pair(LegendrianData(-1, 0), Fraction(1, 2))
        assert v.outcome == "obstructed"
        assert v.spectrum_neg == {Fraction(1)} and v.spectrum_pos == {Fraction(0)}

    def test_tb1_two_is_the_exception(self):
        v = check_pair(LegendrianData(-1, 0), Fraction(2))
        assert v.outcome == "not_obstructed"
        assert v.spectrum_neg == v.spectrum_pos == {Fraction(1, 4)}
        assert v.exception_flags == EXCEPTIONAL_FLAGS

    def test_contact_zero_cells_reported(self):
        assert check_pair(LegendrianData(-1, 0), 1).outcome == "contact_zero"
        assert check_pair(LegendrianData(-2, 1), 2).outcome == "contact_zero"

    def test_tb2_parity_split(self):
        # negative side odd, positive side even, for every n
        for rot in (1, -1):
            L = LegendrianData(-2, rot)
            for n in range(1, 51):
                v = check_pair(L, Fraction(1, n))
                assert v.outcome == "obstructed"
                assert all(x % 2 == 1 for x in v.spectrum_neg)
                assert all(x % 2 == 0 for x in v.spectrum_pos)
                if n >= 2:
                    assert v.spectrum_neg == {Fraction(1), Fraction(3 - 2 * n)}


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
            for n in (2, 3):
                for i in rot_range(-k):
                    L = LegendrianData(-k, i)
                    neg = d3_spectrum(L, Fraction(-1, n))
                    closed_neg = {
                        d3_negative_one_over_n(k, n, i, e, j)
                        for e in (1, -1) for j in (1, -1)
                    }
                    assert neg == closed_neg
                    pos = d3_spectrum(L, Fraction(1, n))
                    closed_pos = {
                        d3_positive_one_over_n(k, n, i, e, s)
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

    def test_d3_equality_checked_on_every_solution(self, monkeypatch):
        # with the rotation parity constraint lifted, the linear solver
        # finds solutions at tb = -3; each must satisfy the closed-form d3
        # equality, and a corrupted closed form must raise, also under -O
        import contactsurg.cosmetic as cosmetic
        from contactsurg.closedforms import DEFAULT_FORMS

        monkeypatch.setattr(cosmetic, "rot_range", lambda tb: list(range(tb + 1, -tb)))
        assert solve_d3_equation(-3, "pm_one_over_n")
        original = DEFAULT_FORMS["one_pos_csq"]
        monkeypatch.setitem(DEFAULT_FORMS, "one_pos_csq",
                            lambda k, n, i, e, s: original(k, n, i, e, s) + 4)
        with pytest.raises(RuntimeError, match="closed forms disagree"):
            solve_d3_equation(-3, "pm_one_over_n")

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
        assert neg.canonical == pos.canonical == Slope(-2, 1)
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

    def test_errors(self):
        with pytest.raises(ContactZeroError):
            unknot_classify(LegendrianData(-1, 0), 0)
        with pytest.raises(SlopeError):
            unknot_classify(LegendrianData(-1, 0), 1)  # smooth 0
        with pytest.raises(ValueError):
            unknot_classify(LegendrianData(-2, 3), 1)  # rot too large
