import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsurg.slopes import (
    INFINITY,
    Slope,
    SlopeError,
    canonical_slope,
    cs_set,
    lens_parameters,
    mod_inverse,
    neg_cf_runs,
    parse_slope,
    same_lens_space,
)
from oracles import (expand_runs, neg_cf_terms, neg_cf_value, normalize_lens_bruteforce,
                     rolfsen_twist)


def runs_expanded(r) -> list:
    """``neg_cf_runs`` at the rational r, expanded term by term."""
    r = Fraction(r)
    return expand_runs(neg_cf_runs(r.numerator, r.denominator))


class TestSlope:
    def test_normalization(self):
        assert Slope(3, 2) == Slope(-3, -2)
        assert Slope(6, 4) == Slope(3, 2)
        assert Slope(5, 0) == INFINITY
        assert Slope(0, -7) == Slope(0, 1)

    def test_parse_and_str(self):
        assert str(parse_slope("-3/4")) == "-3/4"
        assert parse_slope("inf") == INFINITY
        assert parse_slope("5") == Slope(5)
        assert str(INFINITY) == "inf"

    def test_zero_over_zero_rejected(self):
        with pytest.raises(SlopeError):
            Slope(0, 0)

    @pytest.mark.parametrize("text", ["1/2/3", "abc", "1/", "/2", "", "1.5",
                                      "1_0/3", "1/_3", "1/ 3"])
    def test_malformed_text_named(self, text):
        with pytest.raises(SlopeError, match=f"malformed slope {text!r}"):
            parse_slope(text)


class TestNegativeContinuedFractions:
    def test_single_term(self):
        assert runs_expanded(-2) == [-2]

    def test_examples(self):
        assert runs_expanded(Fraction(-7, 2)) == [-4, -2]
        assert neg_cf_value([-4, -2]) == Fraction(-7, 2)
        assert neg_cf_value([-2]) == -2
        # F(34)/F(32) is [-3] x 16: equal terms other than -2 stay apart
        assert neg_cf_runs(-5702887, 2178309) == [(-3, 1)] * 16

    def test_all_twos_chain(self):
        # -(m+1)/m expands to m copies of -2; induction on the chain
        for m in range(1, 12):
            assert runs_expanded(Fraction(-(m + 1), m)) == [-2] * m
        # one entry for 10^15 terms, which a term-at-a-time loop cannot reach
        assert neg_cf_runs(-(10 ** 15 + 1), 10 ** 15) == [(-2, 10 ** 15)]

    def test_round_trip_identity(self):
        cf = [-3, -2, -2]
        assert runs_expanded(neg_cf_value(cf)) == cf

    def test_domain_errors(self):
        with pytest.raises(SlopeError):
            runs_expanded(Fraction(-1))
        with pytest.raises(SlopeError):
            runs_expanded(Fraction(1, 2))
        with pytest.raises(SlopeError):
            neg_cf_value([])
        with pytest.raises(SlopeError):
            neg_cf_value([-2, -1])
        for q in (0, -3):
            with pytest.raises(SlopeError, match=f"positive denominator, got -7/{q}$"):
                neg_cf_runs(-7, q)

    @given(num=st.integers(1, 10 ** 4), den=st.integers(1, 10 ** 4))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, num, den):
        r = Fraction(-num, den) - 1  # any rational < -1
        assert neg_cf_value(runs_expanded(r)) == r
        assert all(c <= -2 for c in runs_expanded(r))

    @given(num=st.integers(1, 10 ** 9), den=st.integers(1, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_large_denominators(self, num, den):
        # the run-length Euclid against the term-at-a-time oracle and the
        # Fraction evaluation
        r = Fraction(-num, den) - 1
        runs = neg_cf_runs(r.numerator, r.denominator)
        cf = expand_runs(runs)
        assert cf == neg_cf_terms(r)
        assert neg_cf_value(cf) == r
        assert all(isinstance(c, int) and c <= -2 for c in cf)
        # only -2 terms share an entry, and a -2 run is never split in two
        assert all(m >= 1 and c <= -2 for c, m in runs)
        assert all(c == -2 for c, m in runs if m > 1)
        assert all((a, b) != (-2, -2) for (a, _), (b, _) in zip(runs, runs[1:]))

    def test_domain_error_text(self):
        for r, shown in ((Fraction(-1), "-1"), (Fraction(1, 2), "1/2"), (0, "0")):
            with pytest.raises(SlopeError, match=f"requires r < -1, got {shown}$"):
                runs_expanded(r)


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(2, 7) == 4
        assert mod_inverse(1, 11) == 1
        assert mod_inverse(2, 4) is None
        # everything is congruent mod 1, so the inverse there is 0
        assert all(mod_inverse(q, 1) == 0 for q in range(-5, 6))

    @given(q=st.integers(-50, 50), p=st.integers(2, 200))
    @settings(max_examples=200, deadline=None)
    def test_exists_iff_coprime_and_involution(self, q, p):
        inv = mod_inverse(q, p)
        if math.gcd(q, p) != 1:
            assert inv is None
        else:
            assert 1 <= inv <= p - 1
            assert (q * inv) % p == 1
            assert mod_inverse(inv, p) == q % p


class TestRolfsenTwist:
    def test_examples(self):
        assert rolfsen_twist(Slope(-3, 1), 1) == Slope(-3, 4)
        assert rolfsen_twist(Slope(-3, 1), -1) == Slope(3, 2)
        assert rolfsen_twist(Slope(5, 7), 0) == Slope(5, 7)

    def test_infinity_result(self):
        assert rolfsen_twist(Slope(1, 4), -4) == INFINITY
        assert rolfsen_twist(Slope(-1, 1), -1) == INFINITY

    def test_domain_errors(self):
        with pytest.raises(SlopeError):
            rolfsen_twist(Slope(0, 1), 1)
        with pytest.raises(SlopeError):
            rolfsen_twist(INFINITY, 1)


class TestCanonicalSlope:
    def test_examples(self):
        assert canonical_slope(Slope(3, 2)) == Slope(-3, 1)
        assert canonical_slope(Slope(-5, 3)) == Slope(-5, 3)
        assert canonical_slope(Slope(-3, 4)) == Slope(-3, 1)

    def test_value_is_at_most_minus_one(self):
        for num in range(-12, 13):
            for den in range(1, 9):
                if num == 0 or math.gcd(abs(num), den) != 1:
                    continue
                c = canonical_slope(Slope(num, den))
                assert c.as_fraction() <= -1

    @given(num=st.integers(-60, 60).filter(bool), den=st.integers(1, 40),
           n=st.integers(-5, 5))
    @settings(max_examples=300, deadline=None)
    def test_orbit_invariance(self, num, den, n):
        r = Slope(num, den)
        twisted = rolfsen_twist(r, n)
        if twisted.is_infinite:
            return
        assert canonical_slope(twisted) == canonical_slope(r)


class TestCosmeticSlopeSet:
    def test_example_3_1(self):
        got = {str(s) for s in cs_set(3, 1, 10)}
        assert got == {"-3", "-3/4", "-3/7", "-3/10", "3/2", "3/5", "3/8"}

    def test_example_2_1(self):
        got = {str(s) for s in cs_set(2, 1, 5)}
        assert got == {"-2", "-2/3", "-2/5", "2", "2/3", "2/5"}

    def test_sorted_and_bounded(self):
        members = cs_set(7, 2, 30)
        values = [s.as_fraction() for s in members]
        assert values == sorted(values)
        assert all(abs(s.den) <= 30 for s in members)

    def test_members_canonicalize_into_the_two_branches(self):
        qbar = mod_inverse(2, 7)
        for s in cs_set(7, 2, 40):
            assert canonical_slope(s) in (Slope(-7, 2), Slope(-7, qbar))

    def test_non_canonical_rejected(self):
        with pytest.raises(SlopeError):
            cs_set(3, 4, 10)
        with pytest.raises(SlopeError):
            cs_set(4, 2, 10)

    def test_lens_class_closure(self):
        # every member describes the same lens space, via the independent
        # brute-force normalizer as well as same_lens_space
        for p in range(2, 15):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                base = lens_parameters(Slope(-p, q))
                for s in cs_set(p, q, 3 * p):
                    lp = lens_parameters(s)
                    assert same_lens_space(lp, base)
                    assert normalize_lens_bruteforce(*lp) == normalize_lens_bruteforce(*base)


class TestLensSpaces:
    def test_examples(self):
        assert same_lens_space((7, 2), (7, 4))
        assert not same_lens_space((7, 2), (7, 3))
        assert same_lens_space((5, 3), (5, 3))

    def test_brute_force_agreement(self):
        for p in range(1, 30):
            for q in range(1, p + 1):
                if math.gcd(p, q) != 1:
                    continue
                for q2 in range(1, p + 1):
                    if math.gcd(p, q2) != 1:
                        continue
                    brute = normalize_lens_bruteforce(p, q) == normalize_lens_bruteforce(p, q2)
                    assert same_lens_space((p, q), (p, q2)) == brute
