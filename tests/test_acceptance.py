"""Acceptance suite: the end-to-end criteria, one test per criterion.

Every expectation is exact (integers and fractions); there are no
tolerances anywhere.  Each test prints a single PASS line with its
runtime; a failure shows up as an ordinary pytest assertion.
"""

import math
import random
import time
from fractions import Fraction

from contactsurg.cosmetic import (
    EXCEPTIONAL_FLAGS,
    equivalent_surgery_count,
    scan,
    solve_d3_equation,
    unknot_classify,
)
from contactsurg.invariants import d3_spectrum
from contactsurg.regressions import verify
from contactsurg.slopes import (
    canonical_slope,
    cs_set,
    lens_parameters,
)
from contactsurg.surgery import LegendrianData, rot_range
from contactsurg.linalg import _descartes
from oracles import (
    char_poly,
    determinant,
    eliminate,
    equivalent_count_enumerated,
    path_kernel,
    same_lens_space,
    sparse,
    tb2_negative_matrix,
    tb2_positive_matrix,
    tbk_two_matrix,
)


def _report(number, description, t0):
    line = f"ACCEPTANCE {number}: PASS  {description}  ({time.time() - t0:.2f}s)"
    print(line)
    from conftest import record_acceptance

    record_acceptance(line)


def test_criterion_1_d3_regression_tb_minus_one():
    t0 = time.time()
    L = LegendrianData(-1, 0)
    assert d3_spectrum(L, Fraction(-1, 2)) == {Fraction(1)}
    assert d3_spectrum(L, Fraction(1, 2)) == {Fraction(0)}
    for n in range(3, 51):
        assert d3_spectrum(L, Fraction(-1, n)) == {Fraction(1)}
        assert d3_spectrum(L, Fraction(1, n)) == {Fraction(0)}
    assert d3_spectrum(L, Fraction(-2)) == {Fraction(1, 4)}
    assert d3_spectrum(L, Fraction(2)) == {Fraction(1, 4)}
    _report(1, "tb=-1 d3 regression (-1/2, +1/2, +-1/n for n<=50, +-2)", t0)


def test_criterion_2_d3_regression_tb_minus_two():
    t0 = time.time()
    for rot in (1, -1):
        L = LegendrianData(-2, rot)
        assert d3_spectrum(L, Fraction(-1)) == {Fraction(1)}
        assert d3_spectrum(L, Fraction(1)) == {Fraction(0), Fraction(2)}
        for n in range(1, 51):
            neg = d3_spectrum(L, Fraction(-1, n))
            pos = d3_spectrum(L, Fraction(1, n))
            assert neg == {Fraction(1), Fraction(3 - 2 * n)}
            assert all(v.denominator == 1 and v.numerator % 2 == 0 for v in pos)
            assert neg.isdisjoint(pos)
    _report(2, "tb=-2 d3 regression and parity disjointness for n<=50", t0)


def test_criterion_3_d3_regression_tb_minus_three():
    t0 = time.time()
    union_neg, union_pos = set(), set()
    for rot in rot_range(-3):
        L = LegendrianData(-3, rot)
        neg = d3_spectrum(L, Fraction(-2))
        pos = d3_spectrum(L, Fraction(2))
        assert neg.isdisjoint(pos)
        union_neg |= neg
        union_pos |= pos
    assert union_neg == {Fraction(3, 4), Fraction(5, 4)}
    assert union_pos == {Fraction(1, 4), Fraction(7, 4), Fraction(17, 4)}
    _report(3, "tb=-3 d3 regression: -2 -> {3/4,5/4}, +2 -> {1/4,7/4,17/4}", t0)


def test_criterion_4_closed_form_sweep():
    t0 = time.time()
    report = verify(k_max=20, n_max=20)["closed forms"]
    assert report["mismatches"] == []
    assert report["checks"] > 100000
    _report(4, f"closed-form sweep k<=20, n<=20: {report['checks']} checks, "
               "zero mismatches", t0)


def test_criterion_5_signature_cross_validation():
    t0 = time.time()
    rng = random.Random(20260809)
    count = 0
    while count < 1000:
        n = rng.randint(1, 8)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-9, 9)
        if determinant(sparse(m)) == 0:
            continue
        count += 1
        assert eliminate(sparse(m))[1] == _descartes(char_poly(sparse(m)))
    displayed = [
        [[0, -1], [-1, 0]],
        [[0, -1], [-1, -4]],
        [[-1]],
        tb2_positive_matrix(1),
        tb2_negative_matrix(4),
        [[-2]],
        tbk_two_matrix(3, 1),
        tbk_two_matrix(5, -1),
        tbk_two_matrix(5, 1),
    ]
    for m in displayed:
        assert path_kernel(sparse(m))[1] == eliminate(sparse(m))[1] == \
            _descartes(char_poly(sparse(m)))
    _report(5, "signature methods agree on 1000 seeded matrices and the "
               "displayed forms", t0)


def test_criterion_6_integer_solution_searches():
    t0 = time.time()
    for k in range(3, 21):
        assert solve_d3_equation(-k, "pm_one") == []
        assert solve_d3_equation(-k, "pm_one_over_n", n_max=20) == []
        if k >= 4:
            assert solve_d3_equation(-k, "pm_two") == []
    _report(6, "d3-equality searches empty for 3<=k<=20, n<=20, -n<s<n "
               "(+-2 for k>=4)", t0)


def test_criterion_7_obstruction_scan():
    t0 = time.time()
    report = scan(-10, -1, 10)
    assert report["not_obstructed"] == [{"tb": -1, "rot": 0, "v": "2"}]
    assert report["solver_solutions"] == []
    exceptional = [c for c in report["cells"]
                   if c["verdict"]["outcome"] == "not_obstructed"]
    assert len(exceptional) == 1
    assert exceptional[0]["verdict"]["exception_flags"] == list(EXCEPTIONAL_FLAGS)
    _report(7, "tb in [-10,-1]: only (tb=-1, +-2) unobstructed, flagged with "
               "the exceptional-knot predicates", t0)


def _oracle_equivalent_count(tb, rot, contact_coeff):
    """The fiber size, common to every tight structure, of the
    enumeration oracle: each representative decoration of the surgery
    path glued to the complement and shortened."""
    (size,) = set(equivalent_count_enumerated(tb, rot, contact_coeff)[1].values())
    return size


def test_criterion_8_unknot_equivalence_counts():
    # The sources state the count k+1 on the slope interval
    # (1/(k+1), 1/k); their own worked computation gives one more than
    # the number of edges in the free torus layer, which is k+1 exactly
    # at the right endpoint 1/k and k+2 inside the open interval (see
    # the figure-backed count 2 at slope 5/3).  The oracle settles it.
    t0 = time.time()
    L1 = LegendrianData(-1, 0)
    for k in range(1, 6):
        # right endpoint 1/k: the only slope-set members of the form 1/k
        # (canonical class of -1); exactly k+1 equivalent surgeries
        r = Fraction(1, k)
        assert canonical_slope(r) == -1
        res = unknot_classify(L1, r + 1)
        assert res.tightness == "tight"
        assert res.count_at_slope == k + 1
        assert _oracle_equivalent_count(-1, 0, r + 1) == k + 1
        # inside the open interval: ceil(1/r) + 1 = k + 2, oracle-matched
        r_open = Fraction(2, 2 * k + 1)
        assert Fraction(1, k + 1) < r_open < Fraction(1, k)
        res = unknot_classify(L1, r_open + 1)
        assert res.count_at_slope == k + 2
        assert _oracle_equivalent_count(-1, 0, r_open + 1) == k + 2
        ceil_inv = -((-r_open.denominator) // r_open.numerator)
        assert res.count_at_slope == ceil_inv + 1
    # the |rot| < |tb+1|, slope < tb case is unique
    res = unknot_classify(LegendrianData(-3, 0), -1)  # smooth -4 < tb
    assert res.equivalence == "unique" and res.tightness == "tight"
    res = unknot_classify(LegendrianData(-4, 1), Fraction(-1, 2))  # smooth -9/2
    assert res.equivalence == "unique"
    _report(8, "unknot boundary-rotation counts match the block-quotient "
               "oracle (k+1 at slope 1/k, k<=5); deep negative case unique", t0)


def test_criterion_9_cs_set_lens_consistency():
    t0 = time.time()
    checked = 0
    for p in range(1, 41):
        for q in range(1, p + 1):
            if math.gcd(p, q) != 1:
                continue
            if q == p and p != 1:
                continue
            base = lens_parameters(Fraction(-p, q))
            for s in cs_set(p, q, 2 * p + 5):
                lp = lens_parameters(s)
                assert same_lens_space(lp, base)
                checked += 1
    assert checked > 2000
    _report(9, f"cosmetic slope sets: {checked} members lens-consistent for p<=40", t0)
