import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurg import invariants, linalg
from contactsurg.invariants import (
    NonTorsionEulerClassError,
    PipelineCheckError,
    d3_records,
    d3_spectrum,
    ratio_text,
)
from contactsurg.linalg import dense
from contactsurg.slopes import SlopeError
from contactsurg.surgery import (
    ContactZeroError,
    IntersectionForm,
    LegendrianData,
    _presentation,
    linking_matrix,
    rot_range,
)
from oracles import (D3Result, Form, adjugate_quadratic, d3_spectrum_detail_by_vector, d3_values,
                     determinant, enumerate_rotations, listed_convert, listed_linking_matrix,
                     read, sparse)


def form(q, l):
    """Q = q of any shape with l, for the per-vector oracle."""
    return Form(sparse(q), l)


def d3(q, l, r):
    """The D3Result of one rotation vector, through the per-vector oracle."""
    return d3_values(form(q, l), [r])[0]


class TestEulerChar:
    def test_values(self):
        assert d3([[0, -1], [-1, 0]], 2, (0, 0)).chi == 3
        assert d3([], 0, ()).chi == 1  # no surgeries: the ball


class TestCSquared:
    def test_zero_vector(self):
        assert d3([[0, -1], [-1, 0]], 2, (0, 0)).c_squared == 0

    def test_single_negative_generator(self):
        assert d3([[-2]], 1, (2,)).c_squared == Fraction(-2)
        assert d3([[-2]], 1, (0,)).c_squared == 0

    def test_singular_is_an_error(self):
        with pytest.raises(NonTorsionEulerClassError):
            d3([[1, 1], [1, 1]], 0, (1, 0))


class TestD3:
    def test_half_surgeries(self):
        res = d3([[0, -1], [-1, 0]], 2, (0, 0))
        assert (res.chi, res.sigma, res.c_squared, res.l) == (3, 0, 0, 2)
        assert res.d3 == 1
        res = d3([[0, -1], [-1, -4]], 1, (0, 2))
        assert res.d3 == 0

    def test_identity_between_fields(self):
        res = d3([[-2]], 1, (2,))
        assert 4 * (res.d3 - res.l) + 3 * res.sigma + 2 * (res.chi - 1) == res.c_squared

    def test_vector_length_must_match(self):
        for r in ((2,), (0, 0, 2)):
            with pytest.raises(ValueError, match="length must match"):
                d3([[-2, 0], [0, -2]], 0, r)

    def test_inconsistent_result_rejected(self):
        with pytest.raises(ValueError):
            D3Result(chi=3, sigma=0, c_squared=Fraction(0), l=2, d3=Fraction(7))

    def test_permutation_invariance(self):
        q = [[0, -1, 0], [-1, -3, -1], [0, -1, -2]]
        r = (0, 1, 0)
        base = d3(q, 1, r).d3
        perm = [2, 0, 1]
        q2 = [[q[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        r2 = tuple(r[p] for p in perm)
        assert d3(q2, 1, r2).d3 == base

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
    def test_ratio_text_is_the_fraction_string(self, num, den):
        assert ratio_text(num, den) == str(Fraction(num, den))

    def test_json_is_exact(self):
        res = d3([[-2]], 1, (2,))
        data = res.to_json()
        assert data["d3"] == "3/4"
        assert data["c_squared"] == "-2"


class TestSpectra:
    def test_worked_values(self):
        L1 = LegendrianData(-1, 0)
        assert d3_spectrum(L1, Fraction(-1, 2)) == {Fraction(1)}
        assert d3_spectrum(L1, Fraction(1, 2)) == {Fraction(0)}
        assert d3_spectrum(L1, -2) == {Fraction(1, 4)}
        assert d3_spectrum(L1, 2) == {Fraction(1, 4)}
        L2 = LegendrianData(-2, -1)
        assert d3_spectrum(L2, -1) == {Fraction(1)}
        assert d3_spectrum(L2, 1) == {Fraction(0), Fraction(2)}
        L3 = LegendrianData(-3, 2)
        assert d3_spectrum(L3, -2) == {Fraction(3, 4)}
        assert d3_spectrum(L3, 2) == {Fraction(1, 4), Fraction(17, 4)}

    def test_zero_slope_rejected(self):
        with pytest.raises(NonTorsionEulerClassError):
            d3_spectrum(LegendrianData(-1, 0), 0)

    @pytest.mark.parametrize("n", [5, 40, 400])
    def test_push_off_clique_closed_form(self, n):
        # contact 1/N on (tb, rot) = (-1, 0) is N push-offs of framing 0
        # linked by -1: Q = I - J, of eigenvalues 1 - N and 1 (N - 1
        # times), so det = 1 - N and sigma = N - 2; every c1 is 0, and
        # d3 = (-3 sigma - 2 N + 4 l) / 4 = (6 - N) / 4
        plan, _, nums, pairs = d3_records(LegendrianData(-1, 0), Fraction(1, n) - 1)
        assert dense(plan.form.rows) == [[int(i == j) - 1 for j in range(n)] for i in range(n)]
        assert (plan.det, plan.sigma) == (1 - n, n - 2)
        assert set(nums) == set(pairs) and [Fraction(*ab) for ab in pairs.values()] == \
            [Fraction(6 - n, 4)]

    def test_csq_denominator_divides_det(self):
        cases = [(-3, 2, Fraction(2)), (-4, 1, Fraction(-1, 3)),
                 (-2, 1, Fraction(1, 5)), (-1, 0, Fraction(-1, 4))]
        for tb, rot, slope in cases:
            for pres in listed_convert(LegendrianData(tb, rot), slope - tb):
                f = listed_linking_matrix(pres)
                det = abs(determinant(f.rows))
                for res in d3_values(f, enumerate_rotations(pres)):
                    assert det % res.c_squared.denominator == 0


def outcome(L, slope, plans=None):
    """Per presentation of one d3_records request, its form and the
    (rotations, c1^2, d3) of each rotation vector, cut from the plan's one
    record; or the type and text of the domain error it raised."""
    try:
        plan, d, nums, pairs = d3_records(L, slope, plans)
    except ValueError as err:
        return type(err), str(err)
    values = [(r, Fraction(num, plan.det), Fraction(*pairs[num]))
              for r, num in zip(plan.rotations(d), nums)]
    return [(plan.form, run) for run in plan.runs(values)]


def oracle_outcome(L, slope):
    """``outcome`` through the per-vector oracle on a fresh conversion."""
    try:
        records = d3_spectrum_detail_by_vector(L, slope)
    except ValueError as err:
        return type(err), str(err)
    return [(rec["form"], [(tuple(v["rotations"]), v["d3"].c_squared, v["d3"].d3)
                           for v in rec["values"]])
            for rec in records]


class TestPlans:
    """A plan dict shared by d3_records requests in any order of
    (rot, slope) gives what unshared requests give, and what the
    per-vector oracle gives on a fresh conversion at each rotation
    number; a request that raises keeps no plan."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(-7, -1), st.data())
    def test_shared_cache_matches_uncached_requests(self, tb, data):
        fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
        # the contact-zero slope tb and the singular slope 0 raise
        pool = data.draw(st.lists(st.one_of(st.just(Fraction(tb)), st.just(Fraction(0)),
                                            fractions), min_size=1, max_size=4))
        requests = data.draw(st.lists(
            st.tuples(st.sampled_from(rot_range(tb)), st.sampled_from(pool)),
            min_size=1, max_size=12))
        plans = {}
        for rot, slope in requests:
            L = LegendrianData(tb, rot)
            before = dict(plans)
            got = outcome(L, slope, plans)
            assert got == outcome(L, slope)
            assert got == oracle_outcome(L, slope)
            if isinstance(got, tuple):
                assert plans == before
            else:
                assert (tb, slope.numerator, slope.denominator) in plans

    @pytest.mark.parametrize("tb", range(-7, 0))
    def test_failing_slopes_raise_alike_at_every_rot(self, tb):
        plans = {}
        for rot in rot_range(tb):
            d3_records(LegendrianData(tb, rot), Fraction(-1, 2), plans)
        before = dict(plans)
        for slope, error in ((tb, ContactZeroError), (0, NonTorsionEulerClassError)):
            texts = set()
            for rot in rot_range(tb):
                with pytest.raises(error) as info:
                    d3_records(LegendrianData(tb, rot), slope, plans)
                texts.add(str(info.value))
                assert plans == before
            assert len(texts) == 1


def walk_cases():
    """A symmetric block B, a 0/1 vector u and 1-5 distinct values per
    coordinate, zeros and single-value coordinates included."""
    def build(k):
        return st.tuples(
            st.lists(st.lists(st.integers(-20, 20), min_size=k, max_size=k),
                     min_size=k, max_size=k),
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
            st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True),
                     min_size=k, max_size=k))

    def shape(args):
        m, u, choices = args
        k = len(m)
        return [[m[max(a, b)][min(a, b)] for b in range(k)] for a in range(k)], u, choices

    return st.integers(1, 6).flatmap(build).map(shape)


class TestWalk:
    """The plan's odometer against v^T B v entry by entry and u^T B v, at
    every vector of ``product`` in its order."""

    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    @example(([[2, -1, 0, 1], [-1, 3, 1, 0], [0, 1, -2, 4], [1, 0, 4, 5]], [1, 0, 1, 0],
              [[1, -1], [0, 2, -2], [3, 1, -1, -3], [1, -1]]))  # carries through every digit
    @example(([[-3, 1], [1, 4]], [1, 1], [[5], [0]]))  # single-value coordinates only
    @example(([[0, 7, 1], [7, -1, 2], [1, 2, 3]], [0, 1, 0], [[0, 1], [4], [0, -2, 2]]))
    def test_matches_the_oracle(self, case):
        block, u, choices = case
        bu = [sum(x * y for x, y in zip(row, u)) for row in block]
        vectors = list(product(*choices))
        quad, cross = invariants._walk(block, bu, choices)
        assert quad == [adjugate_quadratic(block, range(len(block)), v) for v in vectors]
        assert cross == [sum(x * y for x, y in zip(u, (sum(b * z for b, z in zip(row, v))
                                                       for row in block))) for v in vectors]


def slope_grid():
    """Knots with tb -12..2 and smooth slopes p/q, 0 < |p| <= 25, q <= 11."""
    for tb in range(-12, 3):
        for p in range(-25, 26):
            for q in range(1, 12):
                if p and math.gcd(p, q) == 1:
                    yield LegendrianData(tb, (tb + 1) % 2), Fraction(p, q)


def grid_outcomes():
    """Presentations planned over the grid, and the requests that raised,
    by error type."""
    counts = {"presentations": 0}
    for L, slope in slope_grid():
        try:
            counts["presentations"] += d3_records(L, slope)[0].count
        except (ValueError, PipelineCheckError) as err:
            counts[type(err)] = counts.get(type(err), 0) + 1
    return counts


def mutant(change):
    """linking_matrix with ``change(rows, components)`` applied to Q."""
    def build(pres):
        form = linking_matrix(pres)
        rows = dense(form.rows)
        change(rows, pres.components)
        return IntersectionForm(read(sparse(rows)), form.l)
    return build


def chain_framing_up(rows, comps):
    i = next((i for i, c in enumerate(comps) if c.role == "chain"), None)
    if i is not None:
        rows[i][i] += 1


def pushoff_link_up(rows, comps):
    pushoffs = [i for i, c in enumerate(comps) if c.role == "pushoff"]
    for i in pushoffs:
        for j in pushoffs:
            rows[i][j] += i != j


def converted(change):
    """``_presentation`` with ``change`` applied to its shape: the form,
    the pinned rows and the rotation choices follow it."""
    def build(L, p, q):
        return change(_presentation(L, p, q))
    return build


def one_pushoff_more(pres):
    # the first row again, a push-off linked to the others by tb
    a, b, _, _ = pres.path
    p, tb = pres.pinned.count(1) + 1, pres.base_tb
    path = linalg._Path(a[:1] + a, [tb] + b, *((p, tb) if p >= 3 and tb else (0, 0)))
    return replace(pres, path=path, choices=pres.choices[:1] + pres.choices,
                   pinned=(1,) + pres.pinned, l=pres.l + (pres.l > 0))


def chain_dropped(pres):
    # the last chain row left out
    if pres.pinned[-1]:
        return pres
    a, b, h, c = pres.path
    return replace(pres, path=linalg._Path(a[:-1], b[:-1], h, c), choices=pres.choices[:-1],
                   pinned=pres.pinned[:-1])


class TestFormMatchesSlope:
    """Each plan checks |det Q| = |p| and that the meridian's linking
    form U / det is q / p mod 1."""

    def test_holds_on_the_grid(self):
        assert grid_outcomes() == {"presentations": 14626, SlopeError: 415,
                                   ContactZeroError: 14}

    @pytest.mark.parametrize("change", [chain_framing_up, pushoff_link_up])
    def test_mutant_forms_are_caught(self, monkeypatch, change):
        monkeypatch.setattr(invariants, "linking_matrix", mutant(change))
        assert grid_outcomes().get(PipelineCheckError, 0) > 1000
        with pytest.raises(PipelineCheckError, match="disagree with the slope"):
            d3_spectrum(LegendrianData(-3, 0), 2)

    @pytest.mark.parametrize("change", [one_pushoff_more, chain_dropped])
    def test_mutant_conversions_are_caught(self, monkeypatch, change):
        monkeypatch.setattr(invariants, "_presentation", converted(change))
        assert grid_outcomes().get(PipelineCheckError, 0) > 1000
        with pytest.raises(PipelineCheckError, match="disagree with the slope"):
            d3_spectrum(LegendrianData(-3, 0), 2)
