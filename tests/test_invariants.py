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
from contactsurg.surgery import ContactZeroError, LegendrianData, _presentation, rot_range
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
        assert dense(plan.presentation.path) == [[int(i == j) - 1 for j in range(n)]
                                                 for i in range(n)]
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
    pres = plan.presentation
    shape = tuple(sparse(dense(pres.path))), pres.l  # equal to the oracle's Form
    return [(shape, run) for run in plan.runs(values)]


def oracle_outcome(L, slope):
    """``outcome`` through the per-vector oracle on a fresh conversion."""
    try:
        records = d3_spectrum_detail_by_vector(L, slope)
    except ValueError as err:
        return type(err), str(err)
    return [(rec["form"], [(tuple(v["rotations"]), v["d3"].c_squared, v["d3"].d3)
                           for v in rec["values"]])
            for rec in records]


class TestRotationReversal:
    def test_spectrum_at_rot_equals_it_at_minus_rot(self):
        # reversing the knot's orientation negates rot; its d3 spectra do
        # not change on 2,415 cases, and where one side raises, so does
        # the other (contact-zero slopes and slope 0)
        slopes = [Fraction(p, q) for q in range(1, 7) for p in range(-15, 16)
                  if math.gcd(p, q) == 1]
        cases = 0
        for tb, slope in product(range(-6, 0), slopes):
            for rot in rot_range(tb):
                try:
                    spectrum = d3_spectrum(LegendrianData(tb, rot), slope)
                except (ContactZeroError, NonTorsionEulerClassError) as exc:
                    with pytest.raises(type(exc)):
                        d3_spectrum(LegendrianData(tb, -rot), slope)
                    continue
                assert d3_spectrum(LegendrianData(tb, -rot), slope) == spectrum
                cases += 1
        assert cases == 2415


def with_split_pair(tb_u, rot_u):
    """``_presentation`` with a split pair on an unknot U of (tb_u, rot_u)
    appended: a contact (+1) copy of U and a (-1) push-off of it, framings
    tb_u + 1 and tb_u - 1, linked with tb_u and by a zero link to the
    rest, so the form stays a path; both rows at rot_u, pinned 0, and l
    one more."""
    def build(L, p, q):
        pres = _presentation(L, p, q)
        a, b, h, c = pres.path
        path = linalg._Path(a + [tb_u + 1, tb_u - 1], b + [0, tb_u], h, c)
        return replace(pres, path=path, choices=pres.choices + [(rot_u,)] * 2,
                       pinned=pres.pinned + (0, 0), l=pres.l + 1)
    return build


def oracle_spectrum(L, slope, pair=None):
    """The d3 spectrum of every listed presentation through ``d3_values``,
    with the split pair ``pair`` = (tb_u, rot_u) added to each form and
    vector if one is given; or the type of the domain error the
    conversion or the form raised."""
    try:
        spectrum = set()
        for pres in listed_convert(L, slope - L.tb):
            rows, l = dense(read(listed_linking_matrix(pres).rows)), pres.l
            vectors = enumerate_rotations(pres)
            if pair:
                tb_u, rot_u = pair
                rows = [row + [0, 0] for row in rows]
                rows += [[0] * len(rows) + [tb_u + 1, tb_u], [0] * len(rows) + [tb_u, tb_u - 1]]
                l, vectors = l + 1, [v + (rot_u, rot_u) for v in vectors]
            spectrum |= {res.d3 for res in d3_values(form(rows, l), vectors)}
        return spectrum
    except (SlopeError, NonTorsionEulerClassError) as err:
        return type(err)


class TestSplitPairCancellation:
    """A contact (+1)-surgery on an unknot U and a (-1)-surgery on its
    push-off cancel (Ding and Geiges 2004), so a split pair added to a
    presentation leaves the contact structure, and its d3, as they were:
    the pair adds 2 to n and 1 to l and leaves sigma and c1^2 alone."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-8, -1), st.integers(-4, -1), st.data())
    @example(-1, -1, None)  # a chain of -2 framings, then the pair's 0 and -2
    def test_split_pair_leaves_the_spectrum(self, tb, tb_u, data):
        if data is None:
            rot, rot_u, slope = 0, 0, Fraction(-1, 3)
        else:
            rot = data.draw(st.sampled_from(rot_range(tb)))
            rot_u = data.draw(st.sampled_from(rot_range(tb_u)))
            slope = data.draw(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)))
        L = LegendrianData(tb, rot)
        want = oracle_spectrum(L, slope)
        assert oracle_spectrum(L, slope, (tb_u, rot_u)) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "_presentation", with_split_pair(tb_u, rot_u))
            try:
                got = d3_spectrum(L, slope)
            except (SlopeError, NonTorsionEulerClassError) as err:
                got = type(err)
        assert got == want


def with_cancelling_head(k):
    """``_presentation`` of contact 1/(k-1)-surgery, k - 1 push-offs of
    framing tb + 1, with one (+1) and one (-1) push-off more: k rows of
    framing tb + 1, then one of tb - 1, all linked with tb (a clique head
    for tb != 0), all pinned at the knot's rot, and l = k."""
    def build(L, p, q):
        pres = _presentation(L, p, q)
        n = k + 1
        path = linalg._Path([L.tb + 1] * k + [L.tb - 1], [L.tb] * k,
                            *((n, L.tb) if L.tb else (0, 0)))
        return replace(pres, path=path, choices=[(L.rot,)] * n, pinned=(1,) * n, l=k)
    return build


class TestCancellingHead:
    """The head case of the cancellation lemma (Ding and Geiges 2004): a
    contact (+1)-surgery and a (-1)-surgery on push-offs of L cancel, so
    k (+1) push-offs and one (-1) push-off, all linked with tb, present
    contact 1/(k-1)-surgery on L, and have its d3 spectrum."""

    def test_head_has_the_spectrum_of_one_over_k_minus_one(self):
        cases = 0
        for tb in range(-1, -6, -1):
            for rot, k in product(rot_range(tb), range(2, 8)):
                L, slope = LegendrianData(tb, rot), tb + Fraction(1, k - 1)
                want = oracle_spectrum(L, slope)
                q = [[tb + 1 if i == j < k else tb - 1 if i == j else tb for j in range(k + 1)]
                     for i in range(k + 1)]
                try:
                    head = {res.d3 for res in d3_values(form(q, k), [(rot,) * (k + 1)])}
                except NonTorsionEulerClassError as err:
                    head = type(err)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(invariants, "_presentation", with_cancelling_head(k))
                    try:
                        got = d3_spectrum(L, slope)
                    except NonTorsionEulerClassError as err:
                        got = type(err)
                # at slope 0 (tb = -1, k = 2) both sides are singular
                assert head == got == want, (tb, rot, k)
                assert (want is NonTorsionEulerClassError) == (slope == 0)
                cases += 1
        assert cases == 90


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
    """``_presentation`` with ``change(rows, pinned)`` applied to Q."""
    def build(L, p, q):
        pres = _presentation(L, p, q)
        rows = dense(pres.path)
        change(rows, pres.pinned)
        return replace(pres, path=read(sparse(rows)))
    return build


def chain_framing_up(rows, pinned):
    if 0 in pinned:  # the first chain row
        i = pinned.index(0)
        rows[i][i] += 1


def pushoff_link_up(rows, pinned):
    pushoffs = [i for i, pin in enumerate(pinned) if pin]
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
        monkeypatch.setattr(invariants, "_presentation", mutant(change))
        assert grid_outcomes().get(PipelineCheckError, 0) > 1000
        with pytest.raises(PipelineCheckError, match="disagree with the slope"):
            d3_spectrum(LegendrianData(-3, 0), 2)

    @pytest.mark.parametrize("change", [one_pushoff_more, chain_dropped])
    def test_mutant_conversions_are_caught(self, monkeypatch, change):
        monkeypatch.setattr(invariants, "_presentation", converted(change))
        assert grid_outcomes().get(PipelineCheckError, 0) > 1000
        with pytest.raises(PipelineCheckError, match="disagree with the slope"):
            d3_spectrum(LegendrianData(-3, 0), 2)
