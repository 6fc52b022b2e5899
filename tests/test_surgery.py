import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactsurg.linalg import dense
from contactsurg.slopes import SlopeError
from contactsurg.surgery import (
    ContactZeroError,
    LegendrianData,
    _negative_chain,
    _presentation,
    rot_range,
)
from oracles import (
    component_choices,
    enumerate_rotations,
    framing,
    listed_convert,
    listed_linking_matrix,
    neg_cf_value,
    read,
    smooth_recovery,
    sparse,
    tb1_negative_matrix,
    tb1_positive_matrix,
    tb2_negative_matrix,
    tb2_positive_matrix,
    tbk_negative_matrix,
    tbk_positive_matrix,
    tbk_two_matrix,
)


def matrix_of(tb, rot, smooth):
    pres = _presentation(LegendrianData(tb, rot), *(Fraction(smooth) - tb).as_integer_ratio())
    return dense(pres.path)


class TestLegendrianData:
    def test_parity_enforced(self):
        LegendrianData(-2, 1)
        with pytest.raises(ValueError):
            LegendrianData(-2, 0)

    def test_tau_bound(self):
        LegendrianData(-1, 0, tau=0)
        with pytest.raises(ValueError):
            LegendrianData(-1, 2, tau=0)


class TestConvert:
    def test_contact_zero_rejected(self):
        with pytest.raises(ContactZeroError):
            _presentation(LegendrianData(-1, 0), 0, 1)

    def test_half_surgery_is_two_pushoffs(self):
        # smooth -1/2 on tb = -1 is contact 1/2: two (+1) push-offs
        pres = listed_convert(LegendrianData(-1, 0), Fraction(1, 2))
        assert len(pres) == 1
        comps = pres[0].components
        assert [c.sign for c in comps] == [1, 1]
        assert [c.role for c in comps] == ["pushoff", "pushoff"]

    def test_pushoffs_are_one_shared_component(self):
        # five push-off rows, which share one tuple of rotation choices
        pres = _presentation(LegendrianData(-1, 0), 1, 5)
        assert (pres.l, pres.pinned, pres.path.a) == (5, (1,) * 5, [0] * 5)
        assert all(c is pres.choices[0] for c in pres.choices) and pres.choices[0] == (0,)

    def test_more_pushoffs_than_a_list_holds_is_a_slope_error(self):
        # ceil(q/p) push-offs: refused by count before any is built
        k = 10**23
        with pytest.raises(SlopeError, match=f"{k} push-offs are more than a list holds"):
            _presentation(LegendrianData(-1, 0), 1, k)
        with pytest.raises(SlopeError, match=f"{k} push-offs"):
            _presentation(LegendrianData(-1, 0), 2, 2 * k - 1)  # a tail after them

    def test_one_presentation_carries_the_rotation_range(self):
        # contact 50/99 on tb = -2: two push-offs, then the remainder -50 on
        # a push-off with 49 stabilizations, its 50 rotation numbers a range
        pres = _presentation(LegendrianData(-2, 1), 50, 99)
        assert pres.choices == [(1,), (1,), range(50, -49, -2)]
        assert (pres.l, pres.pinned) == (2, (1, 1, 1))
        pres = _presentation(LegendrianData(-1, 0), 1, 3)
        assert pres.choices == [(0,)] * 3  # no remainder, so no stabilized push-off
        assert (pres.l, pres.pinned) == (3, (1, 1, 1))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-30, 3), st.integers(-4, 4),
           st.one_of(st.integers(-60, 60), st.integers(-10**4, 10**4)),
           st.one_of(st.integers(1, 120), st.integers(1, 10**4)))
    @example(-2, 1, 50, 99)  # a positive tail: 50 presentations after two push-offs
    @example(-1, 0, 1, 3)  # three push-offs and no remainder
    @example(-3, 1, 1, 1)  # one push-off and no remainder
    @example(-1, 0, 2, 5)  # three push-offs and a tail on one more
    @example(-2, 0, -1, 40)  # a stabilized knot and a chain
    @example(-1, 0, 0, 1)  # contact 0
    @example(0, 0, 1, 3)  # tb = 0: three push-offs with zero links
    @example(0, 0, 2, 7)  # tb = 0: four push-offs with zero links and a tail
    @example(3, 0, 2, 7)  # no tail of smooth slope < -1 after the push-offs
    @example(3, 0, -1, 7)  # a negative coefficient of smooth slope > -1
    @example(-30, 0, -10**4, 3)  # 3,334 presentations of a stabilized knot
    @example(-1, 0, -1, 10**4)  # one run of 10^4 terms -2
    @example(-1, 0, 1, 10**23)  # more push-offs than a list holds
    @example(-1, 0, 2, 2 * 10**23 - 1)  # the same, with a tail after them
    @example(-1, 0, -10**23, 1)  # more presentations than a list holds
    @example(-1, 0, -1, 10**23)  # more chain unknots than a list holds
    def test_convert_expands_the_one_presentation_in_the_oracle_order(self, tb, j, p, q):
        # the presentation built a run of the continued fraction at a time
        # is the oracle's list, built one component at a time: its path,
        # pinned rows, l and knot are every listed one's, and its rotation
        # vectors theirs in their order (the d3 report's components are
        # TestD3Report's).  A rejected input raises the same error type
        # with the same text in both
        L, coeff = LegendrianData(tb, tb + 1 + 2 * j), Fraction(p, q)
        try:
            pres = _presentation(L, *coeff.as_integer_ratio())
        except ValueError as err:  # SlopeError and ContactZeroError too
            with pytest.raises(ValueError) as listed_err:
                listed_convert(L, coeff)
            assert (type(listed_err.value), str(listed_err.value)) == (type(err), str(err))
            return
        n, count = len(pres.path.a), math.prod(len(c) for c, pin in
                                               zip(pres.choices, pres.pinned) if pin)
        assume(count * n <= 10**5 and math.prod(map(len, pres.choices)) <= 10**5)
        listed = listed_convert(L, coeff)
        assert len(listed) == count
        for one in listed:
            assert read(listed_linking_matrix(one).rows) == pres.path
            assert tuple(int(c.rot is not None) for c in one.components) == pres.pinned
            assert (one.l, one.base_tb, one.base_rot) == (pres.l, pres.base_tb, pres.base_rot)
        assert list(product(*pres.choices)) == [
            v for one in listed for v in product(*component_choices(one))]

    def test_negative_chain_needs_negative_coefficient(self):
        # smooth -4 on tb = -5 would need -2 stabilizations
        with pytest.raises(ValueError, match="negative contact coefficient"):
            _negative_chain(-5, 0, 1, 1)

    def test_single_negative_surgery(self):
        # smooth -1 on tb = -2 is contact (+1): one push-off
        pres = listed_convert(LegendrianData(-2, 1), 1)
        assert len(pres) == 1
        assert list(map(framing, pres[0].components)) == [-1]
        assert pres[0].l == 1

    def test_positive_one_over_n_pushoff_pair(self):
        # smooth +1/n on tb = -1: push-off pair, second with n stabilizations
        for n in range(1, 7):
            pres_list = listed_convert(LegendrianData(-1, 0), Fraction(n + 1, n))
            assert len(pres_list) == n + 1  # one per stabilization outcome
            for pres in pres_list:
                comps = pres.components
                assert len(comps) == 2
                assert comps[0].sign == 1 and comps[1].sign == -1
                assert framing(comps[1]) == -2 - n

    def test_stabilization_rotations(self):
        pres_list = listed_convert(LegendrianData(-1, 0), Fraction(3, 2))
        rots = sorted(p.components[1].rot for p in pres_list)
        assert rots == [-2, 0, 2]

    def test_chain_tb_values(self):
        # smooth -1/n on tb = -2: framings -1, -5, then a -2 chain
        pres = _presentation(LegendrianData(-2, 1), 7, 4)
        assert pres.path.a == [-1, -5, -2, -2]
        assert (pres.l, pres.pinned) == (1, (1, 1, 0, 0))
        # tb is the knot's on the l (+1) push-offs and framing + 1 on the rest
        assert [pres.base_tb] * pres.l + [x + 1 for x in pres.path.a[pres.l:]] == [-2, -4, -1, -1]
        # contact -1/10^6 on tb = -1: smooth -(10^6 + 1)/10^6 is one run of
        # 10^6 terms -2, so one push-off and 999,999 chain unknots, all framing -2
        pres_list = listed_convert(LegendrianData(-1, 0), Fraction(-1, 10 ** 6))
        assert len(pres_list) == 1
        comps = pres_list[0].components
        assert [c.role for c in comps[:2]] == ["pushoff", "chain"]
        assert sum(c.role == "chain" for c in comps) == 999_999
        assert set(map(framing, comps)) == {-2}


class TestToJson:
    @staticmethod
    def one_dict_per_component(pres):
        return {"components": [{"role": c.role, "tb": c.tb, "rot": c.rot, "sign": c.sign}
                               for c in pres.components],
                "l": pres.l}

    def test_equals_one_dict_per_component(self):
        smooth = ([Fraction(sign, n) for n in (1, 2, 3, 5, 40) for sign in (1, -1)]
                  + [Fraction(2), Fraction(-2)]
                  + [neg_cf_value([c] + [-3] * k) for c in (-2, -5) for k in (1, 3, 8)])
        checked = 0
        for tb in range(-4, 0):
            L = LegendrianData(tb, tb + 1)
            for coeff in [Fraction(1, 3), Fraction(3, 4)] + [s - tb for s in smooth]:
                try:
                    presentations = listed_convert(L, coeff)
                except SlopeError:
                    continue
                for pres in presentations:
                    assert pres.to_json() == self.one_dict_per_component(pres)
                    checked += 1
        assert checked > 100


class TestLinkingMatrix:
    def test_displayed_matrices(self):
        assert matrix_of(-1, 0, Fraction(-1, 2)) == [[0, -1], [-1, 0]]
        assert matrix_of(-2, 1, 1) == [[-1, -2, 0], [-2, -4, -1], [0, -1, -2]]
        assert matrix_of(-3, 0, 2) == [
            [-2, -3, 0, 0, 0],
            [-3, -5, -1, 0, 0],
            [0, -1, -2, -1, 0],
            [0, 0, -1, -2, -1],
            [0, 0, 0, -1, -2],
        ]

    def test_families_match_the_direct_constructors(self):
        for n in range(2, 8):
            assert matrix_of(-1, 0, Fraction(-1, n)) == tb1_negative_matrix(n)
            assert matrix_of(-1, 0, Fraction(1, n)) == tb1_positive_matrix(n)
        for n in range(1, 8):
            assert matrix_of(-2, 1, Fraction(-1, n)) == tb2_negative_matrix(n)
            assert matrix_of(-2, 1, Fraction(1, n)) == tb2_positive_matrix(n)
        for k in range(3, 9):
            rot = (k - 1) % 2
            for n in range(1, 6):
                assert matrix_of(-k, rot, Fraction(-1, n)) == tbk_negative_matrix(k, n)
                assert matrix_of(-k, rot, Fraction(1, n)) == tbk_positive_matrix(k, n)
            assert matrix_of(-k, rot, -2) == tbk_two_matrix(k, -1)
            assert matrix_of(-k, rot, 2) == tbk_two_matrix(k, 1)

    def test_pushoff_linking_is_base_tb(self):
        pres = _presentation(LegendrianData(-1, 0), 2, 5)  # three pushoffs
        q = dense(pres.path)
        assert q[0][1] == q[0][2] == q[1][2] == -1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-8, 2), st.integers(-40, 40), st.integers(1, 15))
    def test_dense_rows_match_the_dense_build(self, tb, p, q):
        # a framing 0, and at tb = 0 the links between push-offs, are
        # entries sparse rows leave out and linalg.dense writes back
        L, coeff = LegendrianData(tb, tb + 1), Fraction(p, q) - tb
        try:
            presentations = listed_convert(L, coeff)
        except (SlopeError, ValueError):
            return
        path = _presentation(L, *coeff.as_integer_ratio()).path
        m = dense(path)
        for pres in presentations:
            assert m == dense(read(listed_linking_matrix(pres).rows))
        assert read(sparse(m)) == path  # read is the inverse of dense

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-6, 0), st.integers(0, 3), st.one_of(
        # contact 1/k: a clique head of k push-offs
        st.integers(3, 16).map(lambda k: ("contact", Fraction(1, k))),
        # smooth -1/n: one push-off and a chain of -2 framings
        st.integers(1, 30).map(lambda n: ("smooth", Fraction(-1, n))),
        # any contact slope: push-offs, then runs of several framings
        st.tuples(st.integers(-60, 60).filter(bool), st.integers(1, 20)).map(
            lambda pq: ("contact", Fraction(*pq)))))
    @example(0, 0, ("contact", Fraction(1, 3)))  # tb = 0: three push-offs, no links
    @example(-1, 0, ("contact", Fraction(2, 7)))  # framings 0, a head of four, a chain
    @example(-3, 0, ("smooth", Fraction(-27, 5)))  # runs of -2 and of -3
    def test_path_matches_the_oracle_rows(self, tb, j, slope):
        # the path is built from the runs of the continued fraction; the
        # oracle builds Q entry by entry from the listed components, its
        # rows read by the oracle read must give the same path, and the
        # dense rows of the path must be its rows
        kind, value = slope
        L = LegendrianData(tb, tb + 1 - 2 * j)
        coeff = value - tb if kind == "smooth" else value
        try:
            pres = _presentation(L, *coeff.as_integer_ratio())
        except (SlopeError, ValueError):
            return
        listed = listed_convert(L, coeff)[0]
        want = listed_linking_matrix(listed).rows
        assert pres.path == read(want)
        assert sparse(dense(pres.path)) == list(want)
        assert len(pres.path.a) == len(want) and pres.l == listed.l


class TestSmoothRecovery:
    def test_recovery_sweep(self):
        count = 0
        for tb in range(-6, 0):
            for rot in rot_range(tb):
                L = LegendrianData(tb, rot)
                for num in range(-6, 7):
                    for den in range(1, 5):
                        cc = Fraction(num, den)
                        if cc == 0:
                            continue
                        for pres in listed_convert(L, cc):
                            assert smooth_recovery(pres) == tb + cc
                            count += 1
        assert count > 1000


class TestRotations:
    def test_unknot_rot_range(self):
        # chain unknots enumerate their rotations in descending order
        assert rot_range(-1)[::-1] == [0]
        assert rot_range(-3)[::-1] == [2, 0, -2]
        with pytest.raises(ValueError):
            rot_range(0)

    def test_half_surgery_single_vector(self):
        pres = _presentation(LegendrianData(-1, 0), 1, 2)
        assert list(product(*pres.choices)) == [(0, 0)]

    def test_tb2_positive_vectors(self):
        # vectors (i, i +- 1, s): the middle entry 2i occurs only with
        # matching sign, automatically
        for pres in listed_convert(LegendrianData(-2, 1), Fraction(5, 2)):  # smooth 1/2
            for vec in enumerate_rotations(pres):
                assert vec[0] == 1
                assert vec[1] in (0, 2)
                assert vec[2] in (1, -1)

    def test_vector_count_is_product_of_chain_choices(self):
        pres_list = listed_convert(LegendrianData(-3, 0), Fraction(1, 3) + 3)
        for pres in pres_list:
            expected = 1
            for c in pres.components:
                if c.rot is None:
                    expected *= -c.tb
            assert len(enumerate_rotations(pres)) == expected

    def test_chain_rotation_bounds(self):
        for pres in listed_convert(LegendrianData(-4, 1), Fraction(1, 5) + 4):
            for vec in enumerate_rotations(pres):
                for c, r in zip(pres.components, vec):
                    if c.role == "chain":
                        assert abs(r) <= -c.tb - 1
                        assert (r - c.tb - 1) % 2 == 0
