import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurg.farey import count_tight_lens_pq
from contactsurg.slopes import canonical_slope
from oracles import (
    ANTICLOCKWISE,
    CLOCKWISE,
    INF,
    DecoratedFareyPath,
    FareyBlock,
    _classes,
    _det,
    _edges,
    cf_blocks,
    clockwise_ends,
    decorated_path_key,
    honda_product,
    in_clockwise_arc,
    is_edge,
    minimal_path,
    minimal_path_blocks,
    minimal_path_bfs,
    minimal_path_vertexwise,
    neg_cf_terms,
    shorten,
    sign_class_count,
    vec,
)


def small_slopes(num_bound, den_bound):
    out = [INF]
    for q in range(1, den_bound + 1):
        for p in range(-num_bound, num_bound + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(vec(p, q))
    return out


class TestEdges:
    def test_examples(self):
        assert is_edge(vec(0), INF)
        assert is_edge(vec(-3, 2), vec(-1))
        assert not is_edge(vec(-5, 2), vec(-1))

    def test_equal_slopes_rejected(self):
        with pytest.raises(ValueError):
            is_edge(vec(1, 2), vec(1, 2))

    @given(p1=st.integers(-20, 20), q1=st.integers(0, 12),
           p2=st.integers(-20, 20), q2=st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, p1, q1, p2, q2):
        if (p1, q1) == (0, 0) or (p2, q2) == (0, 0):
            return
        a, b = vec(p1, q1), vec(p2, q2)
        if a == b:
            return
        assert is_edge(a, b) == is_edge(b, a)


class TestMinimalPaths:
    def test_examples(self):
        assert minimal_path(vec(-5, 2), vec(-1)) == [vec(-5, 2), vec(-2), vec(-1)]
        assert minimal_path(INF, vec(-1)) == [INF, vec(-1)]
        assert minimal_path(vec(0), INF) == [vec(0), INF]

    def test_direction_matters(self):
        # from 1/2 clockwise to -1 wraps through infinity
        path = minimal_path(vec(1, 2), vec(-1), CLOCKWISE)
        assert path == [vec(1, 2), vec(1), INF, vec(-1)]
        back = minimal_path(vec(-1), vec(1, 2), ANTICLOCKWISE)
        assert back == list(reversed(path))

    def test_intermediates_stay_in_arc(self):
        rng = random.Random(3)
        slopes = small_slopes(6, 4)
        for _ in range(200):
            a, b = rng.sample(slopes, 2)
            path = minimal_path(a, b, CLOCKWISE)
            assert path[0] == a and path[-1] == b
            for v in path[1:-1]:
                assert in_clockwise_arc(v, a, b)

    def test_agrees_with_bfs_and_unique(self):
        # exhaustive at small denominators: same length, same path, and the
        # geodesic inside the arc is unique
        rng = random.Random(11)
        slopes = small_slopes(5, 4)
        pairs = [(a, b) for a in slopes for b in slopes if a != b]
        rng.shuffle(pairs)
        for a, b in pairs[:150]:
            for direction in (CLOCKWISE, ANTICLOCKWISE):
                mine = minimal_path(a, b, direction)
                bfs, ways = minimal_path_bfs(a, b, direction)
                assert len(mine) == len(bfs)
                assert mine == bfs
                assert ways == 1


SMALL_SLOPES = small_slopes(6, 5)


class TestBlockRoute:
    @given(a=st.sampled_from(SMALL_SLOPES), b=st.sampled_from(SMALL_SLOPES),
           direction=st.sampled_from((CLOCKWISE, ANTICLOCKWISE)))
    @settings(max_examples=300, deadline=None)
    def test_expanded_blocks_match_oracles(self, a, b, direction):
        if a == b:
            return
        path = minimal_path(a, b, direction)
        assert path == minimal_path_vertexwise(a, b, direction)
        # the builder's blocks are the continued-fraction blocks of the path
        blocks = minimal_path_blocks(*clockwise_ends(a, b, direction))
        assert [blk.edges for blk in blocks] == [len(bl) for bl in cf_blocks(path)]

    def test_huge_paths_cost_only_their_blocks(self):
        # L(200001, 1) is one block of 200001 edges; -p/(p - 1) has a
        # negative continued fraction of p - 1 terms, all -2, so a route
        # that walks the terms hangs on p = 10^12
        assert count_tight_lens_pq(200001, 1) == 200000
        assert count_tight_lens_pq(10**12, 10**12 - 1) == 1
        assert count_tight_lens_pq(10**18 + 1, 10**18) == 1
        assert count_tight_lens_pq(10**12, 1) == 10**12 - 1
        blocks = minimal_path_blocks(vec(-(10**12)), vec(0))
        assert [blk.edges for blk in blocks] == [10**12]
        assert _classes(_edges(vec(1, 10**9), vec(-1)), 0, 0) == 10**9 + 2

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_stack_shorten_matches_restart_scan(self, data):
        # a monotone concatenation, as gluing produces, shortens to the
        # minimal path between its ends; an arbitrary walk in the Farey
        # graph shortens to a path with no merge left, or raises
        a, mid, b = (data.draw(st.sampled_from(small_slopes(5, 3))) for _ in range(3))
        monotone = data.draw(st.booleans())
        if monotone:
            if len({a, mid, b}) < 3 or not in_clockwise_arc(mid, a, b):
                return
            verts = tuple(minimal_path(a, mid)) + tuple(minimal_path(mid, b)[1:])
        else:
            verts = [a]
            for _ in range(data.draw(st.integers(1, 8))):
                nbrs = [s for s in SMALL_SLOPES if s != verts[-1] and is_edge(s, verts[-1])]
                verts.append(data.draw(st.sampled_from(nbrs)))
            verts = tuple(verts)
        signs = tuple(data.draw(st.sampled_from((1, -1, None)))
                      for _ in range(len(verts) - 1))
        try:
            shortened, _ = shorten(DecoratedFareyPath(verts, signs))
        except ValueError:
            assert not monotone
            return
        got = shortened.vertices
        assert not any(map(is_edge, got, got[2:]))
        if monotone:
            assert list(got) == minimal_path(a, b)


class TestShorten:
    def test_already_minimal(self):
        p = DecoratedFareyPath((vec(-5, 2), vec(-2), vec(-1)), (None, 1))
        sp, verdict = shorten(p)
        assert sp == p and verdict == "tight"

    def test_opposite_signs_overtwist(self):
        p = DecoratedFareyPath((INF, vec(-2), vec(-1)), (1, -1))
        sp, verdict = shorten(p)
        assert sp.to_json()["vertices"] == ["inf", "-1"]
        assert verdict == "overtwisted"

    def test_same_signs_stay_tight(self):
        p = DecoratedFareyPath((INF, vec(-2), vec(-1)), (1, 1))
        sp, verdict = shorten(p)
        assert sp.vertices == (INF, vec(-1))
        assert sp.signs == (1,)
        assert verdict == "tight"

    def test_unsigned_edge_absorbs(self):
        p = DecoratedFareyPath((INF, vec(-2), vec(-1)), (None, -1))
        sp, verdict = shorten(p)
        assert verdict == "tight"
        assert sp.signs == (None,)

    def test_backtracking_rejected(self):
        p = DecoratedFareyPath((vec(-1), vec(-2), vec(-1)), (1, 1))
        with pytest.raises(ValueError):
            shorten(p)

    def test_confluence_under_random_move_orders(self):
        def shorten_random_order(path, rng):
            verts = list(path.vertices)
            signs = list(path.signs)
            overtwisted = False
            while True:
                merges = [i for i in range(1, len(verts) - 1)
                          if abs(_det(verts[i - 1], verts[i + 1])) == 1]
                if not merges:
                    break
                i = rng.choice(merges)
                s1, s2 = signs[i - 1], signs[i]
                if s1 is None or s2 is None:
                    merged = None
                elif s1 == s2:
                    merged = s1
                else:
                    merged = None
                    overtwisted = True
                verts[i - 1:i + 1] = [verts[i - 1]]
                signs[i - 1:i + 1] = [merged]
            return (DecoratedFareyPath(tuple(verts), tuple(signs)),
                    "overtwisted" if overtwisted else "tight")

        rng = random.Random(0)
        tried = 0
        while tried < 250:
            a = vec(rng.randint(-5, -1), rng.randint(1, 3))
            mid = vec(rng.randint(-3, 3), rng.randint(1, 3))
            b = vec(rng.randint(1, 5), rng.randint(1, 3))
            if len({a, mid, b}) < 3 or not in_clockwise_arc(mid, a, b):
                continue  # gluings concatenate monotone clockwise paths
            verts = tuple(minimal_path(a, mid)) + tuple(minimal_path(mid, b)[1:])
            signs = tuple(rng.choice([1, -1]) for _ in range(len(verts) - 1))
            path = DecoratedFareyPath(verts, signs)
            ref = shorten(path)
            tried += 1
            for _ in range(4):
                alt = shorten_random_order(path, random.Random(rng.getrandbits(32)))
                assert alt[0] == ref[0] and alt[1] == ref[1]


class TestBlocks:
    def test_single_edge(self):
        assert cf_blocks([INF, vec(-1)]) == [[0]]

    def test_all_twos_chain_is_one_block(self):
        # the n-edge path from 1/(n-1) back to -1 forms one block
        for n in range(2, 9):
            path = minimal_path(vec(1, n - 1), vec(-1))
            assert len(path) - 1 == n
            assert cf_blocks(path) == [list(range(n))]

    def test_example_path_splits(self):
        blocks = cf_blocks([vec(-5, 2), vec(-2), vec(-1)])
        assert blocks == [[0], [1]]

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError):
            cf_blocks([INF, vec(-2), vec(-1)])

    def test_quotient_count_vs_raw_enumeration(self):
        # brute force: enumerate all raw sign assignments, quotient by the
        # per-block multiset key, compare with the closed count
        import itertools

        rng = random.Random(5)
        slopes = small_slopes(5, 3)
        done = 0
        while done < 60:
            a, b = rng.sample(slopes, 2)
            path = minimal_path(a, b)
            n_edges = len(path) - 1
            if n_edges > 8:
                continue
            done += 1
            for unsigned in ({0}, {0, n_edges - 1}, set()):
                unsigned = {u for u in unsigned if 0 <= u < n_edges}
                signed_pos = [i for i in range(n_edges) if i not in unsigned]
                keys = set()
                for combo in itertools.product((1, -1), repeat=len(signed_pos)):
                    signs = [None] * n_edges
                    for pos, s in zip(signed_pos, combo):
                        signs[pos] = s
                    keys.add(decorated_path_key(
                        DecoratedFareyPath(tuple(path), tuple(signs))))
                assert len(keys) == sign_class_count(path, unsigned)


class TestCounts:
    def test_solid_torus_examples(self):
        # solid tori: decorated minimal paths from the meridian to the
        # boundary slope, the first edge unsigned
        assert _classes(_edges(INF, vec(-3)), 1, 0) == 1  # single edge
        for m in range(1, 9):
            # -(m+1)/m and -1 span an edge: contact -1/m surgeries are unique
            assert _classes(_edges(vec(-(m + 1), m), vec(-1)), 1, 0) == 1
            # the all -2 chain: standard torus with boundary slope -(m+1)/m
            assert _classes(_edges(INF, vec(-(m + 1), m)), 1, 0) == m
        # complements of Legendrian unknots, upper-meridian tori on the
        # anticlockwise path: m+1 structures at tb = -(m+1)
        for m in range(0, 8):
            ends = clockwise_ends(vec(0), vec(-(m + 1)), ANTICLOCKWISE)
            assert _classes(_edges(*ends), 1, 0) == m + 1

    def test_thickened_torus_counts(self):
        # minimally twisting T^2 x I, every edge signed: dividing slopes
        # 1/(n-1) and -1 give one n-edge block, n+1 structures
        for n in range(1, 9):
            s0 = vec(1, n - 1) if n > 1 else INF
            assert _classes(_edges(s0, vec(-1)), 0, 0) == n + 1

    def test_lens_examples(self):
        assert count_tight_lens_pq(2, 1) == 1
        for p in range(2, 13):
            assert count_tight_lens_pq(p, 1) == p - 1
        # the all -2 chain gives the unique tight structure
        assert count_tight_lens_pq(3, 2) == 1

    def test_lens_counts_match_continued_fraction_product(self):
        # Honda's |(r_0 + 1) ... (r_k + 1)| over -p/q = [r_0, ..., r_k] and
        # the count on the vertex-by-vertex path, on all 1085 pairs p < 60
        pairs = [(p, q) for p in range(2, 60) for q in range(1, p) if math.gcd(p, q) == 1]
        assert len(pairs) == 1085
        for p, q in pairs:
            expected = 1
            for c in neg_cf_terms(Fraction(-p, q)):
                expected *= abs(c + 1)
            path = minimal_path_vertexwise(vec(-p, q), vec(0))
            assert sign_class_count(path, {0, len(path) - 2}) == expected
            assert count_tight_lens_pq(p, q) == expected

    def test_lens_general_form(self):
        # collapsing slope s at one end of T^2 x I and r at the other:
        # every edge signed but the first and the last
        assert _classes(_edges(vec(-3), vec(0)), 1, 1) == 2
        with pytest.raises(ValueError):
            _classes(_edges(vec(-3), vec(-3)), 1, 1)

    def test_neighbours_give_the_three_sphere(self):
        # |det| = 1 collapses to S^3, which has one tight structure: the
        # path's single edge is both first and last, and stays unsigned
        assert _classes(_edges(vec(-1), vec(0)), 1, 1) == 1
        assert _classes(_edges(INF, vec(0)), 1, 1) == 1
        assert _classes(_edges(vec(-2), vec(-1)), 1, 1) == 1
        pairs = [(a, b) for a in SMALL_SLOPES for b in SMALL_SLOPES
                 if a != b and is_edge(a, b)]
        assert any(INF in pair for pair in pairs)
        for a, b in pairs:
            path = minimal_path_vertexwise(a, b)
            assert len(path) == 2
            assert _classes(_edges(a, b), 1, 1) == sign_class_count(path, {0, len(path) - 2}) == 1

    @given(a=st.sampled_from(SMALL_SLOPES), b=st.sampled_from(SMALL_SLOPES),
           direction=st.sampled_from((CLOCKWISE, ANTICLOCKWISE)))
    @settings(max_examples=300, deadline=None)
    def test_counts_match_vertexwise_paths(self, a, b, direction):
        if a == b:
            return
        path = minimal_path_vertexwise(a, b, direction)
        last = len(path) - 2
        assert _classes(_edges(*clockwise_ends(a, b, direction)), 1, 0) == \
            sign_class_count(path, {0})
        if direction == CLOCKWISE:
            assert _classes(_edges(a, b), 0, 0) == sign_class_count(path, set())
            assert _classes(_edges(a, b), 1, 1) == sign_class_count(path, {0, last})

    @given(p=st.integers(10**99, 10**100), q=st.integers(1, 10**100))
    @settings(max_examples=300, deadline=None)
    def test_lens_counts_match_honda_at_hundred_digits(self, p, q):
        q %= p
        if math.gcd(p, q) != 1:
            return
        assert count_tight_lens_pq(p, q) == _classes(_edges((-p, q), (0, 1)), 1, 1)

    @given(p=st.integers(2, 10**30), q=st.integers(1, 10**30))
    @settings(max_examples=500, deadline=None)
    def test_honda_product_is_the_sign_shuffle_count(self, p, q):
        # the closed form against the Farey-side count of decorated minimal
        # paths from -p/q to 0 up to shuffles inside each block, first and
        # last edges unsigned
        q %= p
        if q == 0 or math.gcd(p, q) != 1:
            return
        assert count_tight_lens_pq(p, q) == _classes(_edges((-p, q), (0, 1)), 1, 1)

    @given(p=st.integers(max_value=10**40), q=st.integers())
    @example(p=10**18 + 1, q=10**18)  # one run of 10^18 terms -2: one step
    @example(p=1000, q=1)  # the (p, 1) ladder of perfbench's farey workload
    @example(p=3000, q=1)
    @example(p=10000, q=1)
    @example(p=30000, q=1)
    @example(p=60000, q=1)
    @example(p=200001, q=1)  # and its longest pair
    @example(p=1, q=0)  # S^3
    @example(p=1, q=-7)
    @example(p=5, q=0)  # q = 0 (mod p)
    @example(p=5, q=-10)
    @example(p=4, q=2)  # not coprime
    @example(p=6, q=4)
    @example(p=0, q=1)  # p < 1
    @settings(max_examples=500, deadline=None)
    def test_fused_count_is_the_product_over_runs(self, p, q):
        # the one-pass Euclid against Honda's product over neg_cf_runs with
        # math.gcd: the same value, or the same error type and text
        def outcome(count):
            try:
                return count(p, q)
            except ValueError as exc:
                return type(exc), str(exc)

        assert outcome(count_tight_lens_pq) == outcome(honda_product)

    def test_pairs_that_are_no_lens_space_are_refused(self):
        for p, q in ((4, 2), (6, 4), (9, 6), (10**30, 10**15), (7, 0), (7, 14)):
            with pytest.raises(ValueError, match=rf"^L\({p},{q % p}\) is not a lens space$"):
                count_tight_lens_pq(p, q)
        with pytest.raises(ValueError, match="lens space needs p >= 1"):
            count_tight_lens_pq(0, 1)
        assert count_tight_lens_pq(1, 0) == count_tight_lens_pq(1, 5) == 1

    def test_lens_pq_builds_no_slope_and_no_block(self, monkeypatch):
        # no rational slope (a Fraction) and no FareyBlock
        built = []
        fraction_new = Fraction.__new__

        def counted_fraction(cls, *args, **kwargs):
            built.append("Fraction")
            return fraction_new(cls, *args, **kwargs)

        def counted_block(cls, *args):
            built.append("FareyBlock")
            return tuple.__new__(cls, args)

        monkeypatch.setattr(Fraction, "__new__", counted_fraction)
        monkeypatch.setattr(FareyBlock, "__new__", counted_block)
        # the counters see what the general routes build
        canonical_slope(Fraction(-7, 3))
        minimal_path_blocks((-7, 3), (0, 1))
        assert "Fraction" in built and "FareyBlock" in built
        cases = ((2, 1), (7, 3), (200001, 1), (10**12, 10**12 - 1), (10**30 + 1, 10**15))
        want = [_classes(_edges((-p, q), (0, 1)), 1, 1) for p, q in cases]
        built.clear()
        assert [count_tight_lens_pq(p, q) for p, q in cases] == want
        assert built == []


HUGE_SLOPES = st.builds(lambda n, d: vec(n, d) if d else INF,
                        st.integers(-10**100, 10**100), st.integers(0, 10**100))


class TestEndpoints:
    @pytest.mark.parametrize("bad", [(2, 4), (-1, 0), (5, 0), (3, -2), (0, 0)])
    def test_unreduced_vectors_rejected(self, bad):
        # an unreduced vector has another frame than its slope: (-1, 0)
        # and (5, 0) to (-7, 3) would read [1, 1] and [2, 1], not [3]
        assert _edges(INF, (-7, 3)) == [3]
        for route in (minimal_path_blocks, _edges):
            for ends in ((bad, (-7, 3)), ((-7, 3), bad), (bad, INF)):
                with pytest.raises(ValueError, match="is not reduced"):
                    route(*ends)

    def test_equal_endpoints_rejected(self):
        for route in (minimal_path_blocks, _edges):
            for a in (INF, (0, 1), (-7, 3)):
                with pytest.raises(ValueError, match="distinct endpoints"):
                    route(a, a)


class TestEdgeReader:
    @given(a=HUGE_SLOPES, b=HUGE_SLOPES, direction=st.sampled_from((CLOCKWISE, ANTICLOCKWISE)))
    @settings(max_examples=300, deadline=None)
    def test_edge_counts_are_the_blocks(self, a, b, direction):
        if a == b:
            return
        for x, y in ((a, b), (b, a)):
            ends = clockwise_ends(x, y, direction)
            assert _edges(*ends) == [blk.edges for blk in minimal_path_blocks(*ends)]

    def test_infinity_ends(self):
        for s in (vec(-5, 2), vec(0), vec(10**100 + 1, 10**100)):
            for direction in (CLOCKWISE, ANTICLOCKWISE):
                for ends in (clockwise_ends(INF, s, direction),
                             clockwise_ends(s, INF, direction)):
                    assert _edges(*ends) == [blk.edges for blk in minimal_path_blocks(*ends)]


class TestSerialization:
    def test_round_trip(self):
        p = DecoratedFareyPath((vec(-5, 2), vec(-2), vec(-1), vec(0)),
                               (None, 1, -1))
        data = p.to_json()
        assert data["signs"] == "?+-"
        assert DecoratedFareyPath.from_json(data) == p
