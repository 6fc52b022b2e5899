import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsurg.farey import (
    ANTICLOCKWISE,
    CLOCKWISE,
    FareyBlock,
    _det,
    _edges,
    count_tight_lens,
    count_tight_lens_pq,
    count_tight_solid_torus,
    count_tight_thickened_torus,
    is_edge,
    minimal_path_blocks,
)
from contactsurg.slopes import INFINITY, Slope
from oracles import (
    DecoratedFareyPath,
    cf_blocks,
    decorated_path_key,
    honda_lens_count,
    in_clockwise_arc,
    minimal_path,
    minimal_path_bfs,
    minimal_path_vertexwise,
    neg_cf_terms,
    raw_sign_count,
    shorten,
    shorten_restart,
    sign_class_count,
)


def small_slopes(num_bound, den_bound):
    out = [INFINITY]
    for q in range(1, den_bound + 1):
        for p in range(-num_bound, num_bound + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out


class TestEdges:
    def test_examples(self):
        assert is_edge(Slope(0), INFINITY)
        assert is_edge(Slope(-3, 2), Slope(-1))
        assert not is_edge(Slope(-5, 2), Slope(-1))

    def test_equal_slopes_rejected(self):
        with pytest.raises(ValueError):
            is_edge(Slope(1, 2), Slope(1, 2))

    @given(p1=st.integers(-20, 20), q1=st.integers(0, 12),
           p2=st.integers(-20, 20), q2=st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, p1, q1, p2, q2):
        if (p1, q1) == (0, 0) or (p2, q2) == (0, 0):
            return
        a, b = Slope(p1, q1), Slope(p2, q2)
        if a == b:
            return
        assert is_edge(a, b) == is_edge(b, a)


class TestMinimalPaths:
    def test_examples(self):
        assert minimal_path(Slope(-5, 2), Slope(-1)) == [Slope(-5, 2), Slope(-2), Slope(-1)]
        assert minimal_path(INFINITY, Slope(-1)) == [INFINITY, Slope(-1)]
        assert minimal_path(Slope(0), INFINITY) == [Slope(0), INFINITY]

    def test_direction_matters(self):
        # from 1/2 clockwise to -1 wraps through infinity
        path = minimal_path(Slope(1, 2), Slope(-1), CLOCKWISE)
        assert path == [Slope(1, 2), Slope(1), INFINITY, Slope(-1)]
        back = minimal_path(Slope(-1), Slope(1, 2), ANTICLOCKWISE)
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
                bfs, ways = minimal_path_bfs(a, b, direction, count_paths=True)
                assert len(mine) == len(bfs)
                assert mine == bfs
                assert ways == 1

    def test_bfs_denominator_bound_example(self):
        path = minimal_path_bfs(Slope(-5, 2), Slope(-1), den_bound=8)
        assert path == [Slope(-5, 2), Slope(-2), Slope(-1)]


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
        assert path == minimal_path_bfs(a, b, direction)
        # the builder's blocks are the continued-fraction blocks of the path
        blocks = minimal_path_blocks(a, b, direction)
        assert [blk.edges for blk in blocks] == [len(bl) for bl in cf_blocks(path)]

    def test_huge_paths_cost_only_their_blocks(self):
        # L(200001, 1) is one block of 200001 edges; -p/(p - 1) has a
        # negative continued fraction of p - 1 terms, all -2, so a route
        # that walks the terms hangs on p = 10^12
        assert count_tight_lens_pq(200001, 1) == 200000
        assert count_tight_lens_pq(10**12, 10**12 - 1) == 1
        assert count_tight_lens_pq(10**12, 1) == 10**12 - 1
        blocks = minimal_path_blocks(Slope(-(10**12)), Slope(0))
        assert [blk.edges for blk in blocks] == [10**12]
        assert count_tight_thickened_torus(Slope(1, 10**9), Slope(-1)) == 10**9 + 2

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_stack_shorten_matches_restart_scan(self, data):
        # monotone concatenations, as gluing produces, and also arbitrary
        # walks in the Farey graph, on which both must raise alike
        a, mid, b = (data.draw(st.sampled_from(small_slopes(5, 3))) for _ in range(3))
        if data.draw(st.booleans()):
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
        path = DecoratedFareyPath(verts, signs)
        try:
            expected = shorten_restart(path)
        except ValueError:
            with pytest.raises(ValueError):
                shorten(path)
            return
        assert shorten(path) == expected


class TestShorten:
    def test_already_minimal(self):
        p = DecoratedFareyPath((Slope(-5, 2), Slope(-2), Slope(-1)), (None, 1))
        sp, verdict = shorten(p)
        assert sp == p and verdict == "tight"

    def test_opposite_signs_overtwist(self):
        p = DecoratedFareyPath((INFINITY, Slope(-2), Slope(-1)), (1, -1))
        sp, verdict = shorten(p)
        assert [str(v) for v in sp.vertices] == ["inf", "-1"]
        assert verdict == "overtwisted"

    def test_same_signs_stay_tight(self):
        p = DecoratedFareyPath((INFINITY, Slope(-2), Slope(-1)), (1, 1))
        sp, verdict = shorten(p)
        assert sp.vertices == (INFINITY, Slope(-1))
        assert sp.signs == (1,)
        assert verdict == "tight"

    def test_unsigned_edge_absorbs(self):
        p = DecoratedFareyPath((INFINITY, Slope(-2), Slope(-1)), (None, -1))
        sp, verdict = shorten(p)
        assert verdict == "tight"
        assert sp.signs == (None,)

    def test_backtracking_rejected(self):
        p = DecoratedFareyPath((Slope(-1), Slope(-2), Slope(-1)), (1, 1))
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
            a = Slope(rng.randint(-5, -1), rng.randint(1, 3))
            mid = Slope(rng.randint(-3, 3), rng.randint(1, 3))
            b = Slope(rng.randint(1, 5), rng.randint(1, 3))
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
        assert cf_blocks([INFINITY, Slope(-1)]) == [[0]]

    def test_all_twos_chain_is_one_block(self):
        # the n-edge path from 1/(n-1) back to -1 forms one block
        for n in range(2, 9):
            path = minimal_path(Slope(1, n - 1), Slope(-1))
            assert len(path) - 1 == n
            assert cf_blocks(path) == [list(range(n))]

    def test_example_path_splits(self):
        blocks = cf_blocks([Slope(-5, 2), Slope(-2), Slope(-1)])
        assert blocks == [[0], [1]]

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError):
            cf_blocks([INFINITY, Slope(-2), Slope(-1)])

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
                assert raw_sign_count(path, unsigned) == 2 ** len(signed_pos)


class TestCounts:
    def test_solid_torus_examples(self):
        assert count_tight_solid_torus(INFINITY, Slope(-3)) == 1  # single edge
        for m in range(1, 9):
            # -(m+1)/m and -1 span an edge: contact -1/m surgeries are unique
            assert count_tight_solid_torus(Slope(-(m + 1), m), Slope(-1)) == 1
            # the all -2 chain: standard torus with boundary slope -(m+1)/m
            assert count_tight_solid_torus(INFINITY, Slope(-(m + 1), m)) == m
        # complements of Legendrian unknots: m+1 structures at tb = -(m+1)
        for m in range(0, 8):
            assert count_tight_solid_torus(
                Slope(0), Slope(-(m + 1)), direction=ANTICLOCKWISE) == m + 1

    def test_thickened_torus_counts(self):
        # dividing slopes 1/(n-1) and -1: one n-edge block, n+1 structures
        for n in range(1, 9):
            s0 = Slope(1, n - 1) if n > 1 else INFINITY
            assert count_tight_thickened_torus(s0, Slope(-1)) == n + 1

    def test_lens_examples(self):
        assert count_tight_lens_pq(2, 1) == 1
        for p in range(2, 13):
            assert count_tight_lens_pq(p, 1) == p - 1
        # the all -2 chain gives the unique tight structure
        assert count_tight_lens_pq(3, 2) == 1

    def test_lens_counts_match_continued_fraction_product(self):
        # Honda's |(r_0 + 1) ... (r_k + 1)| over -p/q = [r_0, ..., r_k], the
        # count on the vertex-by-vertex path and the regular-fraction oracle,
        # on all 1085 pairs p < 60
        pairs = [(p, q) for p in range(2, 60) for q in range(1, p) if math.gcd(p, q) == 1]
        assert len(pairs) == 1085
        for p, q in pairs:
            expected = 1
            for c in neg_cf_terms(Fraction(-p, q)):
                expected *= abs(c + 1)
            path = minimal_path_vertexwise(Slope(-p, q), Slope(0))
            assert sign_class_count(path, {0, len(path) - 2}) == expected
            assert count_tight_lens_pq(p, q) == expected
            assert honda_lens_count(p, q) == expected

    def test_lens_general_form(self):
        assert count_tight_lens(Slope(-3), Slope(0)) == 2
        with pytest.raises(ValueError):
            count_tight_lens(Slope(-3), Slope(-3))

    def test_neighbours_give_the_three_sphere(self):
        # |det| = 1 collapses to S^3, which has one tight structure: the
        # path's single edge is both first and last, and stays unsigned
        assert count_tight_lens(Slope(-1), Slope(0)) == 1
        assert count_tight_lens(INFINITY, Slope(0)) == 1
        assert count_tight_lens(Slope(-2), Slope(-1)) == 1
        pairs = [(a, b) for a in SMALL_SLOPES for b in SMALL_SLOPES
                 if a != b and is_edge(a, b)]
        assert any(INFINITY in pair for pair in pairs)
        for a, b in pairs:
            path = minimal_path_vertexwise(a, b)
            assert len(path) == 2
            assert count_tight_lens(a, b) == sign_class_count(path, {0, len(path) - 2}) == 1

    @given(a=st.sampled_from(SMALL_SLOPES), b=st.sampled_from(SMALL_SLOPES),
           direction=st.sampled_from((CLOCKWISE, ANTICLOCKWISE)))
    @settings(max_examples=300, deadline=None)
    def test_counts_match_vertexwise_paths(self, a, b, direction):
        if a == b:
            return
        path = minimal_path_vertexwise(a, b, direction)
        last = len(path) - 2
        assert count_tight_solid_torus(a, b, direction) == sign_class_count(path, {0})
        if direction == CLOCKWISE:
            assert count_tight_thickened_torus(a, b) == sign_class_count(path, set())
            assert count_tight_lens(a, b) == sign_class_count(path, {0, last})

    @given(p=st.integers(10**99, 10**100), q=st.integers(1, 10**100))
    @settings(max_examples=300, deadline=None)
    def test_lens_counts_match_honda_at_hundred_digits(self, p, q):
        q %= p
        if math.gcd(p, q) != 1:
            return
        assert count_tight_lens_pq(p, q) == honda_lens_count(p, q)

    def test_lens_pq_builds_no_slope_and_no_block(self, monkeypatch):
        built = []
        slope_init = Slope.__init__

        def counted_slope(self, *args):
            built.append("Slope")
            slope_init(self, *args)

        def counted_block(cls, *args):
            built.append("FareyBlock")
            return tuple.__new__(cls, args)

        monkeypatch.setattr(Slope, "__init__", counted_slope)
        monkeypatch.setattr(FareyBlock, "__new__", counted_block)
        # the counters see what the general routes build
        minimal_path_blocks(Slope(-7, 3), Slope(0))
        assert "Slope" in built and "FareyBlock" in built
        built.clear()
        for p, q in ((2, 1), (7, 3), (200001, 1), (10**12, 10**12 - 1), (10**30 + 1, 10**15)):
            assert count_tight_lens_pq(p, q) == honda_lens_count(p, q)
        assert built == []


HUGE_SLOPES = st.builds(lambda n, d: Slope(n, d) if d else INFINITY,
                        st.integers(-10**100, 10**100), st.integers(0, 10**100))


class TestEdgeReader:
    @given(a=HUGE_SLOPES, b=HUGE_SLOPES, direction=st.sampled_from((CLOCKWISE, ANTICLOCKWISE)))
    @settings(max_examples=300, deadline=None)
    def test_edge_counts_are_the_blocks(self, a, b, direction):
        if a == b:
            return
        for x, y in ((a, b), (b, a)):
            blocks = minimal_path_blocks(x, y, direction)
            assert _edges(x, y, direction) == [blk.edges for blk in blocks]

    def test_infinity_ends(self):
        for s in (Slope(-5, 2), Slope(0), Slope(10**100 + 1, 10**100)):
            for direction in (CLOCKWISE, ANTICLOCKWISE):
                assert _edges(INFINITY, s, direction) == \
                    [blk.edges for blk in minimal_path_blocks(INFINITY, s, direction)]
                assert _edges(s, INFINITY, direction) == \
                    [blk.edges for blk in minimal_path_blocks(s, INFINITY, direction)]


class TestSerialization:
    def test_round_trip(self):
        p = DecoratedFareyPath((Slope(-5, 2), Slope(-2), Slope(-1), Slope(0)),
                               (None, 1, -1))
        data = p.to_json()
        assert data["signs"] == "?+-"
        assert DecoratedFareyPath.from_json(data) == p
