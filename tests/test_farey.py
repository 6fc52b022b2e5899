import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsurg.farey import (
    ANTICLOCKWISE,
    CLOCKWISE,
    DecoratedFareyPath,
    _det,
    cf_blocks,
    count_tight_lens,
    count_tight_lens_pq,
    count_tight_solid_torus,
    count_tight_thickened_torus,
    decorated_path_key,
    in_clockwise_arc,
    is_edge,
    minimal_path,
    shorten,
    sign_class_count,
)
from contactsurg.slopes import INFINITY, Slope, neg_cf_expand
from oracles import minimal_path_bfs, raw_sign_count


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
        for p in range(2, 13):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                expected = 1
                for c in neg_cf_expand(Fraction(-p, q)):
                    expected *= abs(c + 1)
                assert count_tight_lens_pq(p, q) == expected

    def test_lens_general_form(self):
        assert count_tight_lens(Slope(-3), Slope(0)) == 2
        with pytest.raises(ValueError):
            count_tight_lens(Slope(-3), Slope(-3))


class TestSerialization:
    def test_round_trip(self):
        p = DecoratedFareyPath((Slope(-5, 2), Slope(-2), Slope(-1), Slope(0)),
                               (None, 1, -1))
        data = p.to_json()
        assert data["signs"] == "?+-"
        assert DecoratedFareyPath.from_json(data) == p
