import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from contactsurg import linalg
from contactsurg.closedforms import (
    bordered_block_matrix,
    chain_matrix,
    chain_matrix_primed,
    tb2_positive_matrix,
    tbk_two_matrix,
)
from contactsurg.surgery import LegendrianData, convert, linking_matrix
from oracles import char_poly_interpolate, char_poly_minors


def random_matrix(rng, n, lo=-9, hi=9, symmetric=False):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m[i][j] = rng.randint(lo, hi)
    if symmetric:
        for i in range(n):
            for j in range(i):
                m[j][i] = m[i][j]
    return m


def det_reference(rows):
    """Plain rational Gaussian elimination, as an independent oracle."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        det *= a[k][k]
        for r in range(k + 1, n):
            if a[r][k]:
                f = a[r][k] / a[k][k]
                for j in range(k, n):
                    a[r][j] -= f * a[k][j]
    value = sign * det
    assert value.denominator == 1
    return value.numerator


class TestDeterminant:
    def test_small_cases(self):
        assert linalg.determinant([]) == 1
        assert linalg.determinant([[7]]) == 7
        assert linalg.determinant([[0, -1], [-1, 0]]) == -1

    def test_chain_determinants(self):
        for n in range(1, 51):
            assert linalg.determinant(chain_matrix(n)) == (-1) ** n * (n + 1)
        for n in range(2, 30):
            assert linalg.determinant(chain_matrix_primed(n)) == \
                -linalg.determinant(chain_matrix(n - 1))
        assert linalg.determinant(chain_matrix_primed(1)) == -1

    def test_against_reference(self):
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(1, 7)
            m = random_matrix(rng, n)
            assert linalg.determinant(m) == det_reference(m)

    def test_sparse_rows(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(2, 9)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.35:
                        m[i][j] = rng.randint(-5, 5)
            assert linalg.determinant(m) == det_reference(m)


def inverse_entry(rows, i, j):
    """(A^-1)_{ij} from the adjugate columns."""
    det, adj = linalg.adjugate_columns(rows, [j])
    return Fraction(adj[j][i], det)


class TestInverseEntry:
    def test_identity(self):
        ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(4):
                assert inverse_entry(ident, i, j) == (1 if i == j else 0)

    def test_displayed_three_by_three_inverse(self):
        for n in range(1, 8):
            m = tb2_positive_matrix(n)
            expected = [[4 * n + 3, -2 * (n + 1), 2],
                        [-2 * (n + 1), n + 1, -1],
                        [2, -1, 0]]
            for i in range(3):
                for j in range(3):
                    assert inverse_entry(m, i, j) == expected[i][j]

    def test_bordered_chain_entry(self):
        # tb = -2 family: top-left inverse entry is 3 - 4n
        from contactsurg.closedforms import tb2_negative_matrix
        for n in range(2, 9):
            assert inverse_entry(tb2_negative_matrix(n), 0, 0) == 3 - 4 * n

    def test_assembled_inverse_multiplies_to_identity(self):
        rng = random.Random(12)
        done = 0
        while done < 40:
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, -4, 4)
            if linalg.determinant(m) == 0:
                continue
            done += 1
            inv = [[inverse_entry(m, i, j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    s = sum(Fraction(m[i][k]) * inv[k][j] for k in range(n))
                    assert s == (1 if i == j else 0)

    def test_singular_rejected(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.adjugate_columns([[1, 1], [1, 1]], [0])


class TestSolve:
    def test_solve_linear_matches_inverse(self):
        # x = adj(A) b / det(A) solves A x = b
        rng = random.Random(3)
        done = 0
        while done < 60:
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, -6, 6)
            if linalg.determinant(m) == 0:
                continue
            done += 1
            b = [rng.randint(-5, 5) for _ in range(n)]
            det, adj = linalg.adjugate_columns(m, range(n))
            x = [Fraction(sum(adj[c][i] * b[c] for c in range(n)), det) for i in range(n)]
            for i in range(n):
                assert sum(Fraction(m[i][k]) * x[k] for k in range(n)) == b[i]

    def test_solve_columns(self):
        # A adj(A) = det(A) I, column by column
        rng = random.Random(8)
        done = 0
        while done < 60:
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, -6, 6)
            if linalg.determinant(m) == 0:
                continue
            done += 1
            cols = sorted(rng.sample(range(n), rng.randint(1, n)))
            det, adj = linalg.adjugate_columns(m, cols)
            assert det == linalg.determinant(m)
            for c in cols:
                for i in range(n):
                    s = sum(m[i][k] * adj[c][k] for k in range(n))
                    assert s == (det if i == c else 0)

    def test_inverse_quadratic(self):
        rng = random.Random(5)
        done = 0
        while done < 60:
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, -6, 6, symmetric=True)
            if linalg.determinant(m) == 0:
                continue
            done += 1
            r = [rng.choice((0, rng.randint(-4, 4))) for _ in range(n)]
            support = [i for i, x in enumerate(r) if x]
            value = linalg.inverse_quadratic(*linalg.adjugate_columns(m, support), r)
            expected = sum(r[i] * inverse_entry(m, i, j) * r[j]
                           for i in range(n) for j in range(n))
            assert value == expected


def square_matrices(max_n=7):
    """Random integer matrices up to max_n x max_n; small entries and many
    zeros make singular matrices and row swaps common."""
    entries = st.one_of(st.just(0), st.integers(-6, 6))
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


class TestKernelAgainstSympy:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_determinant_and_adjugate(self, m):
        ref = sympy.Matrix(m)
        det = ref.det()
        assert linalg.determinant(m) == det
        n = len(m)
        if det == 0:
            with pytest.raises(linalg.SingularMatrixError):
                linalg.adjugate_columns(m, range(n))
            return
        got_det, adj = linalg.adjugate_columns(m, range(n))
        assert got_det == det
        ref_adj = DomainMatrix.from_Matrix(ref).adjugate().to_Matrix()
        for c in range(n):
            assert adj[c] == [ref_adj[i, c] for i in range(n)]

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_negative_definite(self, m):
        n = len(m)
        sym = [[m[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        assert linalg.is_negative_definite(sym) == sympy.Matrix(sym).is_negative_definite

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(5))
    def test_negative_definite_positive_cases(self, m):
        # -(B^T B + I) is negative definite: random symmetric matrices
        # rarely are, so this covers the accepting side of the criterion
        n = len(m)
        q = [[-sum(m[k][i] * m[k][j] for k in range(n)) - (i == j)
              for j in range(n)] for i in range(n)]
        assert linalg.is_negative_definite(q)
        assert sympy.Matrix(q).is_negative_definite

    def test_row_swap_cases(self):
        # nonsingular, but the first pivot is zero: a swap is needed
        swap = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        assert linalg.determinant(swap) == sympy.Matrix(swap).det()
        det, adj = linalg.adjugate_columns(swap, [0, 1, 2])
        ref = DomainMatrix.from_Matrix(sympy.Matrix(swap)).adjugate().to_Matrix()
        assert [adj[c] for c in range(3)] == [list(ref.col(c)) for c in range(3)]
        assert not linalg.is_negative_definite(swap)
        assert not linalg.is_negative_definite([[-1, 0], [0, 0]])
        assert linalg.is_negative_definite([])


class TestDefiniteness:
    def test_chain_matrices_negative_definite(self):
        for n in range(1, 11):
            assert linalg.is_negative_definite(chain_matrix(n))

    def test_zero_diagonal_not_definite(self):
        assert not linalg.is_negative_definite([[0, -1], [-1, 0]])

    def test_block_condition(self):
        # a < 0 with ac - b^2 > 0 and a(c+1) - b^2 >= 0 gives definiteness
        for (a, b, c) in [(-1, -2, -5), (-2, 1, -1), (-3, 2, -2)]:
            if a * c - b * b > 0 and a * (c + 1) - b * b >= 0:
                for m in range(1, 8):
                    assert linalg.is_negative_definite(bordered_block_matrix(a, b, c, m))

    def test_sylvester_agrees_with_descartes_definiteness(self):
        rng = random.Random(2026)
        done = 0
        while done < 300:
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, -9, 9, symmetric=True)
            if linalg.determinant(m) == 0:
                continue
            done += 1
            sylvester = linalg.is_negative_definite(m)
            all_negative = linalg.descartes_signature(m) == -n
            assert sylvester == all_negative


class TestCharPoly:
    def test_identity(self):
        assert char_poly_minors([[1, 0], [0, 1]]) == [1, -2, 1]
        assert linalg.char_poly([[1, 0], [0, 1]]) == [1, -2, 1]

    def test_chain_two(self):
        # E_1 = -4, E_2 = 3 for the 2 x 2 chain
        assert char_poly_minors(chain_matrix(2)) == [1, 4, 3]
        assert linalg.char_poly(chain_matrix(2)) == [1, 4, 3]

    def test_constant_term_is_signed_determinant(self):
        # not necessarily symmetric: the route works on any square matrix
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, -5, 5)
            coeffs = char_poly_minors(m)
            assert coeffs[-1] == (-1) ** n * linalg.determinant(m)
            assert linalg.char_poly(m) == coeffs

    def test_minors_equal_interpolation(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, -6, 6)
            assert char_poly_minors(m) == char_poly_interpolate(m)


def graph_matrix(n, edges):
    """Symmetric matrices whose nonzero off-diagonal entries are exactly
    ``edges``, with random weights and diagonal (zero allowed)."""
    weights = st.integers(-5, 5).filter(bool)
    return st.builds(_weighted, st.just(n), st.just(edges),
                     st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                     st.lists(weights, min_size=len(edges), max_size=len(edges)))


def _weighted(n, edges, diagonal, weights):
    m = [[0] * n for _ in range(n)]
    for i, d in enumerate(diagonal):
        m[i][i] = d
    for (i, j), w in zip(edges, weights):
        m[i][j] = m[j][i] = w
    return m


def dense_graphs(max_n):
    return st.integers(0, max_n).flatmap(lambda n: st.lists(
        st.booleans(), min_size=n * n, max_size=n * n).flatmap(
        lambda bits: graph_matrix(n, [(i, j) for i in range(n) for j in range(i)
                                      if bits[i * n + j]])))


def paths(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: graph_matrix(n, [(i, i + 1) for i in range(n - 1)]))


def cycles(max_n):
    return st.integers(3, max_n).flatmap(
        lambda n: graph_matrix(n, [(i, (i + 1) % n) for i in range(n)]))


def pendant_paths(max_clique, max_path):
    """A clique with a path of 1..max_path vertices hung on one of its
    vertices: the shape of a surgery linking matrix."""
    def build(k, length, attach):
        edges = [(i, j) for i in range(k) for j in range(i)]
        chain = [attach % k] + list(range(k, k + length))
        return graph_matrix(k + length, edges + list(zip(chain, chain[1:])))
    return st.tuples(st.integers(1, max_clique), st.integers(1, max_path),
                     st.integers(0, max_clique - 1)).flatmap(lambda t: build(*t))


def _union(a, b):
    n = len(a)
    return ([row + [0] * len(b) for row in a]
            + [[0] * n + row for row in b])


def _relabel(m, order):
    return [[m[i][j] for j in order] for i in order]


def graph_shapes():
    """Symmetric integer matrices of the shapes char_poly distinguishes,
    relabelled at random so leaves and attachments sit anywhere."""
    small = st.one_of(dense_graphs(4), paths(4), cycles(4), pendant_paths(3, 2))
    shapes = st.one_of(
        dense_graphs(7), paths(9), cycles(8), pendant_paths(4, 6),
        st.builds(_union, small, small))
    return shapes.flatmap(lambda m: st.permutations(range(len(m))).map(
        lambda order: _relabel(m, order)))


def sympy_char_poly(m):
    if not m:
        return [1]
    return [int(c) for c in sympy.Matrix(m).charpoly().all_coeffs()]


class TestCharPolyRoute:
    @settings(max_examples=400, deadline=None)
    @given(graph_shapes())
    def test_matches_oracles_and_sympy(self, m):
        coeffs = linalg.char_poly(m)
        assert coeffs == char_poly_minors(m)
        assert coeffs == char_poly_interpolate(m)
        assert coeffs == sympy_char_poly(m)

    @settings(max_examples=100, deadline=None)
    @given(graph_shapes())
    def test_berkowitz_alone(self, m):
        # with no budget for the recursion, the whole matrix goes to Berkowitz
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_PENDANT_BUDGET", 0)
            assert linalg.char_poly(m) == char_poly_interpolate(m)

    def test_too_branched_falls_back(self):
        # a clique with a leaf on every vertex: each peeled leaf doubles the
        # subgraphs, so the recursion gives up and Berkowitz takes over
        k = 10
        m = [[0] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            m[i][i] = -i
            m[i][k + i] = m[k + i][i] = 1 + i % 3
            for j in range(i):
                m[i][j] = m[j][i] = -1
        assert linalg.char_poly(m) == char_poly_interpolate(m)

    def test_linking_matrices(self):
        seen = {}
        for tb in (-1, -2, -3):
            for big_n in range(1, 61):
                contact = Fraction(-1, big_n) - tb
                if contact == 0:
                    continue
                for rot in range(tb + 1, -tb, 2):
                    for pres in convert(LegendrianData(tb, rot), contact):
                        rows = linking_matrix(pres).rows()
                        seen[tuple(map(tuple, rows))] = rows
        assert max(len(m) for m in seen.values()) == 61
        for m in seen.values():
            assert linalg.char_poly(m) == char_poly_interpolate(m)


class TestSignature:
    def test_examples(self):
        for n in range(1, 11):
            assert linalg.signature(chain_matrix(n)) == -n
        assert linalg.signature([[0, -1], [-1, 0]]) == 0
        assert linalg.signature(tbk_two_matrix(3, 1)) == -3  # 5 x 5 case

    def test_singular_rejected(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.signature([[1, 1], [1, 1]])

    def test_methods_agree_on_seeded_corpus(self):
        # criterion corpus: 1000 seeded random symmetric nonsingular matrices
        rng = random.Random(20260809)
        count = 0
        while count < 1000:
            n = rng.randint(1, 8)
            m = random_matrix(rng, n, -9, 9, symmetric=True)
            if linalg.determinant(m) == 0:
                continue
            count += 1
            assert linalg.congruence_signature(m) == linalg.descartes_signature(m)

    def test_methods_agree_at_scale(self):
        # the chain forms behind `d3 --tb -1 --rot 0 --slope -1/400`
        forms = convert(LegendrianData(-1, 0), Fraction(-1, 400) + 1)
        assert forms
        for pres in forms:
            rows = linking_matrix(pres).rows()
            assert len(rows) == 400
            assert linalg.congruence_signature(rows) == linalg.descartes_signature(rows)

    def test_zero_diagonal_handling(self):
        # congruence diagonalization must survive all-zero diagonals
        m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert linalg.determinant(m) == 2
        assert linalg.congruence_signature(m) == linalg.descartes_signature(m) == -1
