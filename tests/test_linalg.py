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
        assert linalg.char_poly([[1, 0], [0, 1]]) == [1, -2, 1]

    def test_chain_two(self):
        # E_1 = -4, E_2 = 3 for the 2 x 2 chain
        assert linalg.char_poly(chain_matrix(2)) == [1, 4, 3]

    def test_constant_term_is_signed_determinant(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, -5, 5)
            coeffs = linalg.char_poly(m)
            assert coeffs[-1] == (-1) ** n * linalg.determinant(m)

    def test_minors_equal_interpolation(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, -6, 6)
            assert linalg.char_poly(m) == linalg.char_poly_interpolate(m)


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

    def test_zero_diagonal_handling(self):
        # congruence diagonalization must survive all-zero diagonals
        m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert linalg.determinant(m) == 2
        assert linalg.congruence_signature(m) == linalg.descartes_signature(m) == -1
