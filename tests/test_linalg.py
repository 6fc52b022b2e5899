import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from contactsurg import closedforms, linalg, regressions
from contactsurg.invariants import d3_records, d3_spectrum
from contactsurg.slopes import SlopeError
from contactsurg.surgery import LegendrianData, _presentation
from oracles import (
    adjugate_quadratic,
    band,
    bordered_block_matrix,
    chain_matrix,
    chain_matrix_primed,
    char_poly,
    check_symmetric,
    determinant,
    eliminate,
    listed_convert,
    listed_linking_matrix,
    path_kernel,
    read,
    sparse,
    tb2_negative_matrix,
    tb2_positive_matrix,
    tbk_two_matrix,
)


def random_matrix(rng, n, lo=-9, hi=9, symmetric=False):
    m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    # symmetric: the entries below the diagonal copied above it
    return [[m[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)] if symmetric else m


def nonsingular(seed, count, max_n, bound):
    """(rng, m) for ``count`` seeded random symmetric matrices m of size
    n <= max_n, entries in -bound..bound and det != 0, with the generator
    rng that drew them, for a test that draws more."""
    rng = random.Random(seed)
    while count:
        m = random_matrix(rng, rng.randint(1, max_n), -bound, bound, symmetric=True)
        if determinant(sparse(m)):
            count -= 1
            yield rng, m


def sympy_det(m):
    return sympy.Matrix(m).det() if m else 1


class TestDeterminant:
    def test_small_cases(self):
        assert determinant(sparse([])) == 1
        assert determinant(sparse([[7]])) == 7
        assert determinant(sparse([[0, -1], [-1, 0]])) == -1

    def test_chain_determinants(self):
        for n in range(1, 51):
            assert determinant(chain_matrix(n)) == (-1) ** n * (n + 1)
        for n in range(2, 30):
            assert determinant(chain_matrix_primed(n)) == \
                -determinant(chain_matrix(n - 1))
        assert determinant(chain_matrix_primed(1)) == -1

    def test_against_reference(self):
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(1, 7)
            m = random_matrix(rng, n)
            assert determinant(sparse(m)) == sympy_det(m)

    def test_sparse_rows(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(2, 9)
            m = [[rng.randint(-5, 5) if rng.random() < 0.35 else 0 for _ in range(n)]
                 for _ in range(n)]
            assert determinant(sparse(m)) == sympy_det(m)


@st.composite
def banded_matrices(draw):
    """Dense banded n x n matrices, n <= 12, with independent upper and
    lower links, so most are asymmetric; entries in -3..3 with extra
    zeros make zero links, zero diagonals and singular leading blocks
    common."""
    entries = st.one_of(st.just(0), st.integers(-3, 3))
    n = draw(st.integers(0, 12))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(entries)
        if i:
            m[i][i - 1], m[i - 1][i] = draw(entries), draw(entries)
    return m


def leading_block(rows, i):
    """The sparse rows of the leading i x i block of sparse ``rows``."""
    return [{j: x for j, x in row.items() if j < i} for row in rows[:i]]


class TestLeadingDeterminants:
    @settings(max_examples=300, deadline=None)
    @given(banded_matrices())
    def test_each_entry_is_the_oracle_determinant_of_its_block(self, m):
        rows = sparse(m)
        dets = linalg.leading_determinants(*band(rows))
        assert dets == [determinant(leading_block(rows, i)) for i in range(len(m) + 1)]

    def test_singular_prefix_and_one_way_links(self):
        # D_2 = 1 - 1 * 1 = 0, then D_3 = 2 D_2 - (2 * 1) D_1 = -2
        m = [[1, 1, 0], [1, 1, 1], [0, 2, 2]]
        assert linalg.leading_determinants(*band(sparse(m))) == [1, 1, 0, -2]
        # the link product is a_10 a_01 = 0 * 1, not a_01^2 = 1
        assert band(sparse([[1, 1], [0, 1]])) == ([1, 1], [0])
        assert linalg.leading_determinants([1, 1], [0]) == [1, 1, 1]
        assert linalg.leading_determinants([], []) == [1]

    def test_lemma_families(self):
        chain = linalg.leading_determinants(*band(chain_matrix(50)))
        primed = linalg.leading_determinants(*band(chain_matrix_primed(50)))
        for n in range(1, 51):
            assert chain[n] == determinant(chain_matrix(n)) == (-1) ** n * (n + 1)
            assert primed[n] == determinant(chain_matrix_primed(n)) == (-1) ** n * n
        for a, b, c in itertools.product(range(-3, 4), repeat=3):
            dets = linalg.leading_determinants(*band(bordered_block_matrix(a, b, c, 6)))
            assert dets[3:] == [determinant(bordered_block_matrix(a, b, c, m)) for m in range(1, 7)]


def dense_rows(rows):
    """The dense rows of sparse ``rows`` of any shape, one-way links too."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


def adjugate_rows(rows, support):
    """``linalg.adjugate_block`` of sparse ``rows``, read into a path by
    ``read``."""
    return linalg.adjugate_block(read(rows), support)


def inverse_entry(rows, i, j, adjugate=adjugate_rows):
    """(A^-1)_{ij} from the whole adjugate that ``adjugate`` gives."""
    det, _, adj = adjugate(sparse(rows), range(len(rows)))
    return Fraction(adj[i][j], det)


def oracle_block(rows, support):
    """``adjugate_block``'s contract from the oracle's sparse Bareiss
    elimination, for shapes the path kernel does not take: det, sigma and
    adj[S, S], and SingularMatrixError at det 0."""
    det, sigma, block = eliminate(rows, support)
    if det == 0:
        raise linalg.SingularMatrixError("matrix is singular")
    return det, sigma, block


def head(rows):
    """The head size h that ``read`` reads off sparse ``rows``."""
    return read(rows)[2]


def reduced(rows):
    """(det, signature) of symmetric sparse ``rows`` from ``linalg._reduce``
    alone: num / den, and Descartes on the reduced chi less the runs
    dropped, or None at det 0."""
    removed, num, den, coeffs = linalg._reduce(*read(rows))
    return Fraction(num, den), linalg._descartes(coeffs) - removed if num else None


def kernel_shape(m):
    """Whether the path kernel takes m: a path, or a clique head with a
    path hung on its last row."""
    try:
        head(sparse(m))
    except ValueError:
        return False
    return True


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
        for n in range(2, 9):
            assert inverse_entry(tb2_negative_matrix(n), 0, 0) == 3 - 4 * n

    def test_assembled_inverse_multiplies_to_identity(self):
        for _, m in nonsingular(12, 40, 5, 4):
            n = len(m)
            inv = [[inverse_entry(m, i, j, oracle_block) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    s = sum(Fraction(m[i][k]) * inv[k][j] for k in range(n))
                    assert s == (1 if i == j else 0)

    def test_singular_rejected(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.adjugate_block(read(sparse([[1, 1], [1, 1]])), range(2))


class TestSolve:
    def test_solve_linear_matches_inverse(self):
        # x = adj(A) b / det(A) solves A x = b
        for rng, m in nonsingular(3, 60, 6, 6):
            n = len(m)
            b = [rng.randint(-5, 5) for _ in range(n)]
            det, _, adj = oracle_block(sparse(m), range(n))
            x = [Fraction(sum(adj[i][c] * b[c] for c in range(n)), det) for i in range(n)]
            for i in range(n):
                assert sum(Fraction(m[i][k]) * x[k] for k in range(n)) == b[i]

    def test_solve_columns(self):
        # A adj(A) = det(A) I, column by column
        for _, m in nonsingular(8, 60, 6, 6):
            n = len(m)
            det, _, adj = oracle_block(sparse(m), range(n))
            assert det == determinant(sparse(m))
            for c in range(n):
                for i in range(n):
                    s = sum(m[i][k] * adj[k][c] for k in range(n))
                    assert s == (det if i == c else 0)

    def test_inverse_quadratic(self):
        for rng, m in nonsingular(5, 60, 6, 6):
            n = len(m)
            r = [rng.choice((0, rng.randint(-4, 4))) for _ in range(n)]
            support = [i for i, x in enumerate(r) if x]
            det, _, block = oracle_block(sparse(m), support)
            value = Fraction(adjugate_quadratic(block, support, r), det)
            expected = sum(r[i] * inverse_entry(m, i, j, oracle_block) * r[j]
                           for i in range(n) for j in range(n))
            assert value == expected


def symmetric_with_vector(max_n=6):
    """A random symmetric integer matrix, a vector r, and a sorted index
    list S holding r's support plus some indices where r is zero."""
    def build(n):
        entries = st.one_of(st.just(0), st.integers(-6, 6))
        return st.tuples(
            st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.one_of(st.just(0), st.integers(-5, 5)), min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n))

    def shape(args):
        m, r, extra = args
        n = len(m)
        sym = [[m[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        support = [i for i in range(n) if r[i] or extra[i]]
        return sym, r, support

    return st.integers(1, max_n).flatmap(build).map(shape)


class TestAdjugateBlock:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_with_vector())
    def test_block_quadratic_matches_sympy_inverse(self, case):
        m, r, support = case
        ref = sympy.Matrix(m)
        if ref.det() == 0:
            with pytest.raises(linalg.SingularMatrixError):
                oracle_block(sparse(m), support)
            return
        det, _, block = oracle_block(sparse(m), support)
        inv = ref.inv()
        assert [list(row) for row in block] == [
            [inv[i, j] * det for j in support] for i in support]
        expected = (sympy.Matrix([r]) * inv * sympy.Matrix(r))[0, 0]
        assert Fraction(adjugate_quadratic(block, support, r), det) == expected
        n = len(m)
        assert expected == sum(r[i] * inverse_entry(m, i, j, oracle_block) * r[j]
                               for i in range(n) for j in range(n))

    @settings(max_examples=100, deadline=None)
    @given(symmetric_with_vector(), st.data())
    def test_vector_off_the_support_raises(self, case, data):
        m, r, support = case
        if determinant(sparse(m)) == 0 or not support:
            return
        dropped = data.draw(st.sampled_from(support))
        rest = [i for i in support if i != dropped]
        _, _, block = oracle_block(sparse(m), rest)
        off = list(r)
        off[dropped] = data.draw(st.integers(1, 5))
        with pytest.raises(ValueError):
            adjugate_quadratic(block, rest, off)
        with pytest.raises(ValueError):
            adjugate_quadratic(block, rest, tuple(off))


def square_matrices(max_n=7):
    """Random integer matrices up to max_n x max_n; small entries and many
    zeros make singular matrices and row swaps common."""
    entries = st.one_of(st.just(0), st.integers(-6, 6))
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def negative_definite(m):
    """Negative definiteness as verify's block lemma reads it: det != 0
    and the signature ``adjugate_block`` checks is -n."""
    rows = sparse(m)
    return determinant(rows) != 0 and linalg.adjugate_block(read(rows), ())[1] == -len(m)


def kernel_negative_definite(m):
    """det != 0 and signature -n from the oracle's elimination alone."""
    det, sigma, _ = eliminate(sparse(m))
    return det != 0 and sigma == -len(m)


class TestDefiniteness:
    def test_chain_matrices_negative_definite(self):
        for n in range(1, 11):
            assert negative_definite(linalg.dense(read(chain_matrix(n))))

    def test_zero_diagonal_not_definite(self):
        assert not negative_definite([[0, -1], [-1, 0]])

    def test_block_condition(self):
        # a < 0 with ac - b^2 > 0 and a(c+1) - b^2 >= 0 gives definiteness
        for (a, b, c) in [(-1, -2, -5), (-2, 1, -1), (-3, 2, -2)]:
            if a * c - b * b > 0 and a * (c + 1) - b * b >= 0:
                for m in range(1, 8):
                    assert negative_definite(
                        linalg.dense(read(bordered_block_matrix(a, b, c, m))))

    def test_sylvester_agrees_with_descartes_definiteness(self):
        for _, m in nonsingular(2026, 300, 6, 9):
            n = len(m)
            sylvester = kernel_negative_definite(m)
            all_negative = linalg._descartes(char_poly(sparse(m))) == -n
            assert sylvester == all_negative


class TestCharPoly:
    def test_identity(self):
        assert char_poly(sparse([[1, 0], [0, 1]])) == [1, -2, 1]
        assert reduced(sparse([[1, 0], [0, 1]])) == (1, 2)

    def test_chain_two(self):
        # E_1 = -4, E_2 = 3 for the 2 x 2 chain, which the library drops as
        # one run of two framings -2: det 3 and signature -2
        assert char_poly(chain_matrix(2)) == [1, 4, 3]
        assert reduced(chain_matrix(2)) == (3, linalg._descartes([1, 4, 3])) == (3, -2)

    def test_constant_term_is_signed_determinant(self):
        # not necessarily symmetric: Berkowitz takes any square matrix
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, -5, 5)
            coeffs = char_poly(sparse(m))
            assert coeffs == sympy_char_poly(m)
            assert coeffs[-1] == (-1) ** n * sympy_det(m)


def assert_reduced(m, coeffs):
    """``reduced`` of symmetric m, where m is a shape the path kernel takes,
    is det m = (-1)^n chi(0) and, at det != 0, the Descartes signature of
    chi = ``coeffs`` (descending); ``read`` refuses the other shapes."""
    if kernel_shape(m):
        det = (-1) ** len(m) * coeffs[-1]
        assert reduced(sparse(m)) == (det, linalg._descartes(coeffs) if det else None)


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
    """Symmetric integer matrices of the shapes char_poly tells apart:
    as built, where paths, pendant paths and the second part of a union
    come last, as the meridian chain does in a linking matrix, and
    relabelled at random so leaves and attachments sit anywhere."""
    small = st.one_of(dense_graphs(4), paths(4), cycles(4), pendant_paths(3, 2))
    shapes = st.one_of(
        dense_graphs(7), paths(9), cycles(8), pendant_paths(4, 6),
        st.builds(_union, small, small))
    return st.one_of(shapes, shapes.flatmap(lambda m: st.permutations(range(len(m))).map(
        lambda order: _relabel(m, order))))


def _key(pres):
    """The dense rows of the presentation ``pres`` as a tuple of tuples, a
    dict key."""
    return tuple(map(tuple, linalg.dense(pres.path)))


def linking_forms(cases):
    """{Q: push-off count} over the linking matrices of contact r-surgery
    on (tb, rot) for each (tb, rot, r) of ``cases``."""
    forms = {}
    for tb, rot, contact in cases:
        pres = _presentation(LegendrianData(tb, rot), *Fraction(contact).as_integer_ratio())
        forms[_key(pres)] = pres.pinned.count(1)
    return forms


# smooth slopes -1/N, N <= 60, at tb = -1, -2, -3 and every rotation number
CHAIN_CASES = [(tb, rot, Fraction(-1, big_n) - tb) for tb in (-1, -2, -3)
               for big_n in range(1, 61) if Fraction(-1, big_n) != tb
               for rot in range(tb + 1, -tb, 2)]


def sympy_char_poly(m):
    if not m:
        return [1]
    return [int(c) for c in sympy.Matrix(m).charpoly().all_coeffs()]


class TestCharPolyRoute:
    @settings(max_examples=400, deadline=None)
    @given(graph_shapes())
    def test_matches_oracles_and_sympy(self, m):
        coeffs = char_poly(sparse(m))
        assert coeffs == sympy_char_poly(m)
        assert_reduced(m, coeffs)

    @settings(max_examples=200, deadline=None)
    @given(graph_shapes(), st.randoms(use_true_random=False))
    def test_one_sided_entries(self, m, rng):
        # a[i][j] != 0 with a[j][i] == 0 still joins i and j in the graph
        for i in range(len(m)):
            for j in range(i):
                if m[i][j] and rng.random() < 0.7:
                    if rng.random() < 0.5:
                        m[i][j] = 0
                    else:
                        m[j][i] = 0
        assert char_poly(sparse(m)) == sympy_char_poly(m)

    def test_clique_with_a_leaf_on_every_vertex(self):
        # every leaf hangs on a clique vertex, so no row at the end is
        # banded: Berkowitz takes the whole matrix, and the library, whose
        # head must be a clique, never sees it
        k = 10
        m = [[0] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            m[i][i] = -i
            m[i][k + i] = m[k + i][i] = 1 + i % 3
            for j in range(i):
                m[i][j] = m[j][i] = -1
        assert char_poly(sparse(m)) == sympy_char_poly(m)
        assert not path_shape(m) and not kernel_shape(m)

    def test_linking_matrices(self):
        forms = linking_forms(CHAIN_CASES)
        assert max(map(len, forms)) == 61
        for m in forms:
            assert reduced(sparse(m)) == eliminate(sparse(m))[:2]

    def test_route_guard(self):
        # the determinant lemma sees at most the push-offs of a linking
        # matrix, and nothing of a lemma matrix; the run reduction leaves a
        # polynomial of one degree for each row it keeps
        forms = linking_forms(CHAIN_CASES + [(-1, 0, Fraction(r)) for r in ("1/3", "3/4", "1/20")])
        for m, pushoffs in forms.items():
            path = read(sparse(m))
            removed, _, _, coeffs = linalg._reduce(*path)
            assert path.h <= pushoffs and len(coeffs) - 1 + removed == len(m), (len(m), pushoffs)
        for n in range(1, 51):
            assert read(chain_matrix(n)).h == 0
            assert linalg._reduce(*read(chain_matrix(n)))[::3] == (n, [1])
        for a, b, c, m in itertools.product(range(-3, 4), range(-3, 4), range(-3, 4), range(1, 7)):
            assert read(bordered_block_matrix(a, b, c, m)).h == 0


class TestRunStep:
    """A run of -2 framings joined by links of square 1, which
    ``linalg._reduce`` drops by one Schur complement."""

    def test_run_against_steps(self):
        # a run of r framings -2 between two rows of any diagonal, joined
        # to them by links of any size: the reduction's det and signature
        # are the elimination's, one row at a time
        rng = random.Random(29)
        for r in range(1, 81):
            a = [rng.randint(-5, 5)] + [-2] * r + [rng.randint(-5, 5)]
            b = [rng.randint(-3, 3)] + [rng.choice((1, -1)) for _ in range(r - 1)]
            b.append(rng.randint(-3, 3))
            m = [[0] * (r + 2) for _ in range(r + 2)]
            for i, x in enumerate(a):
                m[i][i] = x
            for i, x in enumerate(b):
                m[i][i + 1] = m[i + 1][i] = x
            assert reduced(sparse(m)) == eliminate(sparse(m))[:2]

    def test_long_chain_signature(self):
        # the meridian chain of -1/1600 is one run of -2 framings
        forms = closedforms.DEFAULT_FORMS
        plan = d3_records(LegendrianData(-1, 0), Fraction(-1, 1600))[0]
        assert plan.sigma == forms["tb1_neg_sigma"](1600) == -1598
        rows = sparse(linalg.dense(plan.presentation.path))
        assert path_kernel(rows)[1] == eliminate(rows)[1] == -1598
        assert reduced(rows) == (plan.det, -1598)


class TestSignature:
    def test_examples(self):
        for n in range(1, 11):
            assert linalg.adjugate_block(read(chain_matrix(n)), ())[1] == -n
        assert linalg.adjugate_block(read(sparse([[0, -1], [-1, 0]])), ())[1] == 0
        assert linalg.adjugate_block(read(sparse(tbk_two_matrix(3, 1))), ())[1] == -3  # 5 x 5 case

    def test_singular_rejected(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.adjugate_block(read(sparse([[1, 1], [1, 1]])), ())

    def test_disagreement_raises(self, monkeypatch):
        # a wrong Descartes half stops every caller of the one kernel pass
        rows = ((-7919, 1), (1, -3))
        monkeypatch.setattr(linalg, "_descartes", lambda coeffs: 2)
        with pytest.raises(linalg.SignatureMismatchError):
            linalg.adjugate_block(read(sparse(rows)), (0,))
        with pytest.raises(linalg.SignatureMismatchError):
            linalg.adjugate_block(read(sparse(rows)), ())
        with pytest.raises(linalg.SignatureMismatchError):
            d3_spectrum(LegendrianData(-2, 1), Fraction(-1, 3))

    def test_lemma_blocks_read_the_checked_signature(self, monkeypatch):
        # with no family plan run, only verify's block_negdef checks reach
        # a signature; the first is a 3 x 3 block (a, b, c, m = -3, -2, -3, 1)
        monkeypatch.setattr(linalg, "_descartes", lambda coeffs: 0)
        monkeypatch.setattr(closedforms, "_family", lambda *args, **kwargs: [])
        # the block's -2 framing at the end is a run of 1, which the check subtracts
        with pytest.raises(linalg.SignatureMismatchError,
                           match="diagonalization=-3 descartes=-1$"):
            regressions.verify(3, 1)

    def test_methods_agree_on_seeded_corpus(self):
        # criterion corpus: 1000 seeded random symmetric nonsingular matrices
        for _, m in nonsingular(20260809, 1000, 8, 9):
            assert eliminate(sparse(m))[1] == linalg._descartes(char_poly(sparse(m)))

    def test_methods_agree_at_scale(self):
        # the chain forms behind `d3 --tb -1 --rot 0 --slope -1/400`
        forms = listed_convert(LegendrianData(-1, 0), Fraction(-1, 400) + 1)
        assert forms
        for pres in forms:
            rows = listed_linking_matrix(pres).rows
            assert len(rows) == 400
            assert path_kernel(rows)[1] == eliminate(rows)[1] == \
                linalg.adjugate_block(read(rows), ())[1]

    def test_zero_diagonal_handling(self):
        # congruence diagonalization must survive all-zero diagonals
        m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert determinant(sparse(m)) == 2
        assert path_kernel(sparse(m))[1] == eliminate(sparse(m))[1] == \
            linalg._descartes(char_poly(sparse(m))) == -1


def zero_diagonal(m):
    return [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]


def with_dependent_row(m):
    """m bordered by a copy of its last row and column: det = 0."""
    return [row + [row[-1]] for row in m] + [m[-1] + [m[-1][-1]]] if m else m


def clique(tb, diagonal, path):
    """tb*J + D on len(diagonal) push-offs, with a meridian path of
    diagonal entries ``path`` hung on the last one by -1 links."""
    k = len(diagonal)
    n = k + len(path)
    m = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            m[i][j] = tb
        m[i][i] = diagonal[i]
    for step, d in enumerate(path):
        i = k + step
        m[i][i] = d
        m[i][i - 1] = m[i - 1][i] = -1
    return m


def congruence_shapes():
    """Symmetric integer matrices for the congruence route: random ones,
    all-zero diagonals, singular ones, and push-off cliques tb*J + D
    with and without a pendant path."""
    symmetric = square_matrices().map(
        lambda m: [[m[max(i, j)][min(i, j)] for j in range(len(m))] for i in range(len(m))])
    cliques = st.builds(clique, st.integers(-4, 4),
                        st.lists(st.integers(-6, 6), min_size=1, max_size=7),
                        st.lists(st.integers(-5, 1), max_size=5))
    return st.one_of(symmetric, symmetric.map(zero_diagonal), graph_shapes().map(zero_diagonal),
                     symmetric.map(with_dependent_row), cliques, graph_shapes())


def sympy_signature(m):
    """Signature from sympy's characteristic polynomial: Sturm counts of
    the positive and the negative roots of each square-free factor."""
    if not m:
        return 0
    pos = neg = 0
    for factor, power in sympy.Matrix(m).charpoly().sqf_list()[1]:
        pos += power * factor.count_roots(0, None)
        neg += power * factor.count_roots(None, 0)
    assert pos + neg == len(m)
    return pos - neg


@st.composite
def run_shapes(draw):
    """A path, or a clique head of 3..6 rows with one link c and a path
    hung on its last row, where the path rows are runs of 0..6 framings
    -2, each between rows of another diagonal (0 and -2 common).  Links in
    a run are +-1 or, less often, 0 or 2, which splits it; other links are
    often 0.  Runs at index 0, at the end and next to the head, and two -2
    rows joined by a link whose square is not 1, are all common."""
    h = draw(st.sampled_from([0, 0, 3, 4, 6]))
    c = draw(st.sampled_from([1, -1, 2, -3]))
    diag, links = [], []  # links[v]: the link from path row v to the row before
    for run, other in draw(st.lists(st.tuples(
            st.integers(0, 6), st.sampled_from([0, -2, -1, -3, 1, 2, 5])), min_size=1, max_size=5)):
        diag += [-2] * run + [other]
        links += [draw(st.sampled_from([1, -1, 1, -1, 0, 2])) for _ in range(run)]
        links.append(draw(st.sampled_from([0, 1, -1, 2, -2, 3])))
    if draw(st.booleans()):  # end on a run
        diag, links = diag[:-1], links[:-1]
    n = h + len(diag)
    m = [[c if i < h and j < h and i != j else 0 for j in range(n)] for i in range(n)]
    for i in range(h):
        m[i][i] = draw(st.integers(-4, 4))
    for v, (d, w) in enumerate(zip(diag, links), h):
        m[v][v] = d
        if v:
            m[v][v - 1] = m[v - 1][v] = w
    return m


class TestRunReduction:
    """The signature check on the form left when each run of -2 framings
    is dropped by its Schur complement."""

    @settings(max_examples=400, deadline=None)
    @given(run_shapes())
    @example(linalg.dense(read(chain_matrix(6))))  # one run, nothing kept
    @example([[-2, -1, 0, 0, 0], [-1, -2, -1, 0, 0], [0, -1, 3, 1, 0], [0, 0, 1, -2, 1],
              [0, 0, 0, 1, -2]])  # runs at index 0 and at the end
    @example(clique(-1, [0, 0, 0], [-2, -2, -2]))  # a run next to the head
    @example([[-2, 2, 0], [2, -2, -1], [0, -1, -2]])  # -2s joined by a link of square 4
    @example([[-2, 0, 0], [0, 0, 1], [0, 1, -2]])  # a zero link and a zero diagonal
    @example([[-2, 2], [2, -2]])  # singular: det 0, and a run at index 0
    def test_matches_char_poly_and_the_kernel(self, m):
        rows = sparse(m)
        coeffs = char_poly(rows)
        det, sigma = reduced(rows)
        assert det == (-1) ** len(m) * coeffs[-1] == path_kernel(rows)[0]
        if det == 0:
            assert sigma is None is path_kernel(rows)[1]
            with pytest.raises(linalg.SingularMatrixError):
                linalg.adjugate_block(read(rows), ())
        else:
            assert sigma == linalg._descartes(coeffs) == path_kernel(rows)[1]
            assert linalg.adjugate_block(read(rows), ())[:2] == (det, sigma)

    def test_long_chain_spectra(self):
        # the meridian chain of -1/12800 is one run of 12,799 framings -2
        assert d3_spectrum(LegendrianData(-1, 0), Fraction(-1, 12800)) == {1}
        for rot in (1, -1):
            assert d3_spectrum(LegendrianData(-2, rot), Fraction(-1, 12800)) == {1, -25597}


class TestKernelAgainstSympy:
    @settings(max_examples=300, deadline=None)
    @given(congruence_shapes())
    def test_determinant_and_adjugate(self, m):
        n = len(m)
        ref = sympy.Matrix(n, n, [x for row in m for x in row])
        det = ref.det()
        assert determinant(sparse(m)) == det
        if det == 0:
            with pytest.raises(linalg.SingularMatrixError):
                oracle_block(sparse(m), range(n))
            return
        got_det, sigma, adj = oracle_block(sparse(m), range(n))
        assert got_det == det and sigma == sympy_signature(m)
        ref_adj = DomainMatrix.from_Matrix(ref).adjugate().to_Matrix().tolist() if n else []
        assert [list(row) for row in adj] == ref_adj

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_negative_definite(self, m):
        n = len(m)
        sym = [[m[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        assert kernel_negative_definite(sym) == sympy.Matrix(sym).is_negative_definite

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(5))
    def test_negative_definite_positive_cases(self, m):
        # -(B^T B + I) is negative definite: random symmetric matrices
        # rarely are, so this covers the accepting side of the criterion
        n = len(m)
        q = [[-sum(m[k][i] * m[k][j] for k in range(n)) - (i == j)
              for j in range(n)] for i in range(n)]
        assert kernel_negative_definite(q)
        assert sympy.Matrix(q).is_negative_definite

    def test_row_swap_cases(self):
        # nonsingular, with an all-zero diagonal: the first pivot needs a congruence
        swap = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        assert determinant(sparse(swap)) == sympy.Matrix(swap).det()
        det, _, adj = oracle_block(sparse(swap), range(3))
        ref = DomainMatrix.from_Matrix(sympy.Matrix(swap)).adjugate().to_Matrix()
        assert [list(row) for row in adj] == ref.tolist()
        assert not kernel_negative_definite(swap)
        assert not kernel_negative_definite([[-1, 0], [0, 0]])
        assert kernel_negative_definite([])

    @pytest.mark.parametrize("a, b", [
        ([1, 1, 2], [1, 1]),  # thetas 1, 1, 0, -1
        ([0, 0], [1]),  # 1, 0, -1
        ([0, 3, 0, -2], [1, 2, 1]),  # 1, 0, -1, 0, 1
        ([1, 1, 1, 1, 0], [1, 1, 1, 1]),  # 1, 1, 0, -1, -1, 1
        ([-1, -1, -2, 0, 1], [1, 1, 1, 2]),  # 1, -1, 0, 1, 0, -4
    ])
    def test_interior_zero_leading_minors(self, a, b):
        # a zero theta between thetas of opposite sign, read as a sign,
        # gives the kernel sympy's inertia and adjugate
        theta = linalg.leading_determinants(a, [x * x for x in b])
        assert 0 in theta[1:-1] and theta[-1]
        m = linalg.dense(linalg._Path(a, b, 0, 0))
        det, sigma, adj = linalg.adjugate_block(linalg._Path(a, b, 0, 0), range(len(a)))
        ref = sympy.Matrix(m)
        assert (det, sigma) == (ref.det(), sympy_signature(m))
        assert [list(row) for row in adj] == \
            DomainMatrix.from_Matrix(ref).adjugate().to_Matrix().tolist()


class TestCongruence:
    def test_integer_only_and_independent(self, monkeypatch):
        # no Fraction is made, and nothing of the other method's route runs
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))

        def forbidden(*args):
            raise AssertionError("shared helper called")

        for name in ("_reduce", "_descartes"):
            monkeypatch.setattr(linalg, name, forbidden)
        for m in ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], clique(-1, [0] * 6, [-2, -3]),
                  [[0, 1, 0], [1, 2, 0], [0, 0, -1]]):
            path_kernel(sparse(m), range(len(m)))
        with pytest.raises(ValueError, match="neither a path nor a clique head"):
            path_kernel(sparse([[0, 2, 1], [2, 0, 1], [1, 1, 0]]))
        assert made == []
        Fraction(1, 3)
        assert made == [(1, 3)]

    def test_characteristic_route_runs_without_the_kernel(self, monkeypatch):
        # the other direction of independence: the run reduction, Descartes,
        # char_poly and determinant never reach the elimination kernel
        def forbidden(*args):
            raise AssertionError("elimination kernel called")

        monkeypatch.setattr(linalg, "_path_kernel", forbidden)
        for m in ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], clique(-1, [0] * 6, [-2, -3]),
                  linalg.dense(read(chain_matrix(12))), tbk_two_matrix(5, 1)):
            assert reduced(sparse(m)) == (sympy.Matrix(m).det(), sympy_signature(m))
            assert linalg._descartes(char_poly(sparse(m))) == sympy_signature(m)
            assert char_poly(sparse(m)) == sympy_char_poly(m)
            assert determinant(sparse(m)) == sympy.Matrix(m).det()
        for m in (dense_rows(chain_matrix_primed(7)), [[1, 2], [3, 4]]):
            assert char_poly(sparse(m)) == sympy_char_poly(m)
            assert determinant(sparse(m)) == sympy.Matrix(m).det()

    def test_rejects_non_square_and_asymmetric(self):
        with pytest.raises(ValueError, match="square"):
            path_kernel(sparse([[1, 2]]))
        with pytest.raises(ValueError, match="symmetric"):
            path_kernel(sparse([[1, 2], [0, 1]]))

    def test_large_surgery_forms(self):
        # `d3 --tb -1 --rot 0 --slope -1/1600` (a 1600-chain) and
        # `d3 --tb -1 --rot 0 --coeff 1/40` (a 40-clique of push-offs);
        # Descartes on long chains is test_methods_agree_at_scale's
        for coeff, n, sig in ((Fraction(-1, 1600) + 1, 1600, -1598), (Fraction(1, 40), 40, 38)):
            rows = linalg.dense(
                _presentation(LegendrianData(-1, 0), *coeff.as_integer_ratio()).path)
            assert len(rows) == n
            assert path_kernel(sparse(rows))[1] == eliminate(sparse(rows))[1] == sig
            if n < 100:
                assert linalg._descartes(char_poly(sparse(rows))) == sig


def acceptance_forms():
    """{Q: presentation} over the linking forms of the acceptance
    ranges: every smooth slope p/q with -30 <= p < 12 and 1 <= q < 12 at
    -6 <= tb <= -1, and verify's families, slopes +-1/n and +-2/n for
    n <= 20 at -20 <= tb <= -3, wherever the conversion takes them."""
    cases = {(tb, Fraction(p, q)) for tb in range(-6, 0) for p in range(-30, 12)
             for q in range(1, 12)}
    cases |= {(tb, Fraction(s, n)) for tb in range(-20, -2) for s in (1, -1, 2, -2)
              for n in range(1, 21)}
    forms = {}
    for tb, smooth in cases:
        try:
            pres = _presentation(LegendrianData(tb, tb + 1), *(smooth - tb).as_integer_ratio())
        except (SlopeError, ValueError):
            continue
        forms.setdefault(_key(pres), pres)
    return forms


def assert_sparse_matches_dense(m):
    """adjugate_block of sparse(m), on a shape the path kernel takes (the
    others ``read`` refuses, see test_other_shapes_raise), against the
    oracle's elimination: det, signature and the whole adjugate, or
    SingularMatrixError at det 0."""
    if not kernel_shape(m):
        return
    want = eliminate(sparse(m), range(len(m)))
    if want[0] == 0:
        with pytest.raises(linalg.SingularMatrixError):
            adjugate_rows(sparse(m), range(len(m)))
    else:
        assert adjugate_rows(sparse(m), range(len(m))) == want


class TestSparseRows:
    def test_linking_forms_match_the_dense_oracles(self):
        forms = acceptance_forms()
        assert len(forms) > 2000 and max(map(len, forms)) == 38
        for m, pres in forms.items():
            assert read(sparse(m)) == pres.path
            assert_sparse_matches_dense(m)

    @settings(max_examples=200, deadline=None)
    @given(congruence_shapes())
    def test_random_shapes_match_the_dense_oracles(self, m):
        assert_sparse_matches_dense(m)

    @pytest.mark.parametrize("rows, message", [
        ([{-1: 1}, {1: 1}], "square"),  # would wrap around to the last row
        ([{0: 1, 2: 1}, {1: 1}], "square"),  # a key of n
        ([{0: 0}], "square"),  # a stored 0, which the kernel would take as a pivot
        ([{0: 1, 1: 2}, {0: 3, 1: 1}], "symmetric"),
        ([{1: 2}, {}], "symmetric"),
        ([{0: 1, 1: 2}, {1: 1}], "symmetric"),  # [[1, 2], [0, 1]]
        (chain_matrix_primed(3), "symmetric"),  # its one-way link at (0, 1)
        ([{0: 1, 1: 2}, {0: 3, 1: 4}], "symmetric"),
        # the sparse rows of ragged dense rows: [[1, 2]], [[1, 2], [3]] and
        # [[1, 2], [2, 1, 0]]
        ([{0: 1, 1: 2}], "square"),
        ([{0: 1, 1: 2}, {0: 3}], "symmetric"),
        ([{0: 1, 1: 2}, {0: 2, 1: 1, 2: 0}], "square"),
    ])
    def test_the_one_check(self, rows, message):
        for check in (check_symmetric, read, eliminate):
            with pytest.raises(ValueError, match=f"^matrix must be {message}$"):
                check(rows)

    def test_a_pipeline_form_is_checked_once(self):
        # a pipeline form is read off its presentation as a path; rows read
        # into a form's path by the oracle come back from its dense rows
        path = read(chain_matrix(3))
        assert linalg.adjugate_block(path, ()) == adjugate_rows(chain_matrix(3), ())
        rows = check_symmetric(chain_matrix(3))
        assert check_symmetric(rows) == rows == tuple(chain_matrix(3)) == \
            tuple(sparse(linalg.dense(path)))
        for rows in ([], [{0: 1, 1: 2}, {0: 2, 1: 4}]):
            assert check_symmetric(rows) == tuple(rows)

    def test_long_chain_stays_sparse(self):
        # a dense 6400 x 6400 build holds 328 MB in pointers alone
        forms = closedforms.DEFAULT_FORMS
        tracemalloc.start()
        try:
            plan = d3_records(LegendrianData(-1, 0), Fraction(-1, 6400))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.sigma == forms["tb1_neg_sigma"](6400)
        assert plan.det == forms["tb1_neg_det"](6400)
        assert peak < 64 * 2 ** 20, peak


def path_shape(m):
    """Whether dense m is a shape the path kernel takes, read off its
    entries without the library: tridiagonal, or rows 0..h-1 (h >= 3) all
    linked with one value c != 0 and every entry more than one step off
    the diagonal outside that head zero."""
    n = len(m)
    far = [(i, j) for i in range(n) for j in range(n) if abs(i - j) > 1 and m[i][j]]
    if not far:
        return True
    return any(m[0][1] and all(m[i][j] == m[0][1] for i in range(h) for j in range(h) if i != j)
               and all(i < h and j < h for i, j in far) for h in range(3, n + 1))


@st.composite
def kernel_shapes(draw):
    """A path of 1..12 rows, or a clique head of 3..7 rows with one link c
    and a path of 0..6 rows hung on its last row; zero diagonals, zero
    leading minors, zero links (a split, as at tb = 0) and singular forms
    are common.  With an index list S in random order."""
    h = draw(st.sampled_from([0, 0, 3, 4, 5, 7]))
    n = h + draw(st.integers(0 if h else 1, 6 if h else 12))
    c = draw(st.integers(-4, 4).filter(bool))
    m = [[c if i < h and j < h else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] = draw(st.one_of(st.just(0), st.just(-2), st.integers(-5, 5)))
    for i in range(max(h, 1), n):
        m[i][i - 1] = m[i - 1][i] = draw(st.one_of(st.just(0), st.sampled_from([1, -1]),
                                                   st.integers(-3, 3)))
    support = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return m, support


@st.composite
def kernel_paths(draw):
    """A ``linalg._Path`` and an ascending index list: a path of 1..16 rows,
    or a clique head of 3..9 rows with one link c != 0 and a path of 0..8
    rows hung on its last row, its diagonal, links and c often large;
    zero diagonals, zero links and singular forms are common."""
    h = draw(st.sampled_from([0, 0, 3, 4, 5, 9]))
    n = h + draw(st.integers(0 if h else 1, 8 if h else 16))
    c = draw(st.one_of(st.integers(-4, 4), st.integers(-10**6, 10**6)).filter(bool)) if h else 0
    entry = st.one_of(st.just(0), st.just(-2), st.integers(-5, 5), st.integers(-10**6, 10**6))
    a = draw(st.lists(entry, min_size=n, max_size=n))
    b = [c] * max(h - 1, 0) + draw(st.lists(entry, min_size=n - max(h, 1),
                                            max_size=n - max(h, 1)))
    support = sorted(draw(st.sets(st.integers(0, n - 1))))
    return linalg._Path(a, b, h, c), support


class TestDense:
    """``linalg.dense`` writes each row of a path from its one reader,
    ``linalg._band``; read back by the oracles, it gives the path (on
    pipeline forms, ``test_dense_rows_match_the_dense_build``)."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_paths())
    @example((linalg._Path([0, 0, 0], [1, 1], 3, 1), []))  # a head, no path after it
    @example((linalg._Path([1, 2, 3, 4, 5], [-1, -1, 0, 7], 3, -1), []))  # a zero link after it
    def test_rows_are_the_form_entry_by_entry(self, shape):
        path = shape[0]
        a, b, h, c = path
        n = len(a)
        assert linalg.dense(path) == [
            [a[i] if i == j else c if max(i, j) < h else b[min(i, j)] if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]
        assert read(sparse(linalg.dense(path))) == path


class TestPathKernel:
    @settings(max_examples=400, deadline=None)
    @given(kernel_paths())
    @example((linalg._Path([0], [], 0, 0), [0]))  # singular
    @example((linalg._Path([1, 1, 1, -2], [1, 1, -1], 3, 1), [0, 1, 2, 3]))  # J: singular head
    @example((linalg._Path([0, -3, 2, 5, -2, 1], [2, 2, 2, 0, -1], 4, 2), [0, 1, 2, 3, 5]))
    @example((linalg._Path([-2] * 9, [-1] * 8, 0, 0), [0, 8]))  # far corners of a chain
    def test_one_pass_block_is_the_transposed_block(self, case):
        # B built in one pass over pairs of indices, with E's differences on
        # the head's two-entry columns only, is the oracle's block, with its
        # det and sigma, at entries of up to 10^6; a singular form gives
        # (0, None, ())
        path, support = case
        got = linalg._path_kernel(path, support)
        assert got == eliminate(sparse(linalg.dense(path)), support)
        if got[0] == 0:
            assert got == (0, None, ())
        else:
            assert len(got[2]) == len(support)

    @settings(max_examples=250, deadline=None)
    @given(kernel_shapes())
    def test_matches_the_oracle(self, case):
        # det, signature and adj(Q)[S, S] from two continuants, through E on
        # a clique head, equal the oracle's sparse Bareiss elimination
        m, support = case
        assert path_shape(m) and kernel_shape(m)
        want = eliminate(sparse(m), support)
        assert path_kernel(sparse(m), support) == want
        if want[0] == 0:
            with pytest.raises(linalg.SingularMatrixError):
                linalg.adjugate_block(read(sparse(m)), support)
        else:
            assert linalg.adjugate_block(read(sparse(m)), support) == want

    @settings(max_examples=150, deadline=None)
    @given(graph_shapes())
    @example([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])  # a 4-cycle
    @example([[-2, 0, -1], [0, -2, -1], [-1, -1, -2]])  # a path out of index order
    @example([[0, 1, 2], [1, 0, 1], [2, 1, 0]])  # a clique with two link values
    @example([[0, -1, -1, 0], [-1, 0, -1, -1], [-1, -1, 0, 0], [0, -1, 0, -2]])  # path on row 1
    @example([[-1, -1, -1, -1], [-1, -1, -1, 0], [-1, -1, -1, 0], [-1, 0, 0, -2]])  # on row 0
    @example([[0, 0, 1], [0, 0, 0], [1, 0, 0]])  # link 0 in the head, a far entry
    @example([[1, 2, 3], [2, 4, 6], [3, 6, 9]])  # dense and singular
    @example([[0, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 1], [1, 0, 1, 0]])  # zero diagonal
    def test_other_shapes_raise(self, m):
        if path_shape(m):
            assert kernel_shape(m)
            return
        with pytest.raises(ValueError, match="^matrix is neither a path nor a clique head"):
            read(sparse(m))

    def test_pipeline_forms_take_the_kernel(self):
        # every acceptance form, and clique heads of every push-off
        for m in acceptance_forms():
            assert path_shape(m) and kernel_shape(m)
        for coeff, h in (("1/3", 3), ("1/40", 40), ("2/7", 5), ("3/2", 0)):
            pres = _presentation(LegendrianData(-1, 0), *Fraction(coeff).as_integer_ratio())
            assert head(sparse(linalg.dense(pres.path))) == h


@st.composite
def clique_paths(draw):
    """A clique head of 3..12 rows with one link c (+-1, +-2 or any other
    value) and any diagonal, and a path of 0..8 rows of any diagonal and
    links hung on its last row, by a link that is often 0."""
    h = draw(st.integers(3, 12))
    c = draw(st.one_of(st.sampled_from([1, -1, 2, -2]), st.integers(-40, 40).filter(bool)))
    n = h + draw(st.integers(0, 8))
    m = [[c if i < h and j < h else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] = draw(st.one_of(st.integers(-6, 6), st.integers(-10**6, 10**6)))
    for i in range(h, n):
        m[i][i - 1] = m[i - 1][i] = draw(st.one_of(st.just(0), st.integers(-4, 4)))
    return m


def spoiled(m):
    """Strategy: m with one pair of head entries (i, j), (j, i), i < j < 3,
    set to another value, 0 included, so the head is no clique."""
    return st.tuples(st.sampled_from([(0, 1), (0, 2), (1, 2)]), st.integers(-3, 3)).filter(
        lambda t: t[1] != m[0][1]).map(lambda t: _set_pair(m, *t[0], t[1]))


def _set_pair(m, i, j, x):
    m = [row[:] for row in m]
    m[i][j] = m[j][i] = x
    return m


class TestCliqueLemma:
    """chi of a clique head c J + D by the matrix determinant lemma."""

    @settings(max_examples=300, deadline=None)
    @given(clique_paths())
    @example([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]])  # link 0, then a zero row
    def test_matches_berkowitz(self, m):
        # the run reduction, which seeds its continuant with the lemma's
        # chi of the head, against Berkowitz on the whole matrix
        assert kernel_shape(m)
        assert_reduced(m, char_poly(sparse(m)))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(graph_shapes(), clique_paths(), clique_paths().flatmap(spoiled),
                     kernel_shapes().map(lambda case: case[0])))
    def test_refuses_exactly_where_the_kernel_does(self, m):
        # the kernel and the run reduction take the one shape ``read``
        # takes, and agree on its determinant; ``read`` refuses the rest
        if not kernel_shape(m):
            assert not path_shape(m)
            return
        assert reduced(sparse(m))[0] == path_kernel(sparse(m))[0]
