import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krichever import _kernels_py, fgl, lattice
from krichever.backend import kernels
from krichever.cli import EXPECTED_INDEC
from krichever.core import Poly, Series2, b_vars
from krichever.lattice import (
    BasisIndex,
    InvariantFactors,
    Lattice,
    WEIGHT_CEILING,
    LazardModel,
    Quotient,
    hnf_columns,
    partitions,
)
from oracles import (
    full_hnf_cokernel,
    indecomposables_closed_form,
    new_generators,
    partition_count,
    poly_pow,
    products_spans,
    rational_rank,
    row_exponents,
    shift_ideal_piece,
    weighted_monomials,
)


def brute_force_member(vector, columns, bound=6):
    """Is ``vector`` an integer combination with small coefficients?"""
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(columns)):
        if all(
            sum(c * col[i] for c, col in zip(combo, columns)) == v
            for i, v in enumerate(vector)
        ):
            return True
    return False


def reduces_to_zero(vector, basis, pivots):
    """Triangular reduction of ``vector`` against echelon columns."""
    v = list(vector)
    for c, r in zip(basis, pivots):
        q, rem = divmod(v[r], c[r])
        if rem:
            return False
        v = [a - q * b for a, b in zip(v, c)]
    return not any(v)


def minor_gcd(cols, nrows, k):
    """gcd of the k x k minors of the matrix with columns ``cols``."""
    g = 0
    for rows in itertools.combinations(range(nrows), k):
        for cs in itertools.combinations(cols, k):
            g = math.gcd(g, int(_det([[c[i] for c in cs] for i in rows])))
    return g


def check_hnf_certificate(cols, nrows):
    """hnf_columns(cols) spans the same lattice as cols and is in HNF.

    Every input column reduces to 0 against H, so span(M) lies in span(H);
    both have rank r and the same gcd of r x r minors, so the index of
    span(M) in span(H) is 1.
    """
    basis, pivots = hnf_columns(cols, nrows)
    for col in cols:
        assert reduces_to_zero(col, basis, pivots)
    assert pivots == sorted(set(pivots))
    for k, (c, r) in enumerate(zip(basis, pivots)):
        assert c[r] > 0 and not any(c[:r])
        assert all(0 <= left[r] < c[r] for left in basis[:k])
    rank = len(basis)
    assert minor_gcd(basis, nrows, rank) == minor_gcd(cols, nrows, rank) != 0
    # the kernel's in-place contract: HNF first, then len(cols) - rank zeros
    work = [list(c) for c in cols]
    assert kernels.hnf_cols(work, nrows) == pivots
    assert work[:rank] == basis
    assert work[rank:] == [[0] * nrows for _ in range(len(cols) - rank)]
    return basis, pivots


def reference_hnf_cols(cols, nrows):
    """The minimum-pivot column HNF, an oracle for ``kernels.hnf_cols``.

    Same contract as the kernel.  Row by row, the live column with the
    smallest nonzero entry reduces the others there until one is left,
    which becomes the pivot and reduces the pivot columns to its left.
    """

    def submul(col, src, q, start):
        col[start:] = [v - q * w for v, w in zip(col[start:], src[start:])]

    basis = []
    pivot_rows = []
    live = [col for col in cols if any(col)]
    for r in range(nrows):
        if not live:
            break
        while True:
            jmin = -1
            vmin = 0
            nonzero = 0
            for j, col in enumerate(live):
                v = col[r]
                if v:
                    nonzero += 1
                    if jmin < 0 or abs(v) < vmin:
                        jmin = j
                        vmin = abs(v)
            if nonzero <= 1:
                break
            src = live[jmin]
            pv = src[r]
            for j, col in enumerate(live):
                if j != jmin and col[r]:
                    q = col[r] // pv
                    if q:
                        submul(col, src, q, r)
        if jmin < 0:
            continue
        piv = live.pop(jmin)
        if piv[r] < 0:
            piv[r:] = [-v for v in piv[r:]]
        pv = piv[r]
        for col in basis:
            q = col[r] // pv
            if q:
                submul(col, piv, q, r)
        basis.append(piv)
        pivot_rows.append(r)
        live = [col for col in live if any(col[r + 1 :])]
    cols[:] = basis + [[0] * nrows for _ in range(len(cols) - len(basis))]
    return pivot_rows


@st.composite
def integer_matrices(draw):
    """(columns, nrows) with zero, duplicate, negated and dependent columns.

    Entries run up to 2^40; shapes are wide, tall and square.
    """
    nrows = draw(st.integers(0, 5))
    bound = 2 ** draw(st.sampled_from([2, 8, 40]))
    entry = st.integers(-bound, bound)
    cols = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["random", "sparse", "zero", "copy", "combination"]))
        if kind == "random" or (kind in ("copy", "combination") and not cols):
            col = draw(st.lists(entry, min_size=nrows, max_size=nrows))
        elif kind == "sparse":
            col = [0] * nrows
            if nrows:
                for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
                    col[i] = draw(entry)
        elif kind == "zero":
            col = [0] * nrows
        elif kind == "copy":
            sign = draw(st.sampled_from([1, -1]))
            col = [sign * v for v in draw(st.sampled_from(cols))]
        else:
            # an integer combination of earlier columns: the rank stays put
            picks = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=3))
            coeffs = [draw(st.integers(-3, 3)) for _ in picks]
            col = [sum(c * p[i] for c, p in zip(coeffs, picks)) for i in range(nrows)]
        cols.append(col)
    return cols, nrows


class TestHnf:
    def test_identity(self):
        assert hnf_columns([[1, 0], [0, 1]], 2) == ([[1, 0], [0, 1]], [0, 1])

    def test_zero(self):
        assert hnf_columns([[0, 0], [0, 0]], 2) == ([], [])

    def test_same_column_lattice(self):
        mcols = [[2, 6], [4, 8]]
        hcols, _ = check_hnf_certificate(mcols, 2)
        # mutual membership of columns, brute force
        for col in hcols:
            assert brute_force_member(col, mcols)
        for col in mcols:
            assert brute_force_member(col, hcols)

    @pytest.mark.parametrize(
        "cols, nrows",
        [
            # zero columns interleaved with live ones
            ([[0, 0, 0], [2, 4, 0], [0, 0, 0], [0, 3, 6], [0, 0, 0]], 3),
            # duplicate and negated columns
            ([[1, 2, 3], [1, 2, 3], [-1, -2, -3], [0, 5, 1], [0, -5, -1]], 3),
            # rank 2 in four rows, and a zero leading row
            ([[0, 1, 2, 3], [0, 2, 4, 6], [0, 0, 1, 1]], 4),
            # multiples of one column: all but one fall to zero at row 0
            ([[2, 4, 6], [3, 6, 9], [-4, -8, -12]], 3),
            # column 1 falls to zero at row 0, column 3 at row 1
            ([[2, 1, 0], [4, 2, 0], [6, 4, 1], [4, 3, 1]], 3),
            # a row with no entry between two pivot rows
            ([[3, 0, 0, 5], [6, 0, 7, 0], [0, 0, 2, 4]], 4),
            # more columns than rows, full rank with a nontrivial index
            ([[4, 6], [6, 9], [10, 4], [-2, 7]], 2),
        ],
    )
    def test_edge_cases(self, cols, nrows):
        check_hnf_certificate(cols, nrows)

    def test_random_properties(self):
        rng = random.Random(3)
        for _ in range(20):
            m, n = rng.randrange(1, 5), rng.randrange(1, 6)
            cols = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
            check_hnf_certificate(cols, m)

    @given(integer_matrices())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_reference_kernel(self, matrix):
        cols, nrows = matrix
        expected = [list(c) for c in cols]
        expected_pivots = reference_hnf_cols(expected, nrows)
        work = [list(c) for c in cols]
        assert kernels.hnf_cols(work, nrows) == expected_pivots
        # the HNF columns first, then len(cols) - rank zero columns
        assert work == expected
        check_hnf_certificate(cols, nrows)

    def test_entries_stay_small_on_lattice_pieces(self, monkeypatch):
        # The pivot columns are reduced at the pivot rows below their own
        # after every change, and a walking column at each pivot row it
        # reaches.  Without that the b-coordinate pieces of weight 9 and 10
        # reach thousands of bits; with it, no entry written by a row
        # operation, and no entry handed to an extended-gcd step, exceeds
        # 4 * (input bits) + 40 in any HNF call, SNF passes included.  The
        # model's g-coordinate pieces and Smith forms are checked too.
        hnf, submul, xgcd = _kernels_py.hnf_cols, _kernels_py._col_submul, _kernels_py._xgcd
        bound = []

        def checked_hnf(cols, nrows):
            bits = max((abs(v).bit_length() for c in cols for v in c), default=0)
            bound.append(4 * bits + 40)
            return hnf(cols, nrows)

        def checked_submul(col, src, q, start):
            submul(col, src, q, start)
            assert max(abs(v) for v in col[start:]).bit_length() <= bound[-1]

        def checked_xgcd(a, b):
            assert max(a.bit_length(), abs(b).bit_length()) <= bound[-1]
            return xgcd(a, b)

        monkeypatch.setattr(_kernels_py, "hnf_cols", checked_hnf)
        monkeypatch.setattr(_kernels_py, "_col_submul", checked_submul)
        monkeypatch.setattr(_kernels_py, "_xgcd", checked_xgcd)
        model10 = LazardModel(10)
        for n in range(1, 11):
            model10.quotient_report(n)
        for n, pieces in products_spans(model10, 10).items():
            for cols in pieces:
                hnf_columns(cols, len(model10.basis_index(n)))
        assert len(bound) > 50

    def test_work_on_lattice_pieces(self, monkeypatch):
        # 1027 row operations here, 1822 in the lex-descending row order
        # (b_1^n first).  Reduced in b-coordinates, the pieces took 3312 and
        # 15587.
        submul = _kernels_py._col_submul
        calls = [0]

        def counted_submul(col, src, q, start):
            calls[0] += 1
            submul(col, src, q, start)

        monkeypatch.setattr(_kernels_py, "_col_submul", counted_submul)
        model10 = LazardModel(10)
        for n in range(1, 11):
            model10.quotient_report(n)
        assert 0 < calls[0] <= 6000

    def test_entries_read_on_lattice_pieces(self, monkeypatch):
        # A row operation reads only the nonzero pairs of its source column:
        # 2608 entries here (4079 with I_n built from every shift A_ij g_mu).
        # Row operations that read the whole source column, with the Smith
        # form run on the whole HNF basis of I_n, read 23273 (14601 of them
        # from the pivot row down).
        assert 0 < entries_read(monkeypatch, 10) <= 6000

    def test_entries_read_at_weight_13(self, monkeypatch):
        # I_n built from g_m times the reduced HNF bases of the I_(n-m):
        # 26,324 entries read here.  Built from every shift A_ij g_mu, whose
        # g-coordinates reach 74 bits at n = 13, it read 52,985.
        assert 0 < entries_read(monkeypatch, 13) <= 30_000


def entries_read(monkeypatch, w):
    """Source entries the row operations read over the quotients of weight <= w."""
    submul = _kernels_py._col_submul
    entries = [0]

    def counted_submul(col, src, q, start):
        entries[0] += len(src)
        submul(col, src, q, start)

    monkeypatch.setattr(_kernels_py, "_col_submul", counted_submul)
    model = LazardModel(w)
    for n in range(1, w + 1):
        model.quotient_report(n)
    return entries[0]


def _det(m):
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    return det


class TestSnf:
    def test_trivial(self):
        assert kernels.snf_diag([[1, 0], [0, 1]]) == [1, 1]
        assert kernels.snf_diag([[2]]) == [2]
        assert kernels.snf_diag([[0, 0], [0, 0]]) == []

    def test_two_by_two(self):
        # |det| = 8, gcd of entries 2, so the chain is [2, 4]
        assert kernels.snf_diag([[2, 4], [6, 8]]) == [2, 4]

    def test_minor_gcd_property(self):
        rng = random.Random(11)
        for _ in range(15):
            M = [[rng.randrange(-6, 7) for _ in range(4)] for _ in range(3)]
            diag = kernels.snf_diag([list(r) for r in M])
            # product d_1..d_k equals the gcd of all k x k minors
            mcols = [[row[j] for row in M] for j in range(4)]
            prod = 1
            for k, d in enumerate(diag, start=1):
                prod *= d
                assert prod == minor_gcd(mcols, 3, k)

    def test_divisibility_chain(self):
        rng = random.Random(5)
        for _ in range(10):
            M = [[rng.randrange(-20, 21) for _ in range(5)] for _ in range(4)]
            diag = kernels.snf_diag(M)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # diagonal but not a divisibility chain: needs the gcd/lcm step
            ([[4, 0], [0, 6]], [2, 12]),
            ([[6, 4], [4, 6]], [2, 10]),
            # five alternating passes when read as rows, two as columns
            ([[3, 4, 9], [9, 0, -9], [8, -5, 4]], [1, 1, 972]),
            # as columns, the only entry below a pivot is in the last column
            ([[1, 0, 0], [0, 2, 0], [0, 1, 2]], [1, 1, 4]),
            # wide, and (as columns) tall
            ([[2, 4, 6, 8, 10], [3, 6, 9, 12, 16]], [1, 2]),
            # zero columns between nonzero ones
            ([[0, 6, 0, 4, 0], [0, 0, 0, 10, 0], [0, 9, 0, 0, 0]], [1, 6]),
            # negative entries
            ([[-3, 0], [0, -5]], [1, 15]),
            ([[-2, -4], [-6, -8]], [2, 4]),
            # rank-deficient
            ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], [1]),
            ([[2, 4], [4, 8]], [2]),
        ],
    )
    def test_edge_shapes(self, rows, expected):
        cols = [list(c) for c in zip(*rows)]
        for k in range(1, len(expected) + 1):
            assert math.prod(expected[:k]) == minor_gcd(cols, len(rows), k)
        assert kernels.snf_diag([list(r) for r in rows]) == expected
        assert kernels.snf_diag(cols) == expected


class TestInvariantFactors:
    def test_cokernel(self):
        # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 in invariant factors [6]? no:
        # SNF of diag(2,3) is diag(1,6)
        inv = InvariantFactors.from_presentation(2, [[2, 0], [0, 3]])
        assert (inv.torsion, inv.free_rank) == ((6,), 0)
        assert inv.describe() == "Z/6"

    def test_free_part(self):
        inv = InvariantFactors.from_presentation(3, [[1, 0, 0]])
        assert (inv.torsion, inv.free_rank) == ((), 2)
        assert inv.describe() == "Z + Z"

    def test_json_round_trip(self):
        for inv in (InvariantFactors((2, 4), 3), InvariantFactors((), 0)):
            data = json.loads(json.dumps(inv.to_json()))
            assert data == {"free": inv.free_rank, "torsion": list(inv.torsion)}


def rank_mod_p(columns, p):
    """Rank over F_p by Gaussian elimination (independent of HNF and SNF).

    Eliminates on the transpose: each column becomes a row.
    """
    rows = [[v % p for v in col] for col in columns]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], top)]
        rank += 1
    return rank


class TestSmithOracle:
    def test_invariant_factors_against_ranks(self, monkeypatch):
        # For a relation matrix R with Smith diagonal d_1 | d_2 | ...,
        # rank_Q R is the number of d_i, and rank_Fp R drops by one for
        # every d_i divisible by p.
        presentations = []
        real = vars(InvariantFactors)["from_presentation"].__func__

        def record(cls, ambient_rank, relation_columns):
            presentations.append((ambient_rank, [list(c) for c in relation_columns]))
            return real(cls, ambient_rank, relation_columns)

        monkeypatch.setattr(InvariantFactors, "from_presentation", classmethod(record))
        model10 = LazardModel(10)
        reports = [model10.quotient_report(n) for n in range(1, 11)]
        groups = [g for r in reports for g in (r.Q, r.Indec)]
        assert len(presentations) == len(groups) == 20
        torsion_seen = set()
        for (r, cols), group in zip(presentations, groups):
            diag = kernels.snf_diag([list(c) for c in cols])
            torsion = tuple(d for d in diag if d != 1)
            assert group == InvariantFactors(torsion, r - len(diag))
            rank = rational_rank(cols, r)
            assert rank == len(diag)
            for p in (2, 3, 5, 7, 11, 13):
                divisible = sum(1 for d in diag if d % p == 0)
                assert divisible == rank - rank_mod_p(cols, p)
                if divisible:
                    torsion_seen.add(p)
        assert torsion_seen == {2, 3, 5, 7}


class TestCokernel:
    def test_matches_the_smith_form_of_the_whole_hnf(self):
        # Q_n from the non-unit part of I_n's HNF, against the Smith form of
        # the whole basis and, for its 2-torsion, against ranks over Q and
        # F_2 of the generator columns.  21 of the 62 pivots of I_13 are 1.
        model13 = LazardModel(13)
        for n in range(1, 14):
            q = model13.quotient_report(n).Q
            ideal = model13.ideal_piece(n)
            assert q == full_hnf_cokernel(ideal)
            cols, nrows = ideal.columns, len(ideal.basis)
            rank = rational_rank(cols, nrows)
            assert rank == ideal.rank == nrows - q.free_rank
            twos = sum(1 for d in q.torsion if d % 2 == 0)
            assert twos == rank - rank_mod_p(cols, 2)
        pivots = [next(x for x in col if x) for col in ideal.hnf_basis()]
        assert (pivots.count(1), len(pivots)) == (21, 62)

    def test_unit_pivots_with_entries_below(self):
        # A reduced HNF: pivots 1, 2, 3, 1 on rows 0..3, and both unit
        # columns have entries below their pivot.
        cols = [[1, 1, 0, 0, 5], [0, 2, 1, 0, 0], [0, 0, 3, 0, 6], [0, 0, 0, 1, 7]]
        lat = Lattice(BasisIndex(b_vars(4), 4), cols)
        assert lat.hnf_basis() == cols
        # left over: Z^3 (rows 1, 2, 4) modulo (2, 1, 0) and (0, 3, 6)
        assert lat.cokernel() == InvariantFactors((6,), 1) == full_hnf_cokernel(lat)
        assert lat.rank == 4


@pytest.fixture(scope="module")
def model():
    return LazardModel(8)


@pytest.fixture(scope="module")
def ceiling_model():
    return LazardModel(WEIGHT_CEILING)


@pytest.fixture(scope="module")
def spans(model):
    return products_spans(model, 8)


def from_g(lazard, coords):
    """The b-coordinate vector whose g-coordinates in ``lazard`` are ``coords``."""
    return [
        sum(c * col[i] for c, col in zip(coords, lazard.columns))
        for i in range(len(lazard.basis))
    ]


def g_piece_matches_span(lazard, piece, columns):
    """``piece`` (g-coordinates) and the span of the b-coordinate ``columns``
    are one lattice: each column solves in ``lazard`` with g-coordinates in
    ``piece``, and each HNF column of ``piece`` lies in the span."""
    for col in columns:
        assert len(piece.coordinates(lazard.coordinates(col))) == piece.rank
    span = Lattice(lazard.basis, columns)
    for x in piece.hnf_basis():
        assert len(span.coordinates(from_g(lazard, x))) == span.rank
    assert span.rank == piece.rank


class LexBasisIndex(BasisIndex):
    """The lex-descending row order, b_1^n first: an oracle for the default."""

    def __init__(self, vars, weight):
        super().__init__(vars, weight)
        monomials = weighted_monomials(vars, weight)
        self.keys = [vars.pack(m) for m in monomials]
        # part k is b_k, largest part first
        self.parts = [
            tuple(k for k in range(len(m), 0, -1) for _ in range(m[k - 1])) for m in monomials
        ]
        self.pos = {key: i for i, key in enumerate(self.keys)}


class TestRowOrder:
    def test_fewest_factors_first(self):
        for n in range(1, 11):
            bi = BasisIndex(b_vars(n), n)
            monomials = row_exponents(b_vars(n), bi)
            # row i is b^e for the partition parts[i]: e_k parts equal to k
            assert monomials == [tuple(p.count(k) for k in range(1, n + 1)) for p in bi.parts]
            assert sorted(bi.parts, reverse=True) == partitions(n, n)
            lex = weighted_monomials(b_vars(n), n)
            assert sorted(monomials, reverse=True) == lex
            factors = [len(p) for p in bi.parts]
            assert factors == sorted(factors)
            assert bi.parts[0] == (n,) and bi.parts[-1] == (1,) * n

    def test_lex_order_gives_the_same_groups_and_lattices(self, monkeypatch):
        pieces = ("lazard_piece", "ideal_piece", "decomposables_piece")
        model10 = LazardModel(10)
        ours = [model10.quotient_report(n) for n in range(1, 11)]
        ours_pieces = [[getattr(model10, p)(n) for p in pieces] for n in range(1, 11)]
        monkeypatch.setattr(lattice, "BasisIndex", LexBasisIndex)
        lex10 = LazardModel(10, fgl=model10.fgl)
        for n in range(1, 11):
            assert lex10.basis_index(n).parts[0] == (1,) * n
            assert lex10.quotient_report(n) == ours[n - 1]
            for a, piece in zip(ours_pieces[n - 1], pieces):
                b = getattr(lex10, piece)(n)
                assert a.rank == b.rank
                # the same lattice: each HNF basis lies in the other piece
                for x, y in ((a, b), (b, a)):
                    rows = row_exponents(model10.vars, x.basis)
                    for col in x.hnf_basis():
                        poly = Poly(model10.vars, dict(zip(rows, col)))
                        assert len(y.coordinates(y.basis.vector(poly))) == y.rank


def test_partitions_count_the_monomials():
    # p(n; parts <= 4) for n = 0 .. 16, the ranks of Z[q1..q4] by weight
    at_most_four = [1, 1, 2, 3, 5, 6, 9, 11, 15, 18, 23, 27, 34, 39, 47, 54, 64]
    for n in range(17):
        assert len(partitions(n, n)) == partition_count(n), n
        assert len(partitions(n, 4)) == at_most_four[n], n
        for largest in (1, 4, n):
            ps = partitions(n, largest)
            assert len(set(ps)) == len(ps), (n, largest)
            for p in ps:
                assert sum(p) == n and list(p) == sorted(p, reverse=True), p
                assert all(1 <= k <= largest for k in p), p


class TestLazardPieces:
    def test_rank_zero_and_one(self, model):
        assert model.lazard_piece(0).rank == 1
        assert model.lazard_piece(1).rank == 1

    def test_rank_is_partition_count(self, model):
        for n in range(9):
            assert model.lazard_piece(n).rank == partition_count(n)

    def test_lazard_piece_matches_all_products_span(self):
        # the all-products span, L_n by definition: a_ij * v for every
        # generator a_ij of weight k and every basis vector v of L_{n-k}
        model9 = LazardModel(9)
        for n, (lazard, _, _) in products_spans(model9, 9).items():
            old, _ = hnf_columns(lazard, len(model9.basis_index(n)))
            assert old == model9.lazard_piece(n).hnf_basis()

    def test_rational_rank_cross_check(self, model):
        pieces = (model.lazard_piece, model.ideal_piece, model.decomposables_piece)
        for n in range(9):
            for piece in pieces:
                lat = piece(n)
                assert lat.rank == rational_rank(lat.columns, len(lat.basis))

    def test_ideal_vanishes_below_weight_five(self, model):
        # A_33 = 0 by antisymmetry, so nothing survives below A_34 (weight 5)
        assert not model.fgl.A.coefficient(3, 3)
        for n in range(5):
            assert model.ideal_piece(n).rank == 0

    def test_ideal_inside_lazard(self, model, spans):
        # every A_ij v solves in the g-basis of L_n, and ideal_piece is their span
        for n in range(4, 9):
            g_piece_matches_span(model.lazard_piece(n), model.ideal_piece(n), spans[n][1])

    def test_coordinates_rebuild_members_and_reject_others(self, model, spans):
        for n in range(5, 9):
            L, I = model.lazard_piece(n), model.ideal_piece(n)
            for col in spans[n][1]:
                assert from_g(L, L.coordinates(col)) == col
            basis = I.hnf_basis()
            for col in basis:
                coords = I.coordinates(col)
                rebuilt = [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(len(col))]
                assert rebuilt == col
            # b^m alone is not in L_n when its g-monomial's pivot is not 1
            outside = [r for r, col in enumerate(L.columns) if col[r] != 1]
            assert outside
            for r in outside:
                unit = [0] * len(L.basis)
                unit[r] = 1
                with pytest.raises(ValueError):
                    L.coordinates(unit)
            # the first nonzero row of a member of I_n is a pivot row, and its
            # entry there a multiple of the pivot
            pivots = {next(i for i, v in enumerate(b) if v): b for b in I.hnf_basis()}
            for r in range(len(I.basis)):
                if r in pivots and pivots[r][r] == 1:
                    continue
                unit = [0] * len(I.basis)
                unit[r] = 1
                with pytest.raises(ValueError):
                    I.coordinates(unit)

    def test_decomposables_inside_lazard(self, model, spans):
        # every product u v solves in the g-basis of L_n, and
        # decomposables_piece is their span
        for n in range(2, 9):
            g_piece_matches_span(model.lazard_piece(n), model.decomposables_piece(n), spans[n][2])


class TestIdealPiece:
    def test_matches_the_span_of_every_shift(self):
        # ideal_piece(13) first, so that the pieces below are built on demand
        model13 = LazardModel(13)
        cols = model13.ideal_piece(13).columns
        # only the weight-13 A_ij enter at full size; g_m times a reduced
        # basis below is small
        top = len(model13._ideal_coordinates(13))
        bits = [max(abs(x).bit_length() for x in col) for col in cols]
        assert (len(cols), max(bits[:top])) == (122, 74)
        assert max(bits[top:]) <= 26
        for n in range(1, 14):
            ours = model13.ideal_piece(n).hnf_basis()
            assert ours == shift_ideal_piece(model13, n).hnf_basis()
        assert len(ours) == 62

    def test_g_monomial_is_the_product_of_powers(self):
        model10 = LazardModel(10)
        # row 0 of weight k is the one-part monomial, g_k
        g = [None] + [
            lattice._gcd_combination(model10._law_gens[k], model10.basis_index(k).keys[0])
            for k in range(1, 11)
        ]
        for n in range(11):
            bi = model10.basis_index(n)
            for parts, exps in zip(bi.parts, row_exponents(model10.vars, bi)):
                expected = Poly.one(model10.vars)
                for k, e in enumerate(exps, start=1):
                    expected = expected * poly_pow(g[k], e)
                assert model10._g_monomial(parts) == expected


class TestGBasis:
    def test_triangular_against_the_b_monomials(self, model):
        # g_k has b_k coefficient c_k = gcd_i C(k+1, i), the gcd over the
        # weight-k a_ij, so column i is prod c_lambda_j b_lambda (lambda =
        # parts[i]) plus monomials with more factors
        c = [0] + [math.gcd(*(math.comb(k + 1, i) for i in range(1, k + 1))) for k in range(1, 9)]
        assert c[1:] == [2, 3, 2, 5, 1, 7, 2, 3]
        for n in range(9):
            L = model.lazard_piece(n)
            factors = [len(p) for p in L.basis.parts]
            for i, (parts, col) in enumerate(zip(L.basis.parts, L.columns)):
                assert col[i] == math.prod(c[k] for k in parts)
                others = [x for j, x in enumerate(col) if j != i and factors[j] <= factors[i]]
                assert not any(others)

    def test_a_generator_without_the_gcd_fails_the_solve(self, monkeypatch):
        # g_3 from a_13 alone has b_3 coefficient 4, not gcd(4, 6) = 2, so
        # a_22 = 6 b_3 + ... has no integral g-coordinates
        combine = lattice._gcd_combination
        monkeypatch.setattr(lattice, "_gcd_combination", lambda polys, key: combine(polys[:1], key))
        model3 = LazardModel(3)
        assert model3.lazard_piece(2).rank == 2
        with pytest.raises(ValueError, match="weight-3 a_ij"):
            model3.lazard_piece(3)

    def test_an_ideal_generator_outside_the_ring_fails_the_solve(self):
        # c_7 = 2, and b_7 added to A_36 makes its b_7 coefficient odd
        data = fgl.compute_A(fgl.build_universal_fgl(7))
        coeffs = dict(data.A.coeffs)
        coeffs[3, 6] = coeffs[3, 6] + Poly.var(data.vars, "b7")
        A = Series2(data.vars, data.A.order, coeffs)
        broken = LazardModel(7, fgl=data._replace(A=A))
        for n in range(1, 7):
            broken.quotient_report(n)
        with pytest.raises(ValueError, match="weight-7 A_ij"):
            broken.quotient_report(7)

    def test_work_guard(self, monkeypatch):
        # One Poly product per g-monomial of two or more parts (128 here);
        # one HNF of I_n and the Smith passes per weight (24 kernel calls).
        # The b-coordinate pieces took 575 products and 60 calls.
        model10 = LazardModel(10)
        counts = Counter()
        mul, hnf = _kernels_py.poly_mul_terms, _kernels_py.hnf_cols

        def counted_mul(a, b, guard=0):
            counts["mul"] += 1
            return mul(a, b, guard)

        def counted_hnf(cols, nrows):
            counts["hnf"] += 1
            return hnf(cols, nrows)

        monkeypatch.setattr(_kernels_py, "poly_mul_terms", counted_mul)
        monkeypatch.setattr(_kernels_py, "hnf_cols", counted_hnf)
        for n in range(1, 11):
            model10.quotient_report(n)
        assert 0 < counts["mul"] <= 200
        assert 0 < counts["hnf"] <= 30


class TestQuotient:
    def test_free_below_weight_four(self, model):
        for n in range(1, 4):
            indec = model.quotient_report(n).Indec
            assert indec.free_rank == 1 and not indec.torsion

    def test_printed_relations(self, model):
        expected = {5: (5,), 6: (2,), 7: (7,), 8: (2,)}
        for n, torsion in expected.items():
            indec = model.quotient_report(n).Indec
            assert indec.free_rank == 0
            assert indec.torsion == torsion

    def test_indecomposables_cyclic(self, model):
        expected = [((), 1)] * 4 + [((5,), 0), ((2,), 0), ((7,), 0), ((2,), 0)]
        for n, group in enumerate(expected, start=1):
            indec = model.quotient_report(n).Indec
            assert (indec.torsion, indec.free_rank) == group

    def test_table_covers_every_weight_up_to_the_ceiling(self):
        assert sorted(EXPECTED_INDEC) == list(range(1, WEIGHT_CEILING + 1))

    def test_closed_form_matches_table(self):
        for n, group in EXPECTED_INDEC.items():
            closed = indecomposables_closed_form(n)
            assert (closed.torsion, closed.free_rank) == group, n

    def test_report_checks_the_free_rank_closed_form(self):
        # A_34 is the only weight-5 ideal generator; without it Q_5 = Z^7,
        # where p(5; parts <= 4) = 6
        data = fgl.compute_A(fgl.build_universal_fgl(5))
        coeffs = {k: v for k, v in data.A.coeffs.items() if k not in ((3, 4), (4, 3))}
        A = Series2(data.vars, data.A.order, coeffs)
        broken = LazardModel(5, fgl=data._replace(A=A))
        assert broken.ideal_piece(5).cokernel() == InvariantFactors((), 7)
        with pytest.raises(AssertionError, match="free rank 7"):
            broken.quotient_report(5)
        assert LazardModel(5).quotient_report(5).Q == InvariantFactors((), 6)

    def test_quotient_rings_to_the_weight_ceiling(self, ceiling_model):
        # Q_n = Z^p(n; parts <= 4) + (Z/2)^k, with k = p((n - 6)/2; parts <= 4)
        # for even n >= 6 and k = 0 otherwise
        def parts_at_most_four(n):
            # by conjugation, partitions of n into parts 1..4: choose how many
            # 4s, 3s and 2s, and the 1s fill the rest
            return sum(
                (n - 4 * a - 3 * b) // 2 + 1
                for a in range(n // 4 + 1)
                for b in range((n - 4 * a) // 3 + 1)
            )

        def two_rank(n):
            return parts_at_most_four((n - 6) // 2) if n >= 6 and n % 2 == 0 else 0

        assert [two_rank(n) for n in range(6, 17, 2)] == [1, 1, 2, 3, 5, 6]
        for n in range(1, WEIGHT_CEILING + 1):
            expected = InvariantFactors((2,) * two_rank(n), parts_at_most_four(n))
            assert ceiling_model.quotient_report(n).Q == expected, n

    def test_minimal_presentation_of_the_ideal(self, ceiling_model):
        # I_n modulo the shifts g_m I_(n-m): one new generator at every
        # weight from 5 on, and a second, needed only mod 2, at n = 7, 9, 15
        for n in range(1, 5):
            assert new_generators(ceiling_model, n) == InvariantFactors((), 0), n
        for n in range(5, WEIGHT_CEILING + 1):
            torsion = (2,) if n in (7, 9, 15) else ()
            assert new_generators(ceiling_model, n) == InvariantFactors(torsion, 1), n
        # of the weight-9 A_ij, A_47 lies in the span of the others and the
        # shifts, and A_38 and A_56 do not
        data = ceiling_model.fgl
        ideal_9 = ceiling_model.ideal_piece(9).hnf_basis()
        for slot, kept in (((4, 7), True), ((3, 8), False), ((5, 6), False)):
            coeffs = {k: v for k, v in data.A.coeffs.items() if k not in (slot, slot[::-1])}
            A = Series2(data.vars, data.A.order, coeffs)
            dropped = LazardModel(WEIGHT_CEILING, fgl=data._replace(A=A))
            assert (dropped.ideal_piece(9).hnf_basis() == ideal_9) == kept, slot

    def test_weight_zero(self):
        # L_0 = Z holds no A_ij and no one-part monomial
        expected = Quotient(0, 1, 0, InvariantFactors((), 1), InvariantFactors((), 0))
        assert LazardModel(4).quotient_report(0) == expected

    def test_report_schema_and_determinism(self, model):
        rep1 = model.quotient_report(6).to_json()
        rep2 = LazardModel(6).quotient_report(6).to_json()
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
        assert set(rep1) == {"n", "rank_L", "rank_I", "Q", "Indec"}

    def test_weight_ceiling_guard(self):
        with pytest.raises(ValueError):
            LazardModel(WEIGHT_CEILING + 1)
        with pytest.raises(ValueError):
            LazardModel(4).lazard_piece(5)
