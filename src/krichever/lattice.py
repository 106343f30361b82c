"""Graded integer lattices: pieces of the coefficient ring and its quotient.

Inside Z[b_1, b_2, ...] the weight-n piece of the universal law's
coefficient ring is the Z-span of monomials in the a_ij; the ideal cut out
by the A_ij (i, j >= 3) and the decomposables are sublattices of it.
Hermite normal form supplies canonical bases and membership, Smith normal
form the invariant factors of the quotients.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .backend import kernels
from .core import Poly, weighted_monomials
from .fgl import build_universal_fgl, compute_A

DEFAULT_MAX_WEIGHT = 8
WEIGHT_CEILING = 13


def hnf(matrix):
    """Column-style Hermite normal form: returns (H, U) with M @ U = H.

    ``matrix`` is a list of rows.  H has positive pivots with the entries
    to their left reduced into [0, pivot); zero columns are pushed to the
    right.  U is unimodular.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    cols = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
    ucols = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    kernels.hnf_cols(cols, nrows, ucols)
    H = [[cols[j][i] for j in range(ncols)] for i in range(nrows)]
    U = [[ucols[j][i] for j in range(ncols)] for i in range(ncols)]
    return H, U


def hnf_columns(cols, nrows):
    """HNF basis columns only (no transform tracking), for large inputs."""
    cols = [list(c) for c in cols]
    pivot_rows = kernels.hnf_cols(cols, nrows)
    return cols[: len(pivot_rows)], pivot_rows


def snf(matrix):
    """Invariant-factor diagonal d_1 | d_2 | ... of an integer matrix."""
    rows = [list(r) for r in matrix]
    return kernels.snf_diag(rows)


@dataclass(frozen=True)
class InvariantFactors:
    """Cokernel shape of an integer presentation: torsion chain + free rank."""

    torsion: tuple
    free_rank: int

    @classmethod
    def from_presentation(cls, ambient_rank, relation_columns):
        """Invariant factors of Z^r / column-span."""
        if not relation_columns:
            return cls((), ambient_rank)
        rows = [
            [col[i] for col in relation_columns] for i in range(ambient_rank)
        ]
        diag = kernels.snf_diag(rows)
        torsion = tuple(d for d in diag if d != 1)
        return cls(torsion, ambient_rank - len(diag))

    @property
    def order(self):
        """Group order (None when infinite)."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def is_trivial(self):
        return not self.torsion and self.free_rank == 0

    def is_cyclic(self):
        return len(self.torsion) + self.free_rank <= 1

    def exponent(self):
        """Largest torsion order (None if there is a free part)."""
        if self.free_rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"free": self.free_rank, "torsion": list(self.torsion)}


class BasisIndex:
    """Monomial basis of the weight-n piece of Z[b], canonical order."""

    def __init__(self, vars, weight):
        self.vars = vars
        self.weight = weight
        self.monomials = weighted_monomials(vars, weight)
        self.pos = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def vector(self, poly):
        """Integer coordinates of a homogeneous integral polynomial."""
        v = [0] * len(self.monomials)
        for e, c in poly.terms.items():
            if c.denominator != 1:
                raise ValueError("non-integral coefficient in lattice vector")
            v[self.pos[e]] = c.numerator
        return v


class Lattice:
    """Sublattice of Z^(ambient dim) spanned by integer generator columns."""

    def __init__(self, basis_index, columns):
        self.basis = basis_index
        self.columns = [list(c) for c in columns]
        self._hnf = None
        self._pivots = None

    def _reduce(self):
        if self._hnf is None:
            self._hnf, self._pivots = hnf_columns(self.columns, len(self.basis))
        return self._hnf

    @property
    def rank(self):
        return len(self._reduce())

    def hnf_basis(self):
        return [list(c) for c in self._reduce()]

    def contains(self, vector):
        """Exact membership via reduction against the HNF basis."""
        v = list(vector)
        cols = self._reduce()
        for c, r in zip(cols, self._pivots):
            if v[r] % c[r]:
                return False
            q = v[r] // c[r]
            if q:
                for i in range(len(v)):
                    v[i] -= q * c[i]
        return not any(v)

    def coordinates(self, vector):
        """Coordinates in the HNF basis; raises if not a member."""
        v = list(vector)
        cols = self._reduce()
        out = [0] * len(cols)
        for k, (c, r) in enumerate(zip(cols, self._pivots)):
            if v[r] % c[r]:
                raise ValueError("vector not in lattice")
            q = v[r] // c[r]
            out[k] = q
            if q:
                for i in range(len(v)):
                    v[i] -= q * c[i]
        if any(v):
            raise ValueError("vector not in lattice")
        return out


class LazardModel:
    """Graded lattice computations for one b-model truncation.

    ``max_weight`` bounds the weights that can be asked for; the underlying
    law is built once at that truncation.  Pieces are cached because the
    recursions (piece n uses the bases of the smaller pieces) reuse them
    heavily.
    """

    def __init__(self, max_weight=DEFAULT_MAX_WEIGHT, fgl=None):
        if max_weight > WEIGHT_CEILING:
            raise ValueError(
                f"weight {max_weight} beyond the configured ceiling {WEIGHT_CEILING}"
            )
        self.max_weight = max_weight
        if fgl is None:
            fgl = compute_A(build_universal_fgl(max_weight))
        self.fgl = fgl
        self.vars = fgl.vars
        self._basis = {}
        self._law_gens = None
        self._ideal_gens = None
        self._lazard = {}
        self._ideal = {}
        self._square = {}

    def basis_index(self, n):
        if n not in self._basis:
            self._basis[n] = BasisIndex(self.vars, n)
        return self._basis[n]

    def law_generators(self):
        """a_ij (i <= j, i + j <= W + 1) grouped by weight i + j - 1."""
        if self._law_gens is None:
            gens = {}
            for s in range(2, self.max_weight + 2):
                ws = s - 1
                lst = []
                for i in range(1, s // 2 + 1):
                    j = s - i
                    a = self.fgl.F.coefficient(i, j)
                    if a:
                        lst.append(((i, j), a))
                if lst:
                    gens[ws] = lst
            self._law_gens = gens
        return self._law_gens

    def ideal_generators(self):
        """A_ij (3 <= i <= j, i + j <= W + 2) grouped by weight i + j - 2."""
        if self._ideal_gens is None:
            gens = {}
            for s in range(6, self.max_weight + 3):
                ws = s - 2
                lst = []
                for i in range(3, s // 2 + 1):
                    j = s - i
                    if j < i:
                        continue
                    a = self.fgl.A.coefficient(i, j)
                    if a:
                        lst.append(((i, j), a))
                if lst:
                    gens[ws] = lst
            self._ideal_gens = gens
        return self._ideal_gens

    def _basis_polys(self, n):
        """HNF basis of the weight-n ring piece, as polynomials."""
        piece = self.lazard_piece(n)
        bi = self.basis_index(n)
        out = []
        for col in piece.hnf_basis():
            out.append(Poly(self.vars, dict(zip(bi.monomials, col))))
        return out

    def lazard_piece(self, n):
        """Z-span of the weight-n monomials in the a_ij, in b-coordinates.

        Every monomial of weight n > 0 factors as (generator of weight k)
        times (monomial of weight n - k), so the span is accumulated from
        the already-reduced smaller pieces.
        """
        if n in self._lazard:
            return self._lazard[n]
        if n > self.max_weight:
            raise ValueError(f"weight {n} beyond model truncation {self.max_weight}")
        bi = self.basis_index(n)
        if n == 0:
            lat = Lattice(bi, [[1]])
        else:
            cols = []
            for k, gens in self.law_generators().items():
                if k > n:
                    continue
                for v in self._basis_polys(n - k):
                    for _, g in gens:
                        cols.append(bi.vector(g * v))
            lat = Lattice(bi, cols)
        self._lazard[n] = lat
        return lat

    def ideal_piece(self, n):
        """Weight-n piece of the ideal generated by the A_ij, i, j >= 3."""
        if n in self._ideal:
            return self._ideal[n]
        if n > self.max_weight:
            raise ValueError(f"weight {n} beyond model truncation {self.max_weight}")
        bi = self.basis_index(n)
        cols = []
        for d, gens in self.ideal_generators().items():
            if d > n:
                continue
            for v in self._basis_polys(n - d):
                for _, g in gens:
                    cols.append(bi.vector(g * v))
        lat = Lattice(bi, cols)
        self._ideal[n] = lat
        return lat

    def decomposables_piece(self, n):
        """Span of products of two positive-weight ring elements, weight n."""
        if n in self._square:
            return self._square[n]
        bi = self.basis_index(n)
        cols = []
        for k in range(1, n // 2 + 1):
            left = self._basis_polys(k)
            right = self._basis_polys(n - k)
            for v in left:
                for u in right:
                    cols.append(bi.vector(v * u))
        lat = Lattice(bi, cols)
        self._square[n] = lat
        return lat

    def quotient_report(self, n):
        """JSON form of :meth:`quotient_groups`, with the ranks of L_n and I_n."""
        q, indec = self.quotient_groups(n)
        rank_l = self.lazard_piece(n).rank
        # independent rational-rank cross-check of the quotient's free rank
        rank_i = self.ideal_piece(n).rank
        if q.free_rank != rank_l - rank_i:
            raise AssertionError(f"free-rank mismatch at weight {n}")
        return {
            "n": n,
            "rank_L": rank_l,
            "rank_I": rank_i,
            "Q": q.to_json(),
            "Indec": indec.to_json(),
        }

    def quotient_groups(self, n):
        """(Q_n, Indec_n) as InvariantFactors: ring/ideal and indecomposables."""
        L = self.lazard_piece(n)
        I = self.ideal_piece(n)
        ideal_coords = [L.coordinates(c) for c in I.hnf_basis()]
        q = InvariantFactors.from_presentation(L.rank, ideal_coords)
        dec_coords = [L.coordinates(c) for c in self.decomposables_piece(n).hnf_basis()]
        indec = InvariantFactors.from_presentation(L.rank, ideal_coords + dec_coords)
        return q, indec


def rational_rank(columns, nrows):
    """Rank over Q by fraction-free Gaussian elimination (independent of HNF)."""
    cols = [[Fraction(v) for v in c] for c in columns]
    rank = 0
    row = 0
    cols = [list(c) for c in cols]
    mat = [[c[i] for c in cols] for i in range(nrows)]
    for col in range(len(cols)):
        piv = next((r for r in range(row, nrows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[row])]
        row += 1
        rank += 1
    return rank


@lru_cache(maxsize=None)
def partition_count(n):
    """p(n), by Euler's pentagonal recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total
