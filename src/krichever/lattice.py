"""Graded integer lattices: pieces of the coefficient ring and its quotient.

Inside Z[b_1, b_2, ...] the weight-n piece of the universal law's
coefficient ring is the Z-span of monomials in the a_ij; the ideal cut out
by the A_ij (i, j >= 3) and the decomposables are sublattices of it.
Hermite normal form supplies canonical bases and membership, Smith normal
form the invariant factors of the quotients.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .backend import kernels
from .core import Poly, weighted_monomials
from .fgl import build_universal_fgl, compute_A

DEFAULT_MAX_WEIGHT = 8
WEIGHT_CEILING = 16


def hnf_columns(cols, nrows):
    """Column-style Hermite normal form of the span of ``cols``.

    Returns (basis, pivot_rows): the nonzero HNF columns, each with a
    positive pivot and the entries to the left of its pivot reduced into
    [0, pivot), and the row of each pivot.  ``cols`` is not modified.
    """
    cols = [list(c) for c in cols]
    pivot_rows = kernels.hnf_cols(cols, nrows)
    return cols[: len(pivot_rows)], pivot_rows


@dataclass(frozen=True)
class InvariantFactors:
    """Cokernel shape of an integer presentation: torsion chain + free rank."""

    torsion: tuple
    free_rank: int

    @classmethod
    def from_presentation(cls, ambient_rank, relation_columns):
        """Invariant factors of Z^r / column-span.  ``relation_columns`` is
        not modified."""
        diag = kernels.snf_diag([list(c) for c in relation_columns])
        torsion = tuple(d for d in diag if d != 1)
        return cls(torsion, ambient_rank - len(diag))

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"free": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data):
        """Inverse of :meth:`to_json`."""
        return cls(tuple(data["torsion"]), data["free"])


class BasisIndex:
    """Monomial basis of the weight-n piece of Z[b], fewest b-factors first.

    Row i of every lattice matrix is the coefficient of ``monomials[i]``.
    The monomials are sorted by their number of b-factors, ascending, and
    lex-descending within one count, so row 0 is b_n and the last row
    b_1^n.  A weight-k generator is C(k+1, i) b_k plus products of two or
    more b's, so a product of generators has its first nonzero entry on its
    coarsest monomial, and most columns of the insertion HNF find a pivot
    row of their own.  With b_1^n first, where nearly every product is
    nonzero, each column would walk through almost every pivot.  Ranks and
    invariant factors do not depend on the row order.
    """

    def __init__(self, vars, weight):
        self.vars = vars
        self.weight = weight
        self.monomials = sorted(weighted_monomials(vars, weight), key=sum)
        self.pos = {vars.pack(m): i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def vector(self, poly):
        """Integer coordinates of a homogeneous integral polynomial."""
        if poly.den != 1:
            raise ValueError("non-integral coefficient in lattice vector")
        v = [0] * len(self.monomials)
        for e, c in poly.terms.items():
            v[self.pos[e]] = c
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

    def coordinates(self, vector):
        """Coordinates in the HNF basis; raises if not a member."""
        v = list(vector)
        cols = self._reduce()
        out = [0] * len(cols)
        for k, (c, r) in enumerate(zip(cols, self._pivots)):
            q, rem = divmod(v[r], c[r])
            if rem:
                raise ValueError("vector not in lattice")
            out[k] = q
            if q:
                # c is zero above its pivot row r
                v[r:] = [a - q * b for a, b in zip(v[r:], c[r:])]
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
        self._polys = {}
        # a_ij (1 <= i <= j) of weight i + j - 1, A_ij (3 <= i <= j) of i + j - 2
        self._law_gens = _generators(fgl.F, 1, 1, max_weight)
        self._ideal_gens = _generators(fgl.A, 3, 2, max_weight)
        self._lazard = {}
        self._ideal = {}
        self._square = {}

    def basis_index(self, n):
        if n > self.max_weight:
            raise ValueError(f"weight {n} beyond model truncation {self.max_weight}")
        if n not in self._basis:
            self._basis[n] = BasisIndex(self.vars, n)
        return self._basis[n]

    def _basis_polys(self, n):
        """HNF basis of the weight-n ring piece, as polynomials (built once)."""
        if n not in self._polys:
            monomials = self.basis_index(n).monomials
            self._polys[n] = [
                Poly(self.vars, dict(zip(monomials, col)))
                for col in self.lazard_piece(n).hnf_basis()
            ]
        return self._polys[n]

    def _span(self, n, generators):
        """Z-span of g * v for each generator g of weight k <= n and each
        HNF basis polynomial v of the weight-(n - k) ring piece."""
        bi = self.basis_index(n)
        cols = []
        for k, gens in generators.items():
            if k > n:
                continue
            for v in self._basis_polys(n - k):
                for g in gens:
                    cols.append(bi.vector(g * v))
        return Lattice(bi, cols)

    def lazard_piece(self, n):
        """Z-span of the weight-n monomials in the a_ij, in b-coordinates.

        A monomial of weight n > 0 is either one generator a_ij of weight n
        or a product of two or more generators, which lies in the
        decomposables D_n (and D_n lies in L_n).  So L_n is spanned by the
        HNF basis of D_n, built from the pieces of weight < n, plus the
        weight-n generators.
        """
        if n not in self._lazard:
            bi = self.basis_index(n)
            if n == 0:
                cols = [[1]]
            else:
                cols = self.decomposables_piece(n).hnf_basis()
                cols += [bi.vector(g) for g in self._law_gens.get(n, [])]
            self._lazard[n] = Lattice(bi, cols)
        return self._lazard[n]

    def ideal_piece(self, n):
        """Weight-n piece of the ideal generated by the A_ij, i, j >= 3."""
        if n not in self._ideal:
            self._ideal[n] = self._span(n, self._ideal_gens)
        return self._ideal[n]

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
        # consistency check of the SNF free rank against the HNF ranks; both
        # come from the same integer kernels, so it is no independent oracle
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
        # reduce L_n before the first coordinates call, so that a trace
        # books its HNF under hnf_columns and not under coordinates
        rank = L.rank
        I = self.ideal_piece(n)
        ideal_coords = [L.coordinates(c) for c in I.hnf_basis()]
        q = InvariantFactors.from_presentation(rank, ideal_coords)
        dec_coords = [L.coordinates(c) for c in self.decomposables_piece(n).hnf_basis()]
        indec = InvariantFactors.from_presentation(rank, ideal_coords + dec_coords)
        return q, indec


def _generators(series, first, shift, max_weight):
    """[x^i y^j] series for first <= i <= j, grouped by weight i + j - shift.

    Only weights up to ``max_weight`` are read; zero coefficients are
    skipped and empty weights left out.
    """
    gens = {}
    for s in range(2 * first, max_weight + shift + 1):
        lst = [series.coefficient(i, s - i) for i in range(first, s // 2 + 1)]
        lst = [a for a in lst if a]
        if lst:
            gens[s - shift] = lst
    return gens


def indecomposables_closed_form(n):
    """Indec_n for n >= 1 from binomial coefficients alone.

    In b-coordinates [b_n] a_ij = C(n+1, i) and, for i, j >= 3,
    [b_n] A_ij = C(n+1, i-1) - C(n+1, i).  The indecomposables of the
    coefficient ring embed in Z b_n with image g_a Z, g_a = gcd_i C(n+1, i),
    and the products A_ij L_{>0} are decomposable, so the weight-n A_ij cut
    Indec_n down to Z / (g_A / g_a), g_A the gcd of their b_n coefficients.
    With g_A = 0 (n <= 4) Indec_n is Z.  An oracle for
    :meth:`LazardModel.quotient_groups` that needs no lattice at all.
    """
    g_A = gcd(*(comb(n + 1, i - 1) - comb(n + 1, i) for i in range(3, n)))
    if g_A == 0:
        return InvariantFactors((), 1)
    g_a = gcd(*(comb(n + 1, i) for i in range(1, n + 1)))
    d = g_A // g_a
    return InvariantFactors((d,) if d != 1 else (), 0)
