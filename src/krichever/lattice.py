"""Graded integer lattices: pieces of the coefficient ring and its quotient.

Inside Z[b_1, b_2, ...] the weight-n piece L_n of the universal law's
coefficient ring is the Z-span of the monomials in the a_ij.  By Lazard's
theorem the ring is a polynomial ring Z[g_1, g_2, ...], and the model works
in that basis.  g_k is the Z-combination of the weight-k a_ij whose b_k
coefficient is their gcd c_k.  The only weight-k monomial with one factor is
b_k, so g_k = c_k b_k + (products of two or more b's), and a g-monomial
g_lambda = g_lambda_1 g_lambda_2 ... is (prod c_lambda_i) b_lambda plus
monomials with more factors.  The g-monomials are therefore triangular
against the b-monomials: a polynomial solves into g-coordinates by
elimination, fewest factors first, with no Hermite form.  Every weight-n
a_ij must solve integrally, which proves L_n = Z[g]_n, and every A_ij is
solved once, which proves that it lies in the ring.

In g-coordinates the rest is reindexing.  The ideal piece I_n is spanned by
the weight-n A_ij and g_m I_(n-m) for m = 1 .. n-1, since every shift
A_ij g_mu with mu nonempty is g_m times a shift of weight n - m.  So I_n is
built from the reduced Hermite bases of the pieces below it, and
multiplying by g_m only moves coordinates.  One Hermite normal form of I_n
gives Q_n = L_n / I_n: each pivot 1 splits off a trivial summand, and one
Smith normal form of the rest gives the other invariant factors.  The
decomposables D_n are spanned by the g-monomials with two or more parts, so
Indec_n = L_n / (I_n + D_n) is Z g_n modulo the g_n coefficients of the
weight-n A_ij, read off the one-part row with no D_n lattice built.  All
arithmetic is exact.

One enumerator, ``partitions``, lists the monomials of both sides: the
weight-n monomials in b_1 .. b_W are the partitions of n into parts of at
most W, each row of a weight-n matrix is one partition lambda, and g_lambda
is built from lambda: its other parts times g of its largest.  The free
rank of Q_n is the number of weight-n monomials in q_1 .. q_4, the
partitions of n into parts of at most 4.
"""

from collections import namedtuple

from .backend import kernels
from .core import Poly
from .fgl import build_universal_fgl, compute_A

DEFAULT_MAX_WEIGHT = 8
WEIGHT_CEILING = 16


def hnf_columns(cols, nrows):
    """Column-style Hermite normal form of the span of ``cols``.

    Returns (basis, pivot_rows): the nonzero HNF columns, each with a
    positive pivot and the entries to the left of its pivot reduced into
    [0, pivot), and the row of each pivot.  ``cols`` is not modified.
    """
    if not cols:
        return [], []
    cols = [list(c) for c in cols]
    pivot_rows = kernels.hnf_cols(cols, nrows)
    return cols[: len(pivot_rows)], pivot_rows


class InvariantFactors(namedtuple("InvariantFactors", "torsion free_rank")):
    """Cokernel shape of an integer presentation: torsion chain + free rank."""

    __slots__ = ()

    @classmethod
    def from_presentation(cls, ambient_rank, relation_columns):
        """Invariant factors of Z^r / column-span.  ``relation_columns`` is
        not modified."""
        cols = [list(c) for c in relation_columns]
        diag = kernels.snf_diag(cols) if cols else []
        torsion = tuple(d for d in diag if d != 1)
        return cls(torsion, ambient_rank - len(diag))

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"free": self.free_rank, "torsion": list(self.torsion)}


class Quotient(namedtuple("Quotient", "n rank_L rank_I Q Indec")):
    """Weight-n answer: the ranks of L_n and I_n, Q_n = L_n / I_n and
    Indec_n = L_n / (I_n + D_n), the groups as InvariantFactors."""

    __slots__ = ()

    def to_json(self):
        return {**self._asdict(), "Q": self.Q.to_json(), "Indec": self.Indec.to_json()}


class BasisIndex:
    """Monomial basis of the weight-n piece of Z[b], fewest b-factors first.

    It serves tables whose variable i has weight i + 1, which is every
    ``b_vars(W)``: a monomial of weight n is a partition of n (``partitions``),
    part k the variable b_k, and its key is the sum of the parts' unit keys.
    Row i of every lattice matrix is the coefficient of the partition
    ``parts[i]``, largest part first: of the b-monomial b_parts in
    b-coordinates, of the g-monomial g_parts in g-coordinates.  ``keys[i]``
    is the packed key of b_parts and ``pos`` maps a key back to its row.
    Rows are sorted by their number of parts, ascending, and by key
    descending within one count, so row 0 is b_n and the last row b_1^n.
    The HNF of the ideal's columns takes fewer row operations in this
    order.  Ranks, invariant factors and the g-coordinate solve do not
    depend on the row order.
    """

    def __init__(self, vars, weight):
        units = [0] + [vars.unit(i) for i in range(len(vars.names))]  # part k is b_k
        rows = sorted(
            (len(p), -sum(units[k] for k in p), p) for p in partitions(weight, len(vars.names))
        )
        self.parts = [p for _, _, p in rows]
        self.keys = [-key for _, key, _ in rows]
        self.pos = {key: i for i, key in enumerate(self.keys)}

    def __len__(self):
        return len(self.keys)

    def vector(self, poly):
        """Integer coordinates of a homogeneous integral polynomial."""
        if poly.den != 1:
            raise ValueError("non-integral coefficient in lattice vector")
        v = [0] * len(self.keys)
        for e, c in poly.terms.items():
            v[self.pos[e]] = c
        return v


class Lattice:
    """Sublattice of Z^(ambient dim) spanned by integer generator columns.

    Membership and coordinates come from one elimination in a basis of the
    lattice: the HNF basis, or the columns themselves when ``steps`` says
    that they already form a triangular basis.  ``steps`` lists (column
    index, pivot row) pairs in the order of elimination; each column is
    nonzero on its own pivot row and zero on the pivot rows eliminated
    before it.
    """

    def __init__(self, basis_index, columns, steps=None):
        self.basis = basis_index
        self.columns = [list(c) for c in columns]
        self._hnf = None
        self._solver = None if steps is None else _solver(self.columns, steps)

    def _reduce(self):
        if self._hnf is None:
            self._hnf = hnf_columns(self.columns, len(self.basis))
        return self._hnf

    def _solve_basis(self):
        if self._solver is None:
            basis, pivots = self._reduce()
            self._solver = _solver(basis, enumerate(pivots))
        return self._solver

    @property
    def rank(self):
        if self._solver is not None:
            return len(self._solver[0])
        return len(self._reduce()[1])

    def hnf_basis(self):
        return [list(c) for c in self._reduce()[0]]

    def cokernel(self):
        """Z^(ambient dim) / lattice as InvariantFactors, from the HNF basis.

        A pivot 1 of the reduced HNF is the only nonzero entry of its row:
        the entries to its left are reduced mod 1, the columns to its right
        are zero above their own pivots.  Row operations clear its column
        below it without touching any other column, so its row and column
        split off a trivial summand.  The Smith form runs on the rest.
        """
        basis, pivots = self._reduce()
        units = {r for col, r in zip(basis, pivots) if col[r] == 1}
        rows = [i for i in range(len(self.basis)) if i not in units]
        residual = [[col[i] for i in rows] for col, r in zip(basis, pivots) if r not in units]
        return InvariantFactors.from_presentation(len(rows), residual)

    def coordinates(self, vector):
        """Coordinates in the solving basis; raises if not a member."""
        v = list(vector)
        cols, steps = self._solve_basis()
        out = [0] * len(cols)
        for k, r, entries in steps:
            q, rem = divmod(v[r], cols[k][r])
            if rem:
                raise ValueError("vector not in lattice")
            if q:
                out[k] = q
                for i, x in entries:
                    v[i] -= q * x
        if any(v):
            raise ValueError("vector not in lattice")
        return out


def _solver(cols, steps):
    """(cols, [(column index, pivot row, the column's nonzero (row, entry))])."""
    return cols, [(k, r, [(i, x) for i, x in enumerate(cols[k]) if x]) for k, r in steps]


class LazardModel:
    """Graded lattice computations for one b-model truncation.

    ``max_weight`` bounds the weights that can be asked for; the underlying
    law is built once at that truncation.  ``lazard_piece(n)`` is L_n in
    b-coordinates with the g-monomials as its basis; ``ideal_piece(n)`` and
    ``decomposables_piece(n)`` are in g-coordinates, the coordinates that
    ``lazard_piece(n).coordinates`` returns.  Pieces, g-monomials and the
    g-coordinates of the A_ij are cached.
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
        self._g = {(): Poly.one(self.vars)}  # partition -> g-monomial
        # a_ij (1 <= i <= j) of weight i + j - 1, A_ij (3 <= i <= j) of i + j - 2
        self._law_gens = _generators(fgl.F, 1, 1, max_weight)
        self._ideal_gens = _generators(fgl.A, 3, 2, max_weight)
        self._ideal_coords = {}
        self._lazard = {}
        self._ideal = {}
        self._square = {}

    def basis_index(self, n):
        if n > self.max_weight:
            raise ValueError(f"weight {n} beyond model truncation {self.max_weight}")
        if n not in self._basis:
            self._basis[n] = BasisIndex(self.vars, n)
        return self._basis[n]

    def _g_monomial(self, parts):
        """g_parts = g_parts[0] g_parts[1] ... for a partition, largest part
        first: 1 for no parts, g_k for one part k, and otherwise the
        g-monomial of the other parts times g of the largest, one polynomial
        product per monomial of two or more parts."""
        if parts not in self._g:
            if len(parts) == 1:
                k = parts[0]
                g = _gcd_combination(self._law_gens[k], self.vars.unit(k - 1))
            else:
                g = self._g_monomial(parts[1:]) * self._g_monomial(parts[:1])
            self._g[parts] = g
        return self._g[parts]

    def lazard_piece(self, n):
        """L_n in b-coordinates, with the weight-n g-monomials as its basis.

        Column i is the g-monomial of the partition ``parts[i]``; it pivots on
        row i and is eliminated with the other monomials of its number of
        parts, fewest first, whatever the row order.  Raises ValueError if a
        weight-n a_ij is not an integral combination of the g-monomials.
        """
        if n not in self._lazard:
            bi = self.basis_index(n)
            cols = [bi.vector(self._g_monomial(p)) for p in bi.parts]
            order = sorted(range(len(bi)), key=lambda i: len(bi.parts[i]))
            lat = Lattice(bi, cols, [(i, i) for i in order])
            for a in self._law_gens.get(n, []):
                _solve(lat, a, f"a weight-{n} a_ij")
            self._lazard[n] = lat
        return self._lazard[n]

    def _ideal_coordinates(self, k):
        """g-coordinates of the weight-k A_ij, each solved once."""
        if k not in self._ideal_coords:
            lat = self.lazard_piece(k)
            gens = self._ideal_gens.get(k, [])
            self._ideal_coords[k] = [_solve(lat, a, f"a weight-{k} A_ij") for a in gens]
        return self._ideal_coords[k]

    def ideal_piece(self, n):
        """I_n in g-coordinates, from the weight-n A_ij and the pieces below.

        I_n is spanned by the A_ij g_mu, A_ij of weight k <= n and mu of
        weight n - k.  When mu is nonempty, g_mu = g_m g_(mu - m) for a part
        m of mu, so A_ij g_mu lies in g_m I_(n-m).  I_n is therefore spanned
        by the weight-n A_ij and, for m = 1 .. n-1, g_m times each column of
        the reduced HNF basis of I_(n-m), built on demand.  Multiplying by
        g_m adds the unit key of g_m to every packed key, so each such column
        is a reindexed column of the piece below.
        """
        if n not in self._ideal:
            bi = self.basis_index(n)
            cols = list(self._ideal_coordinates(n))
            for m in range(1, n):
                lower = self.ideal_piece(n - m)
                unit = self.vars.unit(m - 1)
                shifted = [bi.pos[key + unit] for key in lower.basis.keys]
                for x in lower.hnf_basis():
                    col = [0] * len(bi)
                    for i, c in zip(shifted, x):
                        col[i] = c
                    cols.append(col)
            self._ideal[n] = Lattice(bi, cols)
        return self._ideal[n]

    def decomposables_piece(self, n):
        """D_n in g-coordinates: the g-monomials with two or more parts."""
        if n not in self._square:
            bi = self.basis_index(n)
            rows = [i for i, p in enumerate(bi.parts) if len(p) >= 2]
            cols = [[int(i == r) for i in range(len(bi))] for r in rows]
            self._square[n] = Lattice(bi, cols, list(enumerate(rows)))
        return self._square[n]

    def quotient_report(self, n):
        """Quotient record of weight n: ranks of L_n and I_n, Q_n and Indec_n.

        Raises AssertionError if the free rank of Q_n is not
        p(n; parts <= 4), the rank of Z[q1..q4] in weight n.
        """
        q = self.ideal_piece(n).cokernel()
        free = len(partitions(n, 4))
        if q.free_rank != free:
            raise AssertionError(
                f"Q_{n} has free rank {q.free_rank}, not p({n}; parts <= 4) = {free}"
            )
        # D_n is spanned by the g-monomials of two or more parts, so L_n / D_n
        # is free on the one-part row: g_n alone.  The shifts A_ij g_mu with
        # mu nonempty lie in D_n, so only the weight-n A_ij present
        # Indec_n = L_n / (I_n + D_n).
        one_part = [i for i, p in enumerate(self.basis_index(n).parts) if len(p) == 1]
        relations = [[x[r] for r in one_part] for x in self._ideal_coordinates(n)]
        indec = InvariantFactors.from_presentation(len(one_part), relations)
        return Quotient(n, self.lazard_piece(n).rank, self.ideal_piece(n).rank, q, indec)


def _gcd_combination(polys, key):
    """A Z-combination of ``polys`` whose coefficient on the packed monomial
    ``key`` is the gcd of theirs, by Euclid's algorithm, one at a time."""
    c, g = 0, Poly.zero(polys[0].vars)
    for h in polys:
        d = h.terms.get(key, 0)
        while d:
            q = c // d
            c, g, d, h = d, h, c - q * d, g - h.scale(q)
    return g if c >= 0 else -g


def _solve(lattice, poly, what):
    """g-coordinates of ``poly`` in ``lattice``; ValueError names ``what``."""
    try:
        return lattice.coordinates(lattice.basis.vector(poly))
    except ValueError:
        raise ValueError(f"{what} is not an integral combination of g-monomials") from None


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


def partitions(n, largest):
    """The partitions of n into parts of at most ``largest``, each a tuple,
    largest part first.

    Part k is the variable of weight k, so these are the monomials of weight
    n in variables of weights 1 .. largest: the rows of ``BasisIndex``, and
    with ``largest = 4`` the ranks of Z[q1..q4], the free rank of Q_n.
    """
    if n == 0 or largest == 1:
        return [(1,) * n]
    return [(k, *rest) for k in range(min(n, largest), 0, -1) for rest in partitions(n - k, k)]
