"""The polynomial and integer-lattice kernels.

These are the hot inner loops of the whole package: the sparse-polynomial
sum of products, with one product as its one-pair case (every series
operation bottoms out here), and the one integer column elimination, the
Hermite normal form, built by inserting one column at a time into a
reduced echelon basis (Kannan & Bachem 1979; Cohen, GTM 138, section 2.4),
which holds down the growth of intermediate entries.  The Smith normal
form is read off by alternating that elimination on a matrix and its
transpose.
"""

from bisect import bisect_right, insort
from functools import reduce
from math import gcd
from operator import or_

BACKEND_NAME = "python"


def poly_dot_terms(pairs, guard=0):
    """Sum of the products of the term-dict pairs {packed exponent key: int}.

    Every product of every pair goes into one dict, so each coefficient is
    written once, after all its like terms are summed (the rule of Monagan
    & Pearce, CASC 2007), and the zero sums are dropped once at the end.
    With packed keys (``core.VarTable.pack``) the key of a monomial product
    is the sum of the keys, so the loop does int arithmetic only, on
    one-digit ints over ``b_vars(n)`` and ``cp_vars(n)`` for n <= 14 and
    over ``p_vars()``.  Raises OverflowError if a product key has a bit of
    ``guard`` set, as a product past the table's top weight does; the keys
    are checked before zero sums are dropped, since two products can cancel
    on a monomial past the guard.
    """
    out = {}
    get = out.get
    for aterms, bterms in pairs:
        if len(aterms) > len(bterms):
            aterms, bterms = bterms, aterms
        bitems = list(bterms.items())
        for ea, ca in aterms.items():
            for eb, cb in bitems:
                key = ea + eb
                out[key] = get(key, 0) + ca * cb
    if guard and reduce(or_, out, 0) & guard:
        raise OverflowError("a product past the top weight of its variable table")
    return {e: c for e, c in out.items() if c}


def poly_mul_terms(aterms, bterms, guard=0):
    """The product of two sparse term dicts: the one-pair ``poly_dot_terms``."""
    return poly_dot_terms(((aterms, bterms),), guard)


def hnf_cols(cols, nrows):
    """Column-style Hermite normal form, in place.

    ``cols`` is a list of length-``nrows`` integer columns.  On return the
    first ``rank`` columns are the HNF basis (pivots positive, entries to
    the left of a pivot reduced into [0, pivot)), the remaining columns are
    zero.  Returns the list of pivot rows.

    The basis is built by column insertion with full reduction (Kannan &
    Bachem, SIAM J. Comput. 8, 1979; Cohen, GTM 138, section 2.4).  Columns
    go in lowest first nonzero row first, so the bottom of the basis fills
    in before the columns that walk through it.  A column v walks down from
    its first nonzero row r.  With no pivot at r it becomes the pivot column
    there, sign normalised.  Otherwise it is reduced modulo the pivot a of
    the pivot column h, and a nonzero remainder b takes an extended-gcd step
    g = s a + t b: h becomes s h + t v, and (a/g) v - (b/g) h, zero at r,
    walks on.  Every new or changed pivot column is reduced at the pivot
    rows below its own, and the walking column at each pivot row it reaches;
    this is what keeps the entries small.  A last pass reduces each column
    at the pivots to its right, which makes the basis canonical.

    A row operation reads only the nonzero (row, entry) pairs of its source,
    a pivot column, and most pivot columns are sparse below their pivot.
    The pairs are listed once per version of a pivot column: when it is
    created and after each extended-gcd step that changes it.
    """
    basis = {}  # pivot row -> the column whose pivot is there
    support = {}  # pivot row -> the nonzero (row, entry) pairs of basis[row]
    rows = []  # the pivot rows, ascending
    starts = [(_next_nonzero(v, 0, nrows), v) for v in cols]
    # stable: columns that start on the same row keep their order
    starts.sort(key=lambda pair: pair[0], reverse=True)
    for r, v in starts:
        while r < nrows:
            h = basis.get(r)
            if h is None:
                if v[r] < 0:
                    v[r:] = [-x for x in v[r:]]
                _reduce_below(v, r, basis, support, rows)
                basis[r] = v
                support[r] = _nonzeros(v, r, nrows)
                insort(rows, r)
                break
            a = h[r]
            q = v[r] // a
            if q:
                _col_submul(v, support[r], q, r)
            b = v[r]
            if b:
                g, s, t = _xgcd(a, b)
                ag, bg = a // g, b // g
                hs, vs = h[r:], v[r:]
                h[r:] = [s * x + t * y for x, y in zip(hs, vs)]
                v[r:] = [ag * y - bg * x for x, y in zip(hs, vs)]
                _reduce_below(h, r, basis, support, rows)
                support[r] = _nonzeros(h, r, nrows)
            r = _next_nonzero(v, r + 1, nrows)
    out = [basis[r] for r in rows]
    for j, r in enumerate(rows):
        # out[j] changes only at steps after j, so its pairs are current
        src = support[r]
        p = out[j][r]
        for col in out[:j]:
            q = col[r] // p
            if q:
                _col_submul(col, src, q, r)
    cols[:] = out + [[0] * nrows for _ in range(len(cols) - len(out))]
    return rows


def _next_nonzero(col, r, nrows):
    while r < nrows and not col[r]:
        r += 1
    return r


def _nonzeros(col, r, nrows):
    """The nonzero (row, entry) pairs of ``col`` on rows r.."""
    return [(i, col[i]) for i in range(r, nrows) if col[i]]


def _reduce_below(col, r, basis, support, rows):
    """Reduce ``col`` at every pivot row below ``r``, top down."""
    for rr in rows[bisect_right(rows, r) :]:
        if col[rr]:
            q = col[rr] // basis[rr][rr]
            if q:
                _col_submul(col, support[rr], q, rr)


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s a + t b, for a > b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _col_submul(col, src, q, start):
    """col -= q * (source column), in place.  ``src`` lists the source's
    nonzero (row, entry) pairs, all on rows start.."""
    for i, w in src:
        col[i] -= q * w


def snf_diag(cols):
    """Smith normal form diagonal of the integer matrix with columns ``cols``.

    A matrix and its transpose have the same Smith form, so rows serve as
    well as columns; the list and its columns are destroyed.  Column Hermite
    forms of the matrix and of its transpose alternate until every column
    has a single nonzero entry (Kannan & Bachem, SIAM J. Comput. 8, 1979):
    each pass leaves a first pivot that divides the previous one, and a pass
    that keeps it has cleared its row and column.  Returns the nonzero
    invariant factors d_1 | d_2 | ... (positive, divisibility chain).
    """
    while True:
        pivots = hnf_cols(cols, len(cols[0]) if cols else 0)
        del cols[len(pivots) :]
        # columns are zero above their pivots: one nonzero means none below
        if not any(any(col[r + 1 :]) for col, r in zip(cols, pivots)):
            break
        cols = [list(row) for row in zip(*cols)]
    diag = [col[r] for col, r in zip(cols, pivots)]
    # (gcd, lcm) on every pair in order sorts each prime's exponents
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            diag[i], diag[j] = g, a // g * b
    return diag
