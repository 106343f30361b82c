"""The polynomial and integer-lattice kernels.

These are the hot inner loops of the whole package: sparse-polynomial
multiplication (every series operation bottoms out here) and the one
integer column elimination, the Hermite normal form.  The Smith normal form
is read off by alternating that elimination on a matrix and its transpose.
"""

from math import gcd
from operator import add

BACKEND_NAME = "python"


def poly_mul_terms(aterms, bterms):
    """Multiply two sparse term dicts {exponent tuple: int or Fraction}.

    Integral inputs stay on plain ints; a Fraction appears in the result
    only where an input carries one.
    """
    if len(aterms) > len(bterms):
        aterms, bterms = bterms, aterms
    bitems = list(bterms.items())
    out = {}
    for ea, ca in aterms.items():
        for eb, cb in bitems:
            key = tuple(map(add, ea, eb))
            if key in out:
                out[key] += ca * cb
            else:
                out[key] = ca * cb
    return {e: c for e, c in out.items() if c}


def hnf_cols(cols, nrows):
    """Column-style Hermite normal form, in place.

    ``cols`` is a list of length-``nrows`` integer columns.  On return the
    first ``rank`` columns are the HNF basis (pivots positive, entries to
    the left of a pivot reduced into [0, pivot)), the remaining columns are
    zero.  Returns the list of pivot rows.
    """
    basis = []
    pivot_rows = []
    # Columns not yet pivots.  When row r is eliminated every one of them
    # is zero above r, so updates touch rows r.. only, and a column that
    # falls to zero is dropped for good.
    live = [col for col in cols if any(col)]
    for r in range(nrows):
        if not live:
            break
        # gcd-eliminate row r among the live columns until one survivor
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
                        _col_submul(col, src, q, r)
        if jmin < 0:
            continue
        piv = live.pop(jmin)
        if piv[r] < 0:
            piv[r:] = [-v for v in piv[r:]]
        pv = piv[r]
        for col in basis:
            q = col[r] // pv
            if q:
                _col_submul(col, piv, q, r)
        basis.append(piv)
        pivot_rows.append(r)
        live = [col for col in live if any(col[r + 1 :])]
    cols[:] = basis + [[0] * nrows for _ in range(len(cols) - len(basis))]
    return pivot_rows


def _col_submul(col, src, q, start):
    """col -= q * src on rows start.. (src is zero above ``start``)."""
    col[start:] = [v - q * w for v, w in zip(col[start:], src[start:])]


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
