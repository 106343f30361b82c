"""The polynomial and integer-lattice kernels.

These are the hot inner loops of the whole package: sparse-polynomial
multiplication (every series operation bottoms out here) and the integer
column eliminations behind Hermite/Smith normal forms.
"""

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


def snf_diag(rows):
    """Smith normal form diagonal of an integer matrix (list of rows).

    Destroys ``rows``.  Returns the list of nonzero invariant factors
    d_1 | d_2 | ... (positive, divisibility chain).
    """
    if not rows or not rows[0]:
        return []
    m = len(rows)
    n = len(rows[0])
    diag = []
    t = 0
    while t < min(m, n):
        # locate the smallest nonzero entry in the remaining block
        pi = pj = -1
        pv = 0
        for i in range(t, m):
            row = rows[i]
            for j in range(t, n):
                v = row[j]
                if v and (pi < 0 or abs(v) < pv):
                    pi, pj, pv = i, j, abs(v)
        if pi < 0:
            break
        rows[t], rows[pi] = rows[pi], rows[t]
        if pj != t:
            for row in rows:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t below the pivot
            again = False
            piv = rows[t][t]
            for i in range(t + 1, m):
                v = rows[i][t]
                if v:
                    q = v // piv
                    if q:
                        ri, rt = rows[i], rows[t]
                        ri[t:] = [v - q * w for v, w in zip(ri[t:], rt[t:])]
                    if rows[i][t]:
                        rows[t], rows[i] = rows[i], rows[t]
                        again = True
                        break
            if again:
                continue
            # clear row t right of the pivot
            piv = rows[t][t]
            rt = rows[t]
            for j in range(t + 1, n):
                v = rt[j]
                if v:
                    q = v // piv
                    if q:
                        for row in rows:
                            row[j] -= q * row[t]
                    if rt[j]:
                        for row in rows:
                            row[t], row[j] = row[j], row[t]
                        again = True
                        break
            if again:
                continue
            # pivot must divide every remaining entry
            piv = rows[t][t]
            fix = False
            for i in range(t + 1, m):
                row = rows[i]
                for j in range(t + 1, n):
                    if row[j] % piv:
                        rt = rows[t]
                        for k in range(t, n):
                            rt[k] += row[k]
                        fix = True
                        break
                if fix:
                    break
            if not fix:
                break
        piv = rows[t][t]
        diag.append(piv if piv > 0 else -piv)
        t += 1
    return diag
