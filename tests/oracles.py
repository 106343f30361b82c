"""Test-only helpers: a polynomial parser, JSON reader, the earlier
``Fraction``-based formatter of ``Poly`` (``ref_sorted_terms``, ``ref_text``
and ``ref_to_json``) as the reference for its text and JSON, weight, power, the
monomials of one weight, constant term, the grading test of a univariate
series, the sum, swap and symmetry test of bivariate series, and the
independent rank, partition, lattice-span and closed-form Indec_n oracles
the tests check the package against, the exponent vectors of a lattice's
rows, the a_ij or A_ij of a series grouped by weight, the earlier grading
gate, quotient path, associativity check, ideal piece (every shift of every
b-model A_ij, solved into g-coordinates), the new ideal generators each weight
needs beyond the shifts of the lower ones, omega (exp_b' composed
with log_b) and ``Series2.subs_xy`` (two series, powers by repeated
multiplication), the earlier kappa^{-1} and phi_KH tables (back-substitution
weight by weight, then psi substituted into it), omega_hat = (omega' -
omega'(0)) / 2x and the Proposition II numerator as the paper writes it (a
sum of bivariate products, against the row-2 map read off omega^2), a
counter of the kernel's term products, a genus table with one entry
perturbed, the earlier reciprocal recurrence of ``Series1.reciprocal`` and
the earlier Krichever ODE check in x (u = f/f' from the reversion).
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from krichever import _kernels_py, fgl, genus
from krichever.core import Poly, Series1, Series2, q_vars
from krichever.lattice import InvariantFactors, Lattice, hnf_columns
from krichever.report import compare_slots


def parse_poly(text, vars):
    """Inverse of ``Poly.text`` (also accepts unnormalized input)."""
    s = text.strip()
    if s == "0":
        return Poly.zero(vars)
    s = s.replace("**", "^")
    tokens = re.findall(r"[+-]|[^+\-\s]+", s)
    out = Poly.zero(vars)
    sign = 1
    pending = None
    for tok in tokens:
        if tok == "+" or tok == "-":
            if pending is not None:
                out = out + pending
                pending = None
            sign = 1 if tok == "+" else -1
            continue
        term = _parse_term(tok, vars, sign)
        if pending is not None:
            out = out + pending
        pending = term
        sign = 1
    if pending is not None:
        out = out + pending
    return out


def _parse_term(tok, vars, sign):
    coeff = Fraction(sign)
    exps = [0] * len(vars.names)
    for fac in tok.split("*"):
        fac = fac.strip()
        if not fac:
            continue
        m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*?)(?:\^(\d+))?", fac)
        if m and m.group(1) in vars.index:
            exps[vars.index[m.group(1)]] += int(m.group(2) or 1)
        else:
            coeff *= Fraction(fac)
    return Poly(vars, {tuple(exps): coeff})


def poly_from_json(data, vars):
    """Inverse of ``Poly.to_json``; ``Poly`` rejects a wrong exponent length."""
    return Poly(vars, {tuple(item["exps"]): Fraction(item["coeff"]) for item in data})


def ref_sorted_terms(poly):
    """(exponent vector, Fraction coefficient) pairs in canonical order."""
    w = poly.vars.monomial_weight
    terms = [(poly.vars.unpack(e), Fraction(c, poly.den)) for e, c in poly.terms.items()]
    return sorted(terms, key=lambda t: (w(t[0]), t[0]), reverse=True)


def ref_text(poly):
    """``Poly.text`` as the earlier formatter built it from Fractions."""
    if not poly.terms:
        return "0"
    parts = []
    for e, c in ref_sorted_terms(poly):
        factors = []
        for name, p in zip(poly.vars.names, e):
            if p == 1:
                factors.append(name)
            elif p > 1:
                factors.append(f"{name}^{p}")
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([str(mag)] + factors)
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def ref_to_json(poly):
    """``Poly.to_json`` as the earlier formatter built it from Fractions."""
    return [{"coeff": str(c), "exps": list(e)} for e, c in ref_sorted_terms(poly)]


def products_formed(monkeypatch, build):
    """The term products the kernel forms while ``build()`` runs."""
    dot = _kernels_py.poly_dot_terms
    products = [0]

    def counted_dot(pairs, guard=0):
        products[0] += sum(len(a) * len(b) for a, b in pairs)
        return dot(pairs, guard)

    # poly_mul_terms is the one-pair poly_dot_terms, so every product is counted
    monkeypatch.setattr(_kernels_py, "poly_dot_terms", counted_dot)
    build()
    return products[0]


def poly_pow(poly, n):
    """poly^n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = Poly.one(poly.vars)
    base = poly
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def weighted_monomials(vars, w):
    """All exponent tuples over ``vars`` of total weight w, canonical order.

    Each branch recurses over every variable, with no key and no code of the
    package.  Canonical order matches Poly.sorted_terms: lex descending on
    the exponent vector (all results share one weight).
    """
    n = len(vars.names)
    out = []

    def rec(i, rem, acc):
        if i == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        wt = vars.weights[i]
        for e in range(rem // wt, -1, -1):
            acc.append(e)
            rec(i + 1, rem - e * wt, acc)
            acc.pop()

    rec(0, w, [])
    out.sort(reverse=True)
    return out


def constant_term(poly):
    """The coefficient of the empty monomial, as a Fraction."""
    return Fraction(poly.terms.get(0, 0), poly.den)


def is_graded(s, shift):
    """Coefficient of x^k of the univariate s homogeneous of weight k + shift."""
    return all(c.is_homogeneous(k + shift) for k, c in enumerate(s.coeffs))


def add2(a, b, sign=1):
    """a + sign * b for bivariate series, slot by slot, at the lower order."""
    n, zero = min(a.order, b.order), Poly.zero(a.vars)
    slots = [k for k in a.coeffs.keys() | b.coeffs.keys() if sum(k) <= n]
    coeffs = {k: a.coeffs.get(k, zero) + b.coeffs.get(k, zero).scale(sign) for k in slots}
    return Series2(a.vars, n, coeffs)


def swap(s):
    """The bivariate series s(y, x)."""
    return Series2(s.vars, s.order, {(j, i): v for (i, j), v in s.coeffs.items()})


def is_symmetric(s):
    return s.coeffs == swap(s).coeffs


def two_series_subs_xy(F, sx, sy):
    """F(sx(x), sy(y)) with the powers of sx and sy built by repeated
    ``Series1.mul``: the earlier substitution, an oracle for
    ``Series2.subs_xy``, which takes one series for both variables."""
    if sx.coeffs[0] or sy.coeffs[0]:
        raise ValueError("substitution needs zero constant terms")
    n = F.order
    xpow = {0: Series1.one(F.vars, n)}
    ypow = {0: Series1.one(F.vars, n)}
    sxt, syt = sx.truncate(n), sy.truncate(n)
    pairs = {}
    for (i, j), c in sorted(F.coeffs.items()):
        if i not in xpow:
            for k in range(max(xpow) + 1, i + 1):
                xpow[k] = xpow[k - 1].mul(sxt)
        if j not in ypow:
            for k in range(max(ypow) + 1, j + 1):
                ypow[k] = ypow[k - 1].mul(syt)
        for a, pa in enumerate(xpow[i].coeffs):
            if not pa:
                continue
            for b, pb in enumerate(ypow[j].coeffs):
                if pb and a + b <= n:
                    pairs.setdefault((a, b), []).append((pa * pb, c))
    return Series2(F.vars, n, {k: Poly.dot(F.vars, v) for k, v in pairs.items()})


def back_substitution_kappa_inverse(n):
    """kappa^{-1}(CP_w), weight by weight: the earlier table, an oracle for
    ``genus.kappa_inverse_table``.

    kappa(CP_w) = c_w*CP_w + R_w(CP_1..CP_{w-1}) with c_w = -w, and kappa is
    a ring map, so kappa^{-1}(CP_w) = (CP_w - R_w(kappa^{-1}(CP_1), ...)) / c_w.
    A kappa with c_w = 0 is refused with ValueError.
    """
    kappa = genus.kappa_table(n)
    cv = kappa.series.vars
    kappa_images = kappa.images()
    coeffs = [Poly.one(cv)]
    for w in range(1, n + 1):
        target = Poly.var(cv, f"CP{w}")
        (key,) = target.terms
        c = Fraction(kappa[w].terms.get(key, 0), kappa[w].den)
        if not c:
            raise ValueError(f"kappa(CP_{w}) has no CP_{w} term; kappa is not invertible")
        rest = kappa[w] - target.scale(c)
        images = {f"CP{i}": coeffs[i] for i in range(1, w)}
        coeffs.append((target - rest.substitute(images, cv)).scale(1 / c))
        if coeffs[w].substitute(kappa_images, cv) != target:
            raise AssertionError(f"kappa o kappa^-1 failed at weight {w}")
    return genus.GenusTable("kappa_inv", Series1(cv, n, coeffs))


def substituted_phi_kh(n):
    """t o psi substituted into the back-substituted kappa^{-1}, over
    Q[q1..q4]: the earlier composite, an oracle for ``genus.phi_kh_table``."""
    kinv = back_substitution_kappa_inverse(n).series
    t_psi = genus.t_psi_table(n).images()
    qv = q_vars()
    coeffs = [c.substitute(t_psi, qv) for c in kinv.coeffs]
    return genus.GenusTable("phi_kh", Series1(qv, n, coeffs))


def perturbed_table(table, i, delta):
    """The table with ``delta``, a Poly of weight i, added to its entry i."""
    coeffs = list(table.series.coeffs)
    coeffs[i] = coeffs[i] + delta
    return genus.GenusTable(table.name, Series1(table.series.vars, table.series.order, coeffs))


def recurrence_reciprocal(g):
    """1/g for g with constant term 1, by the recurrence
    inv_k = -sum_{i=1}^k g_i inv_(k-i): the earlier ``Series1.reciprocal``,
    an oracle for ``Series1.div``."""
    if g.coeffs[0] != Poly.one(g.vars):
        raise ValueError("reciprocal needs constant term 1")
    f = g.coeffs
    inv = [Poly.one(g.vars)]
    for k in range(1, g.order + 1):
        pairs = [(f[i], inv[k - i]) for i in range(1, k + 1) if f[i] and inv[k - i]]
        inv.append(-Poly.dot(g.vars, pairs))
    return Series1(g.vars, g.order, inv)


def krichever_ode_in_x(n, table):
    """The Krichever ODE checked in x, as ``genus.verify_krichever_ode`` did
    before it moved to t = f(x): u = f/f' with f the reversion of the table's
    logarithm, then (u')^2 against 1 + q1 u + ... + q4 u^4 to x^(n-1)."""
    qv = table.series.vars
    f = genus._log_from_table(table, n + 1).revert()
    u = f.truncate(n).mul(recurrence_reciprocal(f.derivative()))
    du = u.derivative()
    rhs = genus.quartic_series(qv, n - 1).compose(u.truncate(n - 1))
    return compare_slots("krichever-ode", n, du.mul(du).coeffs, rhs.coeffs)


def poly_weight(poly):
    """Weight of a nonzero homogeneous polynomial."""
    ws = {poly.vars.monomial_weight(e) for e, _ in poly.sorted_terms()}
    if len(ws) != 1:
        raise ValueError("weight of zero or inhomogeneous polynomial")
    return ws.pop()


def unpacked_is_homogeneous(poly, weight):
    """``Poly.is_homogeneous`` by unpacking every key: the earlier gate."""
    unpack, w = poly.vars.unpack, poly.vars.monomial_weight
    return {w(unpack(e)) for e in poly.terms} <= {weight}


def literal_associativity(fgl, degree):
    """F(F(x,y),z) = F(x,F(y,z)) to the given total degree, by trivariate
    substitution: the earlier check, an oracle for ``verify_associativity``.

    It never reads F(x, 0) = x on its own, so a law whose unit axiom alone
    is broken may pass here where ``verify_associativity`` fails it.
    """
    degree = min(degree, fgl.weight)
    bv = fgl.vars
    F = fgl.F.truncate(degree)

    def dots(pairs):
        # one Poly.dot per trivariate slot, zero sums dropped
        return {k: v for k, p in pairs.items() if (v := Poly.dot(bv, p))}

    def tri_mul(a, b):
        pairs = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                if sum(key) <= degree:
                    pairs.setdefault(key, []).append((c1, c2))
        return dots(pairs)

    def subs(u, v):
        # F(u, v) with u, v trivariate dicts of valuation >= 1
        upow = {0: {(0, 0, 0): Poly.one(bv)}}
        vpow = {0: {(0, 0, 0): Poly.one(bv)}}
        pairs = {}
        for (i, j), c in sorted(F.coeffs.items()):
            for k in range(max(upow) + 1, i + 1):
                upow[k] = tri_mul(upow[k - 1], u)
            for k in range(max(vpow) + 1, j + 1):
                vpow[k] = tri_mul(vpow[k - 1], v)
            for e, cv in tri_mul(upow[i], vpow[j]).items():
                pairs.setdefault(e, []).append((cv, c))
        return dots(pairs)

    xv = {(1, 0, 0): Poly.one(bv)}
    yv = {(0, 1, 0): Poly.one(bv)}
    zv = {(0, 0, 1): Poly.one(bv)}
    return compare_slots("associativity", degree, subs(subs(xv, yv), zv), subs(xv, subs(yv, zv)))


def composed_omega(fgl):
    """exp_b'(log_b(x)), composed: the earlier omega, an oracle for the one
    ``build_universal_fgl`` reads off the law."""
    return fgl.exp_b.derivative().compose(fgl.log_b.truncate(fgl.weight))


def omega_hat(omega):
    """(omega'(x) - omega'(0)) / 2x, the beta of the quotient law, at the
    order of omega less 2."""
    dw = omega.derivative()
    return Series1(omega.vars, dw.order - 1, [c.scale(Fraction(1, 2)) for c in dw.coeffs[1:]])


def invariant_pair(omega):
    """The pair (x omega(y), y omega(x)) as bivariate series at order W + 2,
    for omega known to order W.

    Both are known only to degree W + 1.  In a product of two series with
    zero constant term, a term of degree W + 2 or less reads each factor only
    to degree W + 1, so a product of two such series at order W + 2 is exact.
    """
    n = omega.order + 2
    xwy = Series2(omega.vars, n, {(1, k): c for k, c in enumerate(omega.coeffs)})
    ywx = Series2(omega.vars, n, {(k, 1): c for k, c in enumerate(omega.coeffs)})
    return xwy, ywx


def proposition_ii_numerator(omega):
    """The paper's closed form of A as a bivariate series at order W + 2,
        (x w(y) + y w(x) - w_1 xy)(x w(y) - y w(x)) + (w what(x) - w what(y)) x^2 y^2,
    with w = omega and what = ``omega_hat(omega)``: the earlier build, an
    oracle for the row-2 map ``fgl._proposition_ii_rhs``.  Every factor has
    zero constant term, so each is built straight at order W + 2 (see
    ``invariant_pair``).
    """
    vars, n = omega.vars, omega.order + 2
    xwy, ywx = invariant_pair(omega)
    sym = add2(add2(xwy, ywx), Series2(vars, n, {(1, 1): omega.coeffs[1]}), -1)
    whw = omega.mul(omega_hat(omega)).coeffs
    diff = add2(
        Series2(vars, n, {(k, 0): c for k, c in enumerate(whw)}),
        Series2(vars, n, {(0, k): c for k, c in enumerate(whw)}),
        -1,
    )
    x2y2 = Series2(vars, n, {(2, 2): Poly.one(vars)})
    return add2(sym.mul(add2(xwy, ywx, -1)), diff.mul(x2y2))


def shift_ideal_piece(model, A, n):
    """I_n in g-coordinates as the span of every shift A_ij g_mu, A_ij of
    weight k <= n and mu of weight n - k: the earlier construction, an
    oracle for ``LazardModel.ideal_piece``.  The A_ij are the b-model's,
    the series ``A`` of ``fgl.compute_A``, each solved into g-coordinates in
    ``model.lazard_piece(k)``.  Multiplying by g_mu adds mu to the exponents
    of every g-monomial, so each column is a reindexed coordinate vector."""
    bi = model.basis_index(n)
    cols = []
    for k, gens in generators(A, 3, 2, n).items():
        lazard = model.lazard_piece(k)
        keys = lazard.basis.keys
        terms = [
            [(key, c) for key, c in zip(keys, lazard.coordinates(lazard.basis.vector(a))) if c]
            for a in gens
        ]
        for shift in model.basis_index(n - k).keys:
            for t in terms:
                col = [0] * len(bi)
                # packed keys add like exponent vectors
                for key, c in t:
                    col[bi.pos[key + shift]] = c
                cols.append(col)
    return Lattice(bi, cols)


def new_generators(model, n):
    """I_n / S_n as InvariantFactors, S_n = sum_m g_m I_(n-m) for m = 1 ..
    n-1: what the weight-n A_ij add to the shifts of the ideal below, so a
    minimal presentation of the ideal needs ``free_rank`` generators of
    weight n plus one more per torsion factor.  S_n is spanned by g_m times
    the reduced HNF basis of each I_(n-m), the columns ``ideal_piece``
    builds, and the quotient is the Smith form of their coordinates in the
    HNF basis of I_n."""
    ideal = model.ideal_piece(n)
    bi = ideal.basis
    shifts = []
    for m in range(1, n):
        lower = model.ideal_piece(n - m)
        # multiplying by g_m adds its unit key to every packed key
        rows = [bi.pos[key + model.vars.unit(m - 1)] for key in lower.basis.keys]
        for x in lower.hnf_basis():
            col = [0] * len(bi)
            for i, c in zip(rows, x):
                col[i] = c
            shifts.append(ideal.coordinates(col))
    return InvariantFactors.from_presentation(ideal.rank, shifts)


def row_exponents(vars, basis_index):
    """The exponent vector of each row of ``basis_index``, unpacked from its
    key: row i is b^e in b-coordinates and g^e in g-coordinates."""
    return [vars.unpack(key) for key in basis_index.keys]


def full_hnf_cokernel(lattice):
    """Z^(ambient dim) / lattice by the Smith form of the whole HNF basis:
    the earlier quotient path, an oracle for ``Lattice.cokernel``."""
    return InvariantFactors.from_presentation(len(lattice.basis), lattice.hnf_basis())


def gauss_jordan(rows):
    """Reduced row echelon form over Q, by exact Gauss-Jordan elimination.

    ``rows`` is a list of equal-length rows of ints or Fractions; it is not
    modified.  Returns (reduced rows, pivot columns): the first
    ``len(pivots)`` reduced rows are nonzero, each with a 1 in its pivot
    column and 0 in every other pivot column.
    """
    a = [list(row) for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        # a Fraction pivot, so that 1 / pivot stays exact for an int entry
        inv = 1 / Fraction(a[r][c])
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def rational_rank(columns, nrows):
    """Rank over Q by exact Gauss-Jordan elimination (independent of HNF)."""
    return len(gauss_jordan([[c[i] for c in columns] for i in range(nrows)])[1])


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


def generators(series, first, shift, max_weight):
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


def products_spans(model, max_weight):
    """{n: (L_n, I_n, D_n)} as b-coordinate generator columns, from the
    definitions alone: L_n is spanned by a_ij v, I_n by A_ij v and D_n by
    u v, with u and v running over HNF bases of the L_k of lower weight,
    computed the same way.  The a_ij and A_ij are the b-model's, from
    ``fgl.compute_A`` of the model's law.  Row i is the partition
    ``model.basis_index(n).parts[i]``.
    """
    data = fgl.compute_A(model.fgl)
    law_gens = generators(data.F, 1, 1, max_weight)
    ideal_gens = generators(data.A, 3, 2, max_weight)
    bases = {0: [Poly.one(model.vars)]}
    out = {}
    for n in range(1, max_weight + 1):
        bi = model.basis_index(n)

        def span(generators):
            return [
                bi.vector(g * v)
                for k, gens in generators.items()
                if k <= n
                for g in gens
                for v in bases[n - k]
            ]

        lazard = span(law_gens)
        ideal = span(ideal_gens)
        square = [
            bi.vector(u * v) for k in range(1, n // 2 + 1) for u in bases[k] for v in bases[n - k]
        ]
        out[n] = (lazard, ideal, square)
        basis, _ = hnf_columns(lazard, len(bi))
        rows = row_exponents(model.vars, bi)
        bases[n] = [Poly(model.vars, dict(zip(rows, c))) for c in basis]
    return out


def indecomposables_closed_form(n):
    """Indec_n for n >= 1 from binomial coefficients alone.

    In b-coordinates [b_n] a_ij = C(n+1, i) and, for i, j >= 3,
    [b_n] A_ij = C(n+1, i-1) - C(n+1, i).  The indecomposables of the
    coefficient ring embed in Z b_n with image g_a Z, g_a = gcd_i C(n+1, i),
    and the products A_ij L_{>0} are decomposable, so the weight-n A_ij cut
    Indec_n down to Z / (g_A / g_a), g_A the gcd of their b_n coefficients.
    With g_A = 0 (n <= 4) Indec_n is Z.  An oracle for
    :meth:`LazardModel.quotient_report` that needs no lattice at all.
    """
    g_A = gcd(*(comb(n + 1, i - 1) - comb(n + 1, i) for i in range(3, n)))
    if g_A == 0:
        return InvariantFactors((), 1)
    g_a = gcd(*(comb(n + 1, i) for i in range(1, n + 1)))
    d = g_A // g_a
    return InvariantFactors((d,) if d != 1 else (), 0)
