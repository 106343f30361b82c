"""The universal formal group law in the integral b-model.

The coefficient ring is coordinatized inside Z[b_1, b_2, ...] through
exp_b(x) = x + sum b_i x^(i+1); the law, its invariant form omega (the
y-linear part of the law, checked against the reverted logarithm), the
bilinear series A(x, y) = F * (x omega(y) - y omega(x)) and the A_ij
extracted from it all live here, together with the verifiers for the
evenness identity of omega', the mod-(xy)^3 expansion of A, and the
residual form of the quotient law.  The law itself comes from
``core.formal_group_law``, the one builder of exp(log x + log y).  The
closed form of A, ``_proposition_ii_rhs``, lives on row and column 2 only
and is read off the one square omega^2: ``proposition-ii`` matches A with
it where min(i, j) <= 2, and ``krichever-form`` reads A minus it as the
A_ij with i, j >= 3.  The associativity suite checks the law to its own
degree through the linear equation omega(x) dF/dx = omega(y) dF/dy, which
reads coefficients of F and forms no power of it.  A law is symmetric, so
the suite checks F[i, j] = F[j, i] and forms only the left side, whose
mirror is the right side.  Every suite reports
through ``report.compare_slots``.
"""

from collections import namedtuple

# compose1 has no caller here; the benchmark wraps it under this module's name
from .core import Poly, Series1, Series2, b_vars, compose1, formal_group_law
from .report import compare_slots

DEFAULT_WEIGHT = 8


class FglData(namedtuple("FglData", "weight vars exp_b log_b F omega A", defaults=(None,))):
    """Universal law truncated at total degree W+1 over Z[b_1..b_W], an
    immutable record.

    ``A`` is None in the record ``build_universal_fgl`` returns;
    ``compute_A`` returns a copy that carries it.
    """

    __slots__ = ()


def build_universal_fgl(w=DEFAULT_WEIGHT):
    """exp/log construction of F = exp_b(log_b(x) + log_b(y)).

    omega = dF/dy(x, 0) is read off F as its coefficients [x^k y] F, and
    ``_sanity`` checks omega * log_b' = 1, which ties the y-linear part of
    F to the reverted logarithm.
    """
    bv = b_vars(w)
    order = w + 1
    exp_coeffs = [Poly.zero(bv), Poly.one(bv)] + [
        Poly.var(bv, f"b{i}") for i in range(1, w + 1)
    ]
    exp_b = Series1(bv, order, exp_coeffs)
    log_b = exp_b.revert()
    F = formal_group_law(exp_b, log_b)
    omega = Series1(bv, w, [F.coefficient(k, 1) for k in range(w + 1)])
    fgl = FglData(w, bv, exp_b, log_b, F, omega)
    _sanity(fgl)
    return fgl


def _sanity(fgl):
    w, bv = fgl.weight, fgl.vars
    if fgl.F.at_y_zero() != Series1.identity(bv, w + 1):
        raise AssertionError("F(x,0) != x")
    # invariant form inverts the logarithm's derivative
    prod = fgl.omega.mul(fgl.log_b.derivative())
    if prod != Series1.one(bv, w):
        raise AssertionError("omega * log_b' != 1")
    if not fgl.F.is_integral():
        raise AssertionError("b-model lost integrality")
    if not fgl.F.is_graded(-1):
        raise AssertionError("F is not graded")


def compute_A(fgl):
    """A copy of ``fgl`` carrying A = F * (x omega(y) - y omega(x)), whose
    coefficients are the A_ij.

    The product is valid to total degree W+2 because the second factor has
    no constant term, so it holds A_ij for every i + j <= W+2.  Only the
    slots with i < j are formed, by ``A_coefficients``.  F is built
    mirrored, so A_ji = -A_ij and the diagonal is 0.  Integrality and
    homogeneity (weight i + j - 2) are asserted on the whole of A.
    """
    w, bv = fgl.weight, fgl.vars
    slots = [(i, j) for j in range(1, w + 3) for i in range(min(j, w + 3 - j))]
    A = A_coefficients(bv, fgl.F.coeffs, slots)
    A = Series2(bv, w + 2, A | {(j, i): -c for (i, j), c in A.items()})
    if not A.is_integral():
        raise AssertionError("A is not integral")
    if not A.is_graded(-2):
        raise AssertionError("A is not graded")
    return fgl._replace(A=A)


def A_coefficients(vars, F, slots):
    """{(i, j): A_ij} on the ``slots`` with a pair, each one ``Poly.dot`` of
    A_ij = sum_k omega_k (F_{i-1,j-k} - F_{i-k,j-1}), omega_k = F[k, 1], for
    a law's coefficients F with its zeros left out, like ``Series2.coeffs``.
    F has no constant term, so a pair's k is at most i + j - 2."""
    zero, top = Poly.zero(vars), max((i + j - 2 for i, j in slots), default=-1)
    omega = [F.get((k, 1), zero) for k in range(top + 1)]
    minus = [-c for c in omega]
    out = {}
    for i, j in slots:
        pairs = [(omega[k], F[i - 1, j - k]) for k in range(j + 1) if (i - 1, j - k) in F]
        pairs += [(minus[k], F[i - k, j - 1]) for k in range(i + 1) if (i - k, j - 1) in F]
        if pairs:
            out[i, j] = Poly.dot(vars, pairs)
    return out


def verify_proposition_i(fgl):
    """Every coefficient of omega'(x) - omega'(0) is even, so
    (omega'(x) - omega'(0)) / 2x is integral.

    Cross-checked through d^2F/dy^2(x,0) = (omega' - omega'(0)) omega,
    whose left side [x^k] = 2 F[k, 2] visibly carries a factor 2.
    """
    w, F = fgl.weight, fgl.F.coeffs
    dw = fgl.omega.derivative()
    centered = Series1(fgl.vars, dw.order, [Poly.zero(fgl.vars)] + dw.coeffs[1:])
    odd = {
        k: c
        for k, c in enumerate(centered.coeffs)
        if c.den != 1 or any(v % 2 for v in c.terms.values())
    }
    rep = compare_slots("proposition-i", w, odd, dict.fromkeys(odd, "even coefficients"))
    if not rep.passed:
        return rep
    lhs = {k: F[k, 2].scale(2) for k in range(w) if (k, 2) in F}
    return compare_slots("proposition-i", w, lhs, centered.mul(fgl.omega).coeffs)


def _proposition_ii_rhs(omega):
    """The closed form of A as a {(i, j): Poly} map, from the one square omega^2.

    With w = omega, w_1 = omega'(0) and what = (w' - w_1) / 2x, the
    quotient-law numerator with b := w and beta := what is
        N = (x w(y) + y w(x) - w_1 xy)(x w(y) - y w(x))
            + (w what(x) - w what(y)) x^2 y^2.
    Since (x w(y) + y w(x))(x w(y) - y w(x)) = x^2 w(y)^2 - y^2 w(x)^2,
    every term of N has i = 2 or j = 2, and N is antisymmetric.  On row 2,
    with what_m = (m + 2) w_(m+2) / 2,
        [x^2 y^k] N = [w^2]_k - w_1 w_(k-1) - sum_{a+b=k, b>=2} (b/2) w_a w_b,
    and pairing b with k - b sums (b/2) w_a w_b over every a + b = k to
    (k/4) [w^2]_k, of which b = 1 is w_1 w_(k-1) / 2.  So
        R[2, k] = (1 - k/4) [x^k] omega^2 - omega_1 omega_(k-1) / 2
    for k = 0..W, k != 2, with omega_(-1) = 0, and R[k, 2] = -R[2, k].  At
    k = 2 the row and the column cancel.
    """
    w = omega.coeffs
    rhs = {}
    for k, square in enumerate(omega.mul(omega).coeffs):
        if k != 2:
            r = square.scale(4 - k, 4)
            if k:
                r -= (w[1] * w[k - 1]).scale(1, 2)
            rhs[2, k], rhs[k, 2] = r, -r
    return rhs


def verify_proposition_ii(fgl):
    """A_ij matches the closed expansion on every slot with min(i,j) <= 2."""
    low = {k: v for k, v in fgl.A.coeffs.items() if min(k) <= 2}
    return compare_slots("proposition-ii", fgl.weight, low, _proposition_ii_rhs(fgl.omega))


def verify_krichever_form(fgl):
    """A minus the closed-form numerator is exactly the A_ij with i, j >= 3.

    The numerator is ``_proposition_ii_rhs``, the quotient-law form with
    b := omega and beta := (omega' - omega'(0)) / 2x multiplied through.  It
    is built on row and column 2 alone, so its vanishing on i, j >= 3 is
    visible from how it is built, and this suite passes exactly when
    ``proposition-ii`` does: it restates the paper's Krichever form as a
    residual, A_ij on i, j >= 3 and zero elsewhere.
    """
    A, rhs, zero = fgl.A.coeffs, _proposition_ii_rhs(fgl.omega), Poly.zero(fgl.vars)
    residual = {k: A.get(k, zero) - rhs.get(k, zero) for k in A.keys() | rhs.keys()}
    residual = {k: r for k, r in residual.items() if r}
    support = "0 (support must have i,j >= 3)"
    high = {k: A[k] if min(k) >= 3 else support for k in residual}
    return compare_slots("krichever-form", fgl.weight, residual, high)


def verify_associativity(fgl):
    """F(F(x,y),z) = F(x,F(y,z)) to the law's own degree W, through omega.

    With omega_k = [x^k y] F, F(x, 0) = x and F[i, j] = F[j, i] are checked
    to degree W, and omega(x) dF/dx = omega(y) dF/dy to degree W - 1.  At
    x^i y^j the left side is LHS[i, j] = sum_k omega_k (i-k+1) F[i-k+1, j],
    one ``Poly.dot``, so no power of F is formed; for a symmetric F the
    right side at (i, j) is LHS[j, i], so the equation is LHS equal to its
    mirror.  The equation says F is constant along the flow of
    omega(x) d/dx - omega(y) d/dy, so F is a function of L(x) + L(y) with
    L' = 1/omega.  The unit axiom then makes F = exp_L(L(x) + L(y)), which is
    symmetric and associative over a torsion-free ring (Hazewinkel, Formal
    Groups and Applications, 1978, section 5).  So a law that passes the
    unit check and the two-sided equation is symmetric to degree W: the
    symmetry check fails only laws that the two-sided check fails, and the
    three checks give its verdict.
    """
    w, bv, F = fgl.weight, fgl.vars, fgl.F.coeffs
    unit = {i: F[i, 0] for i in range(w + 1) if (i, 0) in F}
    rep = compare_slots("associativity", w, unit, Series1.identity(bv, w).coeffs)
    if not rep.passed:
        return rep
    low = {s: c for s, c in F.items() if sum(s) <= w}
    rep = compare_slots("associativity", w, low, {(j, i): c for (i, j), c in low.items()})
    if not rep.passed:
        return rep
    omega = [F.get((k, 1)) for k in range(w)]
    Fx = {(i - 1, j): c.scale(i) for (i, j), c in low.items() if i}

    def side(i, j):
        pairs = [(omega[k], Fx[i - k, j]) for k in range(i + 1) if omega[k] and (i - k, j) in Fx]
        return Poly.dot(bv, pairs)

    lhs = {(i, d - i): side(i, d - i) for d in range(w) for i in range(d + 1)}
    return compare_slots("associativity", w, lhs, {(j, i): c for (i, j), c in lhs.items()})
