"""The universal formal group law in the integral b-model.

The coefficient ring is coordinatized inside Z[b_1, b_2, ...] through
exp_b(x) = x + sum b_i x^(i+1); the law, its invariant form omega, the
bilinear series A(x, y) = F * (x omega(y) - y omega(x)) and the A_ij
extracted from it all live here, together with the verifiers for the
evenness identity of omega', the mod-(xy)^3 expansion of A, and the
residual form of the quotient law.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Poly, Series1, Series2, b_vars, compose1
from .genus import Report, _compare_series, _compare_series2

DEFAULT_WEIGHT = 8


@dataclass
class FglData:
    """Universal law truncated at total degree W+1 over Z[b_1..b_W]."""

    weight: int
    vars: object
    exp_b: Series1
    log_b: Series1
    F: Series2
    omega: Series1
    omega_hat: Series1 | None = None
    A: Series2 | None = None


def build_universal_fgl(w=DEFAULT_WEIGHT):
    """exp/log construction of F = exp_b(log_b(x) + log_b(y)).

    omega is computed independently as exp_b'(log_b(x)) and cross-checked
    against dF/dy at y = 0.
    """
    bv = b_vars(w)
    order = w + 1
    exp_coeffs = [Poly.zero(bv), Poly.one(bv)] + [
        Poly.var(bv, f"b{i}") for i in range(1, w + 1)
    ]
    exp_b = Series1(bv, order, exp_coeffs)
    log_b = exp_b.revert()
    lx = Series2.from_series1(log_b, order, 0)
    ly = Series2.from_series1(log_b, order, 1)
    F = compose1(exp_b, lx + ly)
    omega = exp_b.derivative().compose(log_b.truncate(w))
    fgl = FglData(w, bv, exp_b, log_b, F, omega)
    _sanity(fgl)
    return fgl


def _sanity(fgl):
    w, bv = fgl.weight, fgl.vars
    if not fgl.F.is_symmetric():
        raise AssertionError("F is not symmetric")
    if fgl.F.at_y_zero() != Series1.identity(bv, w + 1):
        raise AssertionError("F(x,0) != x")
    if fgl.F.dy_at_zero().truncate(w) != fgl.omega:
        raise AssertionError("omega disagrees with dF/dy(x,0)")
    # invariant form inverts the logarithm's derivative
    prod = fgl.omega.mul(fgl.log_b.derivative())
    if prod != Series1.one(bv, w):
        raise AssertionError("omega * log_b' != 1")
    if not (fgl.F.is_integral() and fgl.omega.is_integral()):
        raise AssertionError("b-model lost integrality")
    if not fgl.F.is_graded(-1):
        raise AssertionError("F is not graded")


def _xwy_ywx(fgl):
    """The pair (x*omega(y), y*omega(x)) at total degree W+1.

    omega is known to order W, so after the degree-1 factor the products
    are determined to degree W+1.
    """
    w, bv = fgl.weight, fgl.vars
    wy = Series2.from_series1(fgl.omega, w, 1)
    wx = Series2.from_series1(fgl.omega, w, 0)
    x = Series2(bv, w + 1, {(1, 0): Poly.one(bv)})
    y = Series2(bv, w + 1, {(0, 1): Poly.one(bv)})
    return x.mul(wy, order=w + 1), y.mul(wx, order=w + 1), x, y


def compute_A(fgl):
    """Fill A = F * (x omega(y) - y omega(x)), whose coefficients are the A_ij.

    The product is valid to total degree W+2 because the second factor has
    no constant term, so it holds A_ij for every i + j <= W+2; antisymmetry,
    integrality and homogeneity (weight i + j - 2) are asserted.
    """
    w, bv = fgl.weight, fgl.vars
    xwy, ywx, _, _ = _xwy_ywx(fgl)
    A = fgl.F.mul(xwy - ywx, order=w + 2)
    if A != -A.swap():
        raise AssertionError("A is not antisymmetric")
    if not A.is_integral():
        raise AssertionError("A is not integral")
    if not A.is_graded(-2):
        raise AssertionError("A is not graded")
    fgl.A = A
    return fgl


def omega_hat(fgl):
    """(omega'(x) - omega'(0)) / (2x), with the evenness check of verify_proposition_i."""
    if fgl.omega_hat is None:
        rep = verify_proposition_i(fgl)
        if not rep.passed:
            raise AssertionError(f"omega' evenness failed: {rep.first_failure}")
    return fgl.omega_hat


def verify_proposition_i(fgl):
    """Every coefficient of omega'(x) - omega'(0) is even, so omega_hat is integral.

    Cross-checked through d^2F/dy^2(x,0) = omega' omega - omega'(0) omega,
    whose left side visibly carries a factor 2.
    """
    w, bv = fgl.weight, fgl.vars
    dw = fgl.omega.derivative()
    centered = dw - dw.coeffs[0]
    half = Fraction(1, 2)
    for k, c in enumerate(centered.coeffs):
        for e, v in c.terms.items():
            if v.denominator != 1 or v.numerator % 2:
                return Report(
                    "proposition-i",
                    w,
                    False,
                    {"monomial": f"x^{k}", "lhs": c.text(), "rhs": "even coefficients"},
                )
    hat = centered.shift_down().scale(half)
    fgl.omega_hat = hat
    # cross-check: 2 * sum [x^i y^2]F x^i = omega' omega - omega'(0) omega
    d2 = [Poly.zero(bv) for _ in range(w)]
    for (i, j), c in fgl.F.coeffs.items():
        if j == 2 and i < w:
            d2[i] = c.scale(2)
    lhs = Series1(bv, w - 1, d2)
    rhs = dw.mul(fgl.omega) - fgl.omega.truncate(w - 1).mul_poly(dw.coeffs[0])
    return _compare_series("proposition-i", w, lhs, rhs)


def _proposition_ii_rhs(fgl):
    """(x w(y) + y w(x) - w'(0) xy)(x w(y) - y w(x)) + (w what(x) - w what(y)) x^2 y^2."""
    w, bv = fgl.weight, fgl.vars
    hat = omega_hat(fgl)
    xwy, ywx, x, y = _xwy_ywx(fgl)
    wprime0 = fgl.omega.derivative().coeffs[0]
    sym = xwy + ywx - x.mul(y, order=w + 1).mul_poly(wprime0)
    anti = xwy - ywx
    first = sym.mul(anti, order=w + 2)
    whx = fgl.omega.truncate(w - 2).mul(hat)
    diff = Series2.from_series1(whx, w - 2, 0) - Series2.from_series1(whx, w - 2, 1)
    x2y2 = Series2(bv, w + 2, {(2, 2): Poly.one(bv)})
    second = diff.mul(x2y2, order=w + 2)
    return first + second


def verify_proposition_ii(fgl):
    """A_ij matches the closed expansion on every slot with min(i,j) <= 2."""
    w = fgl.weight
    rhs = _proposition_ii_rhs(fgl)
    for (i, j) in sorted(set(fgl.A.coeffs) | set(rhs.coeffs)):
        if i + j > w + 2 or min(i, j) > 2:
            continue
        a = fgl.A.coefficient(i, j)
        b = rhs.coefficient(i, j)
        if a != b:
            return Report(
                "proposition-ii",
                w,
                False,
                {"monomial": f"x^{i}*y^{j}", "lhs": a.text(), "rhs": b.text()},
            )
    return Report("proposition-ii", w, True)


def verify_krichever_form(fgl):
    """Residual of the quotient-law numerator is exactly the A_ij, i,j >= 3.

    Checks, with b := omega and beta := omega_hat:
      * x b(y) - y b(x) and b(x)beta(x) - b(y)beta(y) both vanish on the
        diagonal y = x, so the quotient form is a genuine power series;
      * the multiplied-through numerator is antisymmetric under x <-> y;
      * A minus the numerator is supported on {i >= 3, j >= 3} and its
        coefficients there are exactly A_ij;
      * rewriting the numerator with c := b, d := -b beta gives the same
        series (the two printed shapes of the quotient law agree).
    """
    w, bv = fgl.weight, fgl.vars
    hat = omega_hat(fgl)
    xwy, ywx, x, y = _xwy_ywx(fgl)
    anti = xwy - ywx
    if anti.at_diagonal() != Series1.zero(bv, w + 1):
        return Report("krichever-form", w, False, {"monomial": "diagonal", "lhs": "x b(y) - y b(x)", "rhs": "0"})
    whx = fgl.omega.truncate(w - 2).mul(hat)
    diff = Series2.from_series1(whx, w - 2, 0) - Series2.from_series1(whx, w - 2, 1)
    if diff.at_diagonal() != Series1.zero(bv, w - 2):
        return Report("krichever-form", w, False, {"monomial": "diagonal", "lhs": "b beta(x) - b beta(y)", "rhs": "0"})
    numerator = _proposition_ii_rhs(fgl)
    if numerator + numerator.swap() != Series2.zero(bv, w + 2):
        return Report("krichever-form", w, False, {"monomial": "swap", "lhs": "numerator", "rhs": "-numerator(y,x)"})
    residual = fgl.A - numerator
    for (i, j), c in sorted(residual.coeffs.items()):
        if min(i, j) < 3:
            return Report(
                "krichever-form",
                w,
                False,
                {"monomial": f"x^{i}*y^{j}", "lhs": c.text(), "rhs": "0 (support must have i,j >= 3)"},
            )
        if c != fgl.A.coefficient(i, j):
            return Report(
                "krichever-form",
                w,
                False,
                {"monomial": f"x^{i}*y^{j}", "lhs": c.text(), "rhs": fgl.A.coefficient(i, j).text()},
            )
    # same numerator written with c := b, d := -b * beta
    a0 = fgl.omega.derivative().coeffs[0]
    sym = xwy + ywx - x.mul(y, order=w + 1).mul_poly(a0)
    d = whx.scale(-1)
    ddiff = Series2.from_series1(d, w - 2, 0) - Series2.from_series1(d, w - 2, 1)
    x2y2 = Series2(bv, w + 2, {(2, 2): Poly.one(bv)})
    alt = sym.mul(anti, order=w + 2) - ddiff.mul(x2y2, order=w + 2)
    rep = _compare_series2("krichever-form-cd", w, numerator, alt)
    if not rep.passed:
        return rep
    return Report("krichever-form", w, True)


def verify_associativity(fgl, degree=6):
    """F(F(x,y),z) = F(x,F(y,z)) to the given total degree (trivariate)."""
    degree = min(degree, fgl.weight)
    bv = fgl.vars
    F = fgl.F.truncate(degree)

    def tri_mul(a, b):
        out = {}
        for (e1, c1) in a.items():
            for (e2, c2) in b.items():
                i, j, k = e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2]
                if i + j + k > degree:
                    continue
                key = (i, j, k)
                prod = c1 * c2
                out[key] = out.get(key, Poly.zero(bv)) + prod
        return {k: v for k, v in out.items() if v}

    def subs(u, v):
        # F(u, v) with u, v trivariate dicts of valuation >= 1
        upow = {0: {(0, 0, 0): Poly.one(bv)}}
        vpow = {0: {(0, 0, 0): Poly.one(bv)}}
        out = {}
        for (i, j), c in sorted(F.coeffs.items()):
            for k in range(max(upow) + 1, i + 1):
                upow[k] = tri_mul(upow[k - 1], u)
            for k in range(max(vpow) + 1, j + 1):
                vpow[k] = tri_mul(vpow[k - 1], v)
            for e, cv in tri_mul(upow[i], vpow[j]).items():
                out[e] = out.get(e, Poly.zero(bv)) + cv * c
        return {k: v for k, v in out.items() if v}

    xv = {(1, 0, 0): Poly.one(bv)}
    yv = {(0, 1, 0): Poly.one(bv)}
    zv = {(0, 0, 1): Poly.one(bv)}
    lhs = subs(subs(xv, yv), zv)
    rhs = subs(xv, subs(yv, zv))
    for e in sorted(set(lhs) | set(rhs)):
        if lhs.get(e, Poly.zero(bv)) != rhs.get(e, Poly.zero(bv)):
            return Report(
                "associativity",
                degree,
                False,
                {
                    "monomial": f"x^{e[0]}*y^{e[1]}*z^{e[2]}",
                    "lhs": lhs.get(e, Poly.zero(bv)).text(),
                    "rhs": rhs.get(e, Poly.zero(bv)).text(),
                },
            )
    return Report("associativity", degree, True)
