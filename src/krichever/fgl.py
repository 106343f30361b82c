"""The universal formal group law in the integral b-model.

The coefficient ring is coordinatized inside Z[b_1, b_2, ...] through
exp_b(x) = x + sum b_i x^(i+1); the law, its invariant form omega, the
bilinear series A(x, y) = F * (x omega(y) - y omega(x)) and the A_ij
extracted from it all live here, together with the verifiers for the
evenness identity of omega', the mod-(xy)^3 expansion of A, and the
residual form of the quotient law.  The law itself comes from
``core.formal_group_law``, the one builder of exp(log x + log y); the
closed form of A is built once by ``_closed_form`` for both of its
verifiers, which report through ``genus.compare_slots``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

# compose1 is no longer called here, but perfbench's tracer asserts that it
# rebinds fgl.compose1, so the name stays importable from this module.
from .core import Poly, Series1, Series2, b_vars, compose1, formal_group_law  # noqa: F401
from .genus import Report, compare_slots

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
    F = formal_group_law(exp_b, log_b)
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
    odd = {
        k: c
        for k, c in enumerate(centered.coeffs)
        if any(v.denominator != 1 or v.numerator % 2 for v in c.terms.values())
    }
    rep = compare_slots("proposition-i", w, odd, dict.fromkeys(odd, "even coefficients"))
    if not rep.passed:
        return rep
    fgl.omega_hat = centered.shift_down().scale(Fraction(1, 2))
    # cross-check: 2 * sum [x^i y^2]F x^i = omega' omega - omega'(0) omega
    d2 = [Poly.zero(bv) for _ in range(w)]
    for (i, j), c in fgl.F.coeffs.items():
        if j == 2 and i < w:
            d2[i] = c.scale(2)
    lhs = Series1(bv, w - 1, d2)
    rhs = dw.mul(fgl.omega) - fgl.omega.truncate(w - 1).mul_poly(dw.coeffs[0])
    return compare_slots("proposition-i", w, lhs.coeffs, rhs.coeffs)


class _ClosedForm(NamedTuple):
    """The closed form of A and the pieces it is made of, with w = omega."""

    anti: Series2  # x w(y) - y w(x)
    sym: Series2  # x w(y) + y w(x) - w'(0) xy
    whx: Series1  # w(x) what(x)
    diff: Series2  # whx(x) - whx(y)
    x2y2: Series2
    value: Series2  # sym * anti + diff * x^2 y^2


def _closed_form(fgl):
    w, bv = fgl.weight, fgl.vars
    hat = omega_hat(fgl)
    xwy, ywx, x, y = _xwy_ywx(fgl)
    wprime0 = fgl.omega.derivative().coeffs[0]
    sym = xwy + ywx - x.mul(y, order=w + 1).mul_poly(wprime0)
    anti = xwy - ywx
    whx = fgl.omega.truncate(w - 2).mul(hat)
    diff = Series2.from_series1(whx, w - 2, 0) - Series2.from_series1(whx, w - 2, 1)
    x2y2 = Series2(bv, w + 2, {(2, 2): Poly.one(bv)})
    value = sym.mul(anti, order=w + 2) + diff.mul(x2y2, order=w + 2)
    return _ClosedForm(anti, sym, whx, diff, x2y2, value)


def _proposition_ii_rhs(fgl):
    """(x w(y) + y w(x) - w'(0) xy)(x w(y) - y w(x)) + (w what(x) - w what(y)) x^2 y^2."""
    return _closed_form(fgl).value


def verify_proposition_ii(fgl):
    """A_ij matches the closed expansion on every slot with min(i,j) <= 2."""
    rhs = _proposition_ii_rhs(fgl)
    low = [{k: v for k, v in s.coeffs.items() if min(k) <= 2} for s in (fgl.A, rhs)]
    return compare_slots("proposition-ii", fgl.weight, *low)


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
    form = _closed_form(fgl)
    if form.anti.at_diagonal() != Series1.zero(bv, w + 1):
        return Report("krichever-form", w, False, {"monomial": "diagonal", "lhs": "x b(y) - y b(x)", "rhs": "0"})
    if form.diff.at_diagonal() != Series1.zero(bv, w - 2):
        return Report("krichever-form", w, False, {"monomial": "diagonal", "lhs": "b beta(x) - b beta(y)", "rhs": "0"})
    numerator = form.value
    if numerator + numerator.swap() != Series2.zero(bv, w + 2):
        return Report("krichever-form", w, False, {"monomial": "swap", "lhs": "numerator", "rhs": "-numerator(y,x)"})
    residual = fgl.A - numerator
    support = "0 (support must have i,j >= 3)"
    high = {k: fgl.A.coefficient(*k) if min(k) >= 3 else support for k in residual.coeffs}
    rep = compare_slots("krichever-form", w, residual.coeffs, high)
    if not rep.passed:
        return rep
    # same numerator written with c := b, d := -b * beta
    d = form.whx.scale(-1)
    ddiff = Series2.from_series1(d, w - 2, 0) - Series2.from_series1(d, w - 2, 1)
    alt = form.sym.mul(form.anti, order=w + 2) - ddiff.mul(form.x2y2, order=w + 2)
    rep = compare_slots("krichever-form-cd", w, numerator.coeffs, alt.coeffs)
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
    return compare_slots("associativity", degree, subs(subs(xv, yv), zv), subs(xv, subs(yv, zv)))
