"""The universal formal group law in the integral b-model.

The coefficient ring is coordinatized inside Z[b_1, b_2, ...] through
exp_b(x) = x + sum b_i x^(i+1); the law, its invariant form omega (the
y-linear part of the law, checked against the reverted logarithm), the
bilinear series A(x, y) = F * (x omega(y) - y omega(x)) and the A_ij
extracted from it all live here, together with the verifiers for the
evenness identity of omega', the mod-(xy)^3 expansion of A, and the
residual form of the quotient law.  The law itself comes from
``core.formal_group_law``, the one builder of exp(log x + log y).  The
closed form of A, ``_proposition_ii_rhs``, is built once per ``FglData``
and kept on it for the two suites that read it: ``proposition-ii`` matches
A with it where min(i, j) <= 2, and ``krichever-form`` adds that it
vanishes on i, j >= 3.  The associativity suite checks the law through
its invariant differential, composing omega with F by ``compose1``.
Every suite reports through ``report.compare_slots``.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Poly, Series1, Series2, b_vars, compose1, formal_group_law
from .report import compare_slots

DEFAULT_WEIGHT = 8


class FglData:
    """Universal law truncated at total degree W+1 over Z[b_1..b_W].

    ``omega_hat``, ``A`` and the closed form of A are filled in on first
    use; ``replace`` copies the constructor fields only, so a changed copy
    never carries a closed form built from the original's omega.
    """

    FIELDS = ("weight", "vars", "exp_b", "log_b", "F", "omega", "omega_hat", "A")
    __slots__ = (*FIELDS, "closed_form")

    def __init__(self, weight, vars, exp_b, log_b, F, omega, omega_hat=None, A=None):
        self.weight = weight
        self.vars = vars
        self.exp_b = exp_b
        self.log_b = log_b
        self.F = F
        self.omega = omega
        self.omega_hat = omega_hat
        self.A = A
        self.closed_form = None

    def replace(self, **changes):
        """A new FglData with the constructor fields of this one, updated by ``changes``."""
        fields = {name: getattr(self, name) for name in self.FIELDS}
        fields.update(changes)
        return FglData(**fields)


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
    no constant term, so it holds A_ij for every i + j <= W+2.  Only the
    slots with i < j are formed, each as one ``Poly.dot`` of
    A_ij = sum_k omega_k (F_{i-1,j-k} - F_{i-k,j-1}).  F is built mirrored,
    so A_ji = -A_ij and the diagonal is 0.  Integrality and homogeneity
    (weight i + j - 2) are asserted on the whole of A.
    """
    w, bv, F = fgl.weight, fgl.vars, fgl.F.coeffs
    omega = fgl.omega.coeffs
    minus = [-c for c in omega]
    coeffs = {}
    for j in range(1, w + 3):
        for i in range(min(j, w + 3 - j)):
            # F has no constant term, so a pair's k is at most i + j - 2 <= W
            pairs = [(omega[k], F[i - 1, j - k]) for k in range(j + 1) if (i - 1, j - k) in F]
            pairs += [(minus[k], F[i - k, j - 1]) for k in range(i + 1) if (i - k, j - 1) in F]
            if pairs:
                coeffs[i, j] = Poly.dot(bv, pairs)
                coeffs[j, i] = -coeffs[i, j]
    A = Series2(bv, w + 2, coeffs)
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
    w = fgl.weight
    dw = fgl.omega.derivative()
    centered = dw - dw.coeffs[0]
    odd = {
        k: c
        for k, c in enumerate(centered.coeffs)
        if c.den != 1 or any(v % 2 for v in c.terms.values())
    }
    rep = compare_slots("proposition-i", w, odd, dict.fromkeys(odd, "even coefficients"))
    if not rep.passed:
        return rep
    fgl.omega_hat = centered.shift_down().scale(Fraction(1, 2))
    # cross-check: d^2F/dy^2(x, 0) = omega' omega - omega'(0) omega
    lhs = fgl.F.dy().dy().at_y_zero()
    rhs = dw.mul(fgl.omega) - fgl.omega.truncate(w - 1).mul_poly(dw.coeffs[0])
    return compare_slots("proposition-i", w, lhs.coeffs, rhs.coeffs)


def _proposition_ii_rhs(fgl):
    """(x w(y) + y w(x) - w'(0) xy)(x w(y) - y w(x)) + (w what(x) - w what(y)) x^2 y^2.

    Built on the first call and kept in ``fgl.closed_form``.
    """
    if fgl.closed_form is not None:
        return fgl.closed_form
    w, bv = fgl.weight, fgl.vars
    hat = omega_hat(fgl)
    xwy, ywx, x, y = _xwy_ywx(fgl)
    wprime0 = fgl.omega.derivative().coeffs[0]
    sym = xwy + ywx - x.mul(y, order=w + 1).mul_poly(wprime0)
    whx = fgl.omega.truncate(w - 2).mul(hat)
    diff = Series2.from_series1(whx, w - 2, 0) - Series2.from_series1(whx, w - 2, 1)
    x2y2 = Series2(bv, w + 2, {(2, 2): Poly.one(bv)})
    fgl.closed_form = sym.mul(xwy - ywx, order=w + 2) + diff.mul(x2y2, order=w + 2)
    return fgl.closed_form


def verify_proposition_ii(fgl):
    """A_ij matches the closed expansion on every slot with min(i,j) <= 2."""
    rhs = _proposition_ii_rhs(fgl)
    low = [{k: v for k, v in s.coeffs.items() if min(k) <= 2} for s in (fgl.A, rhs)]
    return compare_slots("proposition-ii", fgl.weight, *low)


def verify_krichever_form(fgl):
    """A minus the closed-form numerator is exactly the A_ij with i, j >= 3.

    The numerator is ``_proposition_ii_rhs``, the quotient-law form with
    b := omega and beta := omega_hat multiplied through.  ``proposition-ii``
    already matches it with A on the slots with min(i, j) <= 2; what this
    check adds is that the numerator vanishes on i, j >= 3, so the residual
    there is A_ij itself.
    """
    residual = fgl.A - _proposition_ii_rhs(fgl)
    support = "0 (support must have i,j >= 3)"
    high = {k: fgl.A.coefficient(*k) if min(k) >= 3 else support for k in residual.coeffs}
    return compare_slots("krichever-form", fgl.weight, residual.coeffs, high)


def verify_associativity(fgl, degree=6):
    """F(F(x,y),z) = F(x,F(y,z)) to the given total degree, through omega.

    Over a torsion-free ring a law with F(x, 0) = x is associative exactly
    when dF/dy(x, y) * omega(y) = omega(F(x, y)), where omega(x) =
    dF/dy(x, 0) (Hazewinkel, Formal Groups and Applications, 1978, section
    5): the equation says that the L with L' = 1/omega has
    L(F(x, y)) = L(x) + L(y).  Its terms of degree below n read F only to
    degree n, so F(x, 0) = x is checked to ``degree`` and the equation to
    one less, with omega read from F itself.
    """
    degree = min(degree, fgl.weight)
    F = fgl.F.truncate(degree)
    unit = Series1.identity(fgl.vars, degree)
    rep = compare_slots("associativity", degree, F.at_y_zero().coeffs, unit.coeffs)
    if not rep.passed:
        return rep
    dF = F.dy()
    omega = dF.at_y_zero()
    lhs = dF.mul(Series2.from_series1(omega, degree - 1, 1))
    return compare_slots("associativity", degree, lhs.coeffs, compose1(omega, F).coeffs)
